// Extension ablation: delta-tree refresh vs full merge-pack. The paper's
// merge-pack already brings the down-time window from hours to minutes;
// delta trees shrink it further to ~increment-sized work, at the price of
// one extra (small) tree search per pending delta until compaction. This
// bench plays a week of daily increments under both policies and reports
// per-day refresh cost, query cost as deltas accumulate, and the final
// compaction.

#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/timer.h"

namespace cubetree {
namespace {

double QueryBatchSeconds(Warehouse* warehouse, int queries, uint64_t seed) {
  const DiskModel& disk = warehouse->options().disk;
  IoStats* io = warehouse->cubetree_io().get();
  const CubeLattice& lattice = warehouse->lattice();
  SliceQueryGenerator gen = warehouse->MakeQueryGenerator(seed);
  const IoStats before = *io;
  Timer timer;
  for (int q = 0; q < queries; ++q) {
    SliceQuery query = gen.UniformOverLattice(lattice, true, true);
    bench::CheckOk(warehouse->cubetrees()->Execute(query, nullptr).status(),
                   "query");
  }
  return timer.ElapsedSeconds() + disk.ModeledSeconds(*io - before);
}

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::JsonWriter json(args, "bench_ablation_deltatrees");
  bench::PrintHeader(
      "Ablation: delta-tree refresh vs full merge-pack (1 week of 2% "
      "daily increments)",
      args);

  const int kDays = 7;
  for (bool partial : {false, true}) {
    WarehouseOptions options = args.ToWarehouseOptions(
        partial ? "deltatrees" : "mergepack");
    options.increment_fraction = 0.02;
    auto warehouse =
        bench::CheckOk(Warehouse::Create(options), "warehouse");
    bench::CheckOk(warehouse->LoadCubetrees().status(), "load");

    std::printf("\n--- policy: %s ---\n",
                partial ? "delta trees (+ final compaction)"
                        : "full merge-pack each day");
    std::printf("%-6s %14s %16s %16s %10s\n", "day", "refresh wall",
                "refresh 1997(s)", "queries 1997(s)", "deltas");
    double refresh_total = 0;
    for (uint32_t day = 0; day < kDays; ++day) {
      auto report = partial ? warehouse->UpdateCubetreesPartial(day)
                            : warehouse->UpdateCubetrees(day);
      PhaseReport phase = bench::CheckOk(std::move(report), "refresh");
      const double queries =
          QueryBatchSeconds(warehouse.get(), args.queries, args.seed + day);
      refresh_total += phase.modeled_seconds;
      std::printf("%-6u %13.3fs %16.3f %16.3f %10zu\n", day + 1,
                  phase.wall_seconds, phase.modeled_seconds, queries,
                  warehouse->cubetrees()->forest()->AcquireSnapshot()
                      .TotalDeltas());
    }
    if (partial) {
      PhaseReport compaction =
          bench::CheckOk(warehouse->CompactCubetrees(), "compact");
      refresh_total += compaction.modeled_seconds;
      std::printf("compaction: %.3fs wall, %.3f modeled; deltas now %zu\n",
                  compaction.wall_seconds, compaction.modeled_seconds,
                  warehouse->cubetrees()->forest()->AcquireSnapshot()
                      .TotalDeltas());
    }
    std::printf("total refresh (1997 disk): %.3f s; forest %s\n",
                refresh_total,
                bench::HumanBytes(warehouse->cubetrees()->StorageBytes())
                    .c_str());
    if (json.enabled()) {
      obs::JsonValue& entry = json.results().Set(
          partial ? "delta_trees" : "merge_pack",
          obs::JsonValue::MakeObject());
      entry.Set("total_refresh_modeled_seconds",
                obs::JsonValue(refresh_total));
      entry.Set("forest_bytes",
                obs::JsonValue(warehouse->cubetrees()->StorageBytes()));
    }
  }
  std::printf("\n(delta trees make each day's window ~increment-sized and "
              "defer the full rewrite to one compaction; query cost drifts "
              "up slightly as deltas accumulate)\n");
  json.Finish();
  return 0;
}

}  // namespace
}  // namespace cubetree

int main(int argc, char** argv) { return cubetree::Run(argc, argv); }
