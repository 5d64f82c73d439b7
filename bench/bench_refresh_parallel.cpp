// Refresh scalability: the same TPC-D increment is merge-packed into a
// fresh forest with the refresh worker pool at widths 1/2/4/8 while four
// reader threads keep serving old-epoch snapshot queries throughout.
//
// On one spindle the merge-pack is transfer-bound, so wall-clock speedup
// needs real cores AND independent disks — neither of which a small CI
// container reliably has. Next to wall time the bench therefore reports
// the modeled per-spindle refresh time: each worker streams its trees on
// its own 1997-class disk, so the modeled refresh is the makespan of the
// per-tree transfer costs under ParallelFor's earliest-free-worker
// dispatch. The speedup column compares that makespan against the serial
// sum of the same costs.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "cubetree/forest.h"

namespace cubetree {
namespace {

/// Earliest-free-worker schedule of `costs` taken in index order —
/// ParallelFor's dynamic dispatch with one modeled spindle per worker.
double Makespan(const std::vector<double>& costs, unsigned workers) {
  std::vector<double> free_at(std::max(1u, workers), 0.0);
  for (double cost : costs) {
    *std::min_element(free_at.begin(), free_at.end()) += cost;
  }
  return *std::max_element(free_at.begin(), free_at.end());
}

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::JsonWriter json(args, "bench_refresh_parallel");
  bench::PrintHeader(
      "Parallel refresh: merge-pack worker pool at 1/2/4/8 threads with "
      "concurrent readers",
      args);

  // The paper's view set with its two sort-order replicas, plus one more
  // replica order: four arity-3 views land in four similarly sized trees,
  // so the pool has balanced work at width 4.
  std::vector<ViewDef> views = bench::PaperViews(true);
  {
    ViewDef extra;
    extra.id = 1002;
    extra.attrs = {0, 2, 1};
    views.push_back(extra);
  }

  auto io = std::make_shared<IoStats>();
  bench::TpcdViewData base =
      bench::ComputeTpcdViews(args, views, "refreshpar", io);
  const std::string dir = args.dir + "_refreshpar";

  // The paper's 10% increment, computed once into its own sorted spools
  // and replayed against every pool width.
  CubeBuilder::Options build_options;
  build_options.temp_dir = dir;
  build_options.sort_budget_bytes = std::max<size_t>(
      256u << 10, static_cast<size_t>((16u << 20) * args.sf));
  build_options.io_stats = io;
  CubeBuilder builder(base.schema, build_options);
  auto inc_facts = base.generator->IncrementFacts(0.10, 0);
  auto delta = bench::CheckOk(
      builder.ComputeAll(views, inc_facts.get(), "refreshpar_inc"),
      "compute increment");

  const DiskModel disk;
  const std::vector<unsigned> widths = {1, 2, 4, 8};
  uint64_t expected_points = 0;
  double speedup_at_4 = 0;
  size_t num_trees = 0;

  std::printf("\n%-8s %12s %17s %17s %9s %14s\n", "threads", "wall",
              "modeled refresh", "modeled makespan", "speedup",
              "reader queries");
  for (unsigned width : widths) {
    const std::string sub = dir + "/t" + std::to_string(width);
    std::error_code ec;
    std::filesystem::create_directories(sub, ec);
    if (ec) {
      std::fprintf(stderr, "mkdir %s: %s\n", sub.c_str(),
                   ec.message().c_str());
      return 1;
    }
    auto run_io = std::make_shared<IoStats>();
    BufferPool pool(bench::ScaledPoolPages(args));
    CubetreeForest::Options forest_options;
    forest_options.dir = sub;
    forest_options.name = "f";
    forest_options.refresh_threads = width;
    auto forest = bench::CheckOk(
        CubetreeForest::Create(forest_options, &pool, run_io), "forest");
    bench::CheckOk(forest->Build(views, base.data.get()), "build");
    ForestSnapshot loaded = forest->AcquireSnapshot();
    num_trees = loaded.num_trees();

    std::vector<uint64_t> old_pages;
    for (size_t t = 0; t < loaded.num_trees(); ++t) {
      old_pages.push_back(loaded.tree(t)->TotalSizeBytes() / kPageSize);
    }
    loaded.Release();

    // Four readers serve snapshot queries (the small views, so the reader
    // traffic does not swamp the refresh's I/O accounting) for the whole
    // refresh window. Old epochs stay pinned and readable throughout.
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> read_errors{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          ForestSnapshot snap = forest->AcquireSnapshot();
          for (const ViewDef& view : views) {
            if (view.arity() > 1) continue;
            auto tree = snap.TreeForView(view.id);
            if (!tree.ok()) {
              read_errors.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            uint64_t rows = 0;
            std::vector<std::optional<Coord>> open(view.arity(),
                                                   std::nullopt);
            const Status status = (*tree)->QuerySlice(
                view.id, open,
                [&rows](const Coord*, const AggValue&) { ++rows; });
            if (status.ok() && rows > 0) {
              reads.fetch_add(1, std::memory_order_relaxed);
            } else if (!status.ok()) {
              read_errors.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }

    const IoStats before = *run_io;
    Timer timer;
    bench::CheckOk(forest->ApplyDelta(delta.get()), "refresh");
    const double wall = timer.ElapsedSeconds();
    stop.store(true, std::memory_order_relaxed);
    for (auto& reader : readers) reader.join();
    const IoStats refresh_io = *run_io - before;

    // Every width must converge to the identical refreshed forest.
    const ForestSnapshot refreshed = forest->AcquireSnapshot();
    const uint64_t points = refreshed.TotalPoints();
    if (expected_points == 0) {
      expected_points = points;
    } else if (points != expected_points) {
      std::fprintf(stderr,
                   "FATAL width %u produced %llu points, width 1 produced "
                   "%llu\n",
                   width, static_cast<unsigned long long>(points),
                   static_cast<unsigned long long>(expected_points));
      return 1;
    }

    // Per-tree modeled transfer cost of this refresh: stream the old tree
    // in, stream the repacked tree out (the delta read rides along and is
    // proportionally small).
    std::vector<double> costs;
    for (size_t t = 0; t < refreshed.num_trees(); ++t) {
      const uint64_t new_pages =
          refreshed.tree(t)->TotalSizeBytes() / kPageSize;
      costs.push_back(static_cast<double>(old_pages[t] + new_pages) *
                      disk.PageTransferSeconds());
    }
    const double serial = Makespan(costs, 1);
    const double makespan = Makespan(costs, width);
    const double speedup = serial / makespan;
    if (width == 4) speedup_at_4 = speedup;

    std::printf("%-8u %11.3fs %16.3fs %16.3fs %8.2fx %14llu\n", width,
                wall, disk.ModeledSeconds(refresh_io), makespan, speedup,
                static_cast<unsigned long long>(reads.load()));
    if (read_errors.load() != 0) {
      std::fprintf(stderr, "FATAL %llu reader queries failed at width %u\n",
                   static_cast<unsigned long long>(read_errors.load()),
                   width);
      return 1;
    }
    if (json.enabled()) {
      const std::string tag = "t" + std::to_string(width);
      json.AddIoStats("refresh_" + tag, refresh_io, disk);
      obs::JsonValue& entry =
          json.results().Set(tag, obs::JsonValue::MakeObject());
      entry.Set("wall_seconds", obs::JsonValue(wall));
      entry.Set("modeled_refresh_seconds",
                obs::JsonValue(disk.ModeledSeconds(refresh_io)));
      entry.Set("modeled_makespan_seconds", obs::JsonValue(makespan));
      entry.Set("modeled_speedup_vs_serial", obs::JsonValue(speedup));
      entry.Set("reader_queries", obs::JsonValue(reads.load()));
    }
  }

  std::printf("\n%zu trees; modeled per-spindle speedup at 4 workers: "
              "%.2fx (target: >= 2.5x)\n",
              num_trees, speedup_at_4);
  if (json.enabled()) {
    json.results().Set("num_trees",
                       obs::JsonValue(static_cast<uint64_t>(num_trees)));
    json.results().Set("modeled_speedup_at_4_threads",
                       obs::JsonValue(speedup_at_4));
    json.Finish();
  }
  return speedup_at_4 >= 2.5 ? 0 : 1;
}

}  // namespace
}  // namespace cubetree

int main(int argc, char** argv) { return cubetree::Run(argc, argv); }
