// Ablation: the SelectMapping placement (Section 2.3) versus the naive
// one-tree-per-view placement. The paper argues SelectMapping minimizes
// the number of trees, and thereby the non-leaf space overhead and the
// buffer hit ratio of the trees' top levels.

#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/timer.h"
#include "engine/cubetree_engine.h"
#include "storage/buffer_pool.h"

namespace cubetree {
namespace {

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::JsonWriter json(args, "bench_ablation_mapping");
  bench::PrintHeader(
      "Ablation: SelectMapping vs one tree per view", args);

  auto setup = bench::ComputeTpcdViews(args, bench::PaperViews(true),
                                       "abl_map");

  struct Variant {
    const char* name;
    bool per_view;
  } variants[] = {{"SelectMapping", false}, {"tree-per-view", true}};

  std::printf("\n%-16s %7s %12s %14s %16s %10s\n", "placement", "trees",
              "bytes", "build wall(s)", "query 1997(s)", "hit ratio");
  for (const auto& variant : variants) {
    auto io = std::make_shared<IoStats>();
    BufferPool pool(bench::ScaledPoolPages(args));
    CubetreeEngine::Options options;
    options.dir = args.dir + "_abl_map";
    options.name = variant.name;
    options.one_tree_per_view = variant.per_view;
    options.io_stats = io;
    auto engine = bench::CheckOk(
        CubetreeEngine::Create(setup.schema, options, &pool), "engine");
    Timer build;
    bench::CheckOk(engine->Load(bench::PaperViews(true), setup.data.get()),
                   "load");
    const double build_s = build.ElapsedSeconds();

    DiskModel disk;
    SliceQueryGenerator gen(setup.schema, args.seed);
    CubeLattice lattice(setup.schema);
    pool.mutable_stats()->Clear();
    const IoStats before = *io;
    for (size_t i = 0; i < lattice.num_nodes(); ++i) {
      if (lattice.node(i).attrs.empty()) continue;
      for (int q = 0; q < args.queries; ++q) {
        SliceQuery query = gen.ForNode(lattice.node(i).attrs, true);
        bench::CheckOk(engine->Execute(query, nullptr).status(), "query");
      }
    }
    const size_t trees = engine->forest()->plan().trees.size();
    const uint64_t bytes = engine->StorageBytes();
    const double query_s = disk.ModeledSeconds(*io - before);
    const double hit_ratio = pool.stats().HitRatio();
    std::printf("%-16s %7zu %12llu %14.3f %16.3f %9.1f%%\n", variant.name,
                trees, static_cast<unsigned long long>(bytes), build_s,
                query_s, 100.0 * hit_ratio);
    if (json.enabled()) {
      obs::JsonValue& entry =
          json.results().Set(variant.name, obs::JsonValue::MakeObject());
      entry.Set("trees", obs::JsonValue(static_cast<uint64_t>(trees)));
      entry.Set("bytes", obs::JsonValue(bytes));
      entry.Set("build_wall_seconds", obs::JsonValue(build_s));
      entry.Set("query_modeled_seconds", obs::JsonValue(query_s));
      entry.Set("buffer_hit_ratio", obs::JsonValue(hit_ratio));
    }
  }
  std::printf("\n(paper: SelectMapping uses the minimal number of trees "
              "while keeping every view in a contiguous leaf run)\n");
  bench::CheckOk(setup.data->Destroy(), "cleanup");
  json.Finish();
  return 0;
}

}  // namespace
}  // namespace cubetree

int main(int argc, char** argv) { return cubetree::Run(argc, argv); }
