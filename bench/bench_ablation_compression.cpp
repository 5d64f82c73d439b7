// Ablation: the Cubetree leaf compression (zero-suppression of implicit
// coordinates, Section 2.4). Builds the same forest with compression on
// and off and compares storage, build throughput and query I/O. The paper
// attributes the "less space than unindexed tables" result to exactly this
// mechanism plus packing.

#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/timer.h"
#include "engine/cubetree_engine.h"
#include "storage/buffer_pool.h"

namespace cubetree {
namespace {

struct Variant {
  const char* name;
  bool compress;
};

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::JsonWriter json(args, "bench_ablation_compression");
  bench::PrintHeader("Ablation: packed-leaf compression on/off", args);

  auto setup = bench::ComputeTpcdViews(args, bench::PaperViews(true),
                                       "abl_comp");
  const Variant variants[] = {{"compressed", true}, {"uncompressed", false}};

  std::printf("\n%-14s %12s %12s %14s %16s\n", "variant", "bytes",
              "leaf pages", "build wall(s)", "query 1997(s)");
  uint64_t sizes[2] = {0, 0};
  for (int v = 0; v < 2; ++v) {
    auto io = std::make_shared<IoStats>();
    BufferPool pool(bench::ScaledPoolPages(args));
    CubetreeEngine::Options options;
    options.dir = args.dir + "_abl_comp";
    options.name = variants[v].name;
    options.rtree.compress_leaves = variants[v].compress;
    options.io_stats = io;
    auto engine = bench::CheckOk(
        CubetreeEngine::Create(setup.schema, options, &pool), "engine");
    Timer build;
    bench::CheckOk(engine->Load(bench::PaperViews(true), setup.data.get()),
                   "load");
    const double build_s = build.ElapsedSeconds();
    sizes[v] = engine->StorageBytes();

    uint64_t leaf_pages = 0;
    const ForestSnapshot snapshot = engine->forest()->AcquireSnapshot();
    for (size_t t = 0; t < snapshot.num_trees(); ++t) {
      leaf_pages += snapshot.tree(t)->rtree()->num_leaf_pages();
    }

    // Query cost: the Figure-12 batch over all views.
    DiskModel disk;
    SliceQueryGenerator gen(setup.schema, args.seed);
    CubeLattice lattice(setup.schema);
    const IoStats before = *io;
    for (size_t i = 0; i < lattice.num_nodes(); ++i) {
      if (lattice.node(i).attrs.empty()) continue;
      for (int q = 0; q < args.queries; ++q) {
        SliceQuery query = gen.ForNode(lattice.node(i).attrs, true);
        bench::CheckOk(engine->Execute(query, nullptr).status(), "query");
      }
    }
    std::printf("%-14s %12llu %12llu %14.3f %16.3f\n", variants[v].name,
                static_cast<unsigned long long>(sizes[v]),
                static_cast<unsigned long long>(leaf_pages), build_s,
                disk.ModeledSeconds(*io - before));
  }
  std::printf("\ncompression saves %.0f%% of the TPC-D forest. The saving "
              "is small here because the\ntop view dominates and its arity "
              "equals the tree dimensionality (nothing to\nsuppress); the "
              "mechanism's real job is making each view's leaf footprint "
              "equal\nto its unindexed relational width.\n",
              100.0 * (1.0 - static_cast<double>(sizes[0]) / sizes[1]));
  setup.data.reset();

  // --- Scenario 2: the Section 2.4 shape — many low-arity views placed in
  // 4-dimensional trees, where zero-suppression has real leverage.
  std::printf("\nScenario 2: Section 2.4 view set (low-arity views in 4-d "
              "trees)\n");
  tpcd::TpcdOptions gen_options;
  gen_options.scale_factor = args.sf;
  gen_options.seed = args.seed;
  tpcd::Generator generator(gen_options);
  CubeSchema ext = generator.MakeExtendedSchema();
  auto mk = [](uint32_t id, std::vector<uint32_t> attrs) {
    ViewDef v;
    v.id = id;
    v.attrs = std::move(attrs);
    return v;
  };
  // Figure 6: V1{brand}, V2{s,p}, V3{brand,s,c,month}, V4{p,s,c,year},
  // V5{p,c,year}, V6{c}, V7{c,p}, V8{p}, V9{s,c}.
  std::vector<ViewDef> fig6 = {
      mk(1, {tpcd::kBrand}),
      mk(2, {tpcd::kSuppkey, tpcd::kPartkey}),
      mk(3, {tpcd::kBrand, tpcd::kSuppkey, tpcd::kCustkey, tpcd::kMonth}),
      mk(4, {tpcd::kPartkey, tpcd::kSuppkey, tpcd::kCustkey, tpcd::kYear}),
      mk(5, {tpcd::kPartkey, tpcd::kCustkey, tpcd::kYear}),
      mk(6, {tpcd::kCustkey}),
      mk(7, {tpcd::kCustkey, tpcd::kPartkey}),
      mk(8, {tpcd::kPartkey}),
      mk(9, {tpcd::kSuppkey, tpcd::kCustkey}),
  };
  CubeBuilder::Options build_options;
  build_options.temp_dir = args.dir + "_abl_comp";
  CubeBuilder builder(ext, build_options);
  auto facts = generator.BaseFacts(/*extended_attrs=*/true);
  auto data = bench::CheckOk(builder.ComputeAll(fig6, facts.get(), "fig6"),
                             "compute fig6");
  uint64_t fig6_sizes[2] = {0, 0};
  for (int v = 0; v < 2; ++v) {
    BufferPool pool(bench::ScaledPoolPages(args));
    CubetreeEngine::Options options;
    options.dir = args.dir + "_abl_comp";
    options.name = std::string("fig6_") + variants[v].name;
    options.rtree.compress_leaves = variants[v].compress;
    auto engine = bench::CheckOk(
        CubetreeEngine::Create(ext, options, &pool), "engine");
    bench::CheckOk(engine->Load(fig6, data.get()), "load fig6");
    fig6_sizes[v] = engine->StorageBytes();
    std::printf("  %-14s %12llu bytes across %zu trees\n",
                variants[v].name,
                static_cast<unsigned long long>(fig6_sizes[v]),
                engine->forest()->plan().trees.size());
  }
  std::printf("  compression saves %.0f%% on this configuration\n",
              100.0 * (1.0 - static_cast<double>(fig6_sizes[0]) /
                                 fig6_sizes[1]));
  data.reset();
  if (json.enabled()) {
    json.results().Set("tpcd_compressed_bytes", obs::JsonValue(sizes[0]));
    json.results().Set("tpcd_uncompressed_bytes", obs::JsonValue(sizes[1]));
    json.results().Set("fig6_compressed_bytes",
                       obs::JsonValue(fig6_sizes[0]));
    json.results().Set("fig6_uncompressed_bytes",
                       obs::JsonValue(fig6_sizes[1]));
    json.Finish();
  }
  return 0;
}

}  // namespace
}  // namespace cubetree

int main(int argc, char** argv) { return cubetree::Run(argc, argv); }
