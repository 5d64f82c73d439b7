// Ablation: buffer pool size sweep. Subsection 2.4 argues that minimizing
// the number of Cubetrees raises the probability of keeping the trees'
// top-level pages resident, so the organization degrades gracefully as
// memory shrinks; the conventional configuration leans on large B-trees
// plus heap fetches and suffers much earlier.

#include <cstdio>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "engine/conventional_engine.h"
#include "engine/cubetree_engine.h"
#include "storage/buffer_pool.h"

namespace cubetree {
namespace {

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::JsonWriter json(args, "bench_ablation_bufferpool");
  bench::PrintHeader("Ablation: query I/O vs buffer pool size", args);

  auto setup = bench::ComputeTpcdViews(args, bench::PaperViews(true),
                                       "abl_pool");
  DiskModel disk;
  CubeLattice lattice(setup.schema);

  const std::vector<size_t> pool_sizes = {64, 128, 256, 512, 1024, 2048};
  std::printf("\n%-12s %18s %18s\n", "pool pages", "conventional 1997(s)",
              "cubetrees 1997(s)");
  for (size_t pages : pool_sizes) {
    // Cubetree configuration.
    double cbt_seconds;
    {
      auto io = std::make_shared<IoStats>();
      BufferPool pool(pages);
      CubetreeEngine::Options options;
      options.dir = args.dir + "_abl_pool";
      options.name = "cbt" + std::to_string(pages);
      options.io_stats = io;
      auto engine = bench::CheckOk(
          CubetreeEngine::Create(setup.schema, options, &pool), "engine");
      bench::CheckOk(
          engine->Load(bench::PaperViews(true), setup.data.get()), "load");
      const IoStats before = *io;
      SliceQueryGenerator gen(setup.schema, args.seed);
      for (size_t i = 0; i < lattice.num_nodes(); ++i) {
        if (lattice.node(i).attrs.empty()) continue;
        for (int q = 0; q < args.queries; ++q) {
          SliceQuery query = gen.ForNode(lattice.node(i).attrs, true);
          bench::CheckOk(engine->Execute(query, nullptr).status(), "q");
        }
      }
      cbt_seconds = disk.ModeledSeconds(*io - before);
    }
    // Conventional configuration (views + the 3 selected indices).
    double conv_seconds;
    {
      auto io = std::make_shared<IoStats>();
      BufferPool pool(pages);
      ConventionalEngine::Options options;
      options.dir = args.dir + "_abl_pool";
      options.name = "conv" + std::to_string(pages);
      options.io_stats = io;
      auto engine = bench::CheckOk(
          ConventionalEngine::Create(setup.schema, options, &pool),
          "engine");
      bench::CheckOk(
          engine->LoadTables(bench::PaperViews(false), setup.data.get()),
          "tables");
      std::vector<IndexDef> indices;
      IndexDef csp{1, 0b111, {2, 1, 0}};
      IndexDef pcs{2, 0b111, {0, 2, 1}};
      IndexDef spc{3, 0b111, {1, 0, 2}};
      indices = {csp, pcs, spc};
      bench::CheckOk(engine->BuildIndices(indices), "indices");
      const IoStats before = *io;
      SliceQueryGenerator gen(setup.schema, args.seed);
      for (size_t i = 0; i < lattice.num_nodes(); ++i) {
        if (lattice.node(i).attrs.empty()) continue;
        for (int q = 0; q < args.queries; ++q) {
          SliceQuery query = gen.ForNode(lattice.node(i).attrs, true);
          bench::CheckOk(engine->Execute(query, nullptr).status(), "q");
        }
      }
      conv_seconds = disk.ModeledSeconds(*io - before);
    }
    std::printf("%-12zu %18.3f %18.3f\n", pages, conv_seconds, cbt_seconds);
    if (json.enabled()) {
      obs::JsonValue& entry = json.results().Set(
          std::to_string(pages) + "_pages", obs::JsonValue::MakeObject());
      entry.Set("conv_modeled_seconds", obs::JsonValue(conv_seconds));
      entry.Set("cbt_modeled_seconds", obs::JsonValue(cbt_seconds));
    }
  }
  std::printf("\n(cubetree query I/O should be nearly flat across pool "
              "sizes; the conventional path degrades as index+heap "
              "working sets fall out of memory)\n");
  setup.data.reset();
  json.Finish();
  return 0;
}

}  // namespace
}  // namespace cubetree

int main(int argc, char** argv) { return cubetree::Run(argc, argv); }
