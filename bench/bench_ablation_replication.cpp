// Ablation: the sort-order replication of the top view (Section 3, "data
// replication scheme, where selected views are stored in multiple sort
// orders"). Compares query cost with and without the two replicas for
// slice queries that bind each single attribute of the top view — each
// replica serves the attribute its pack order leads with.

#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "engine/cubetree_engine.h"
#include "storage/buffer_pool.h"

namespace cubetree {
namespace {

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::JsonWriter json(args, "bench_ablation_replication");
  bench::PrintHeader("Ablation: top-view sort-order replication", args);

  struct Variant {
    const char* name;
    bool replicas;
  } variants[] = {{"with-replicas", true}, {"without-replicas", false}};

  DiskModel disk;
  for (const auto& variant : variants) {
    const std::string subdir =
        std::string("abl_rep_") + (variant.replicas ? "on" : "off");
    auto setup = bench::ComputeTpcdViews(
        args, bench::PaperViews(variant.replicas), subdir);
    auto io = std::make_shared<IoStats>();
    BufferPool pool(bench::ScaledPoolPages(args));
    CubetreeEngine::Options options;
    options.dir = args.dir + "_" + subdir;
    options.name = variant.name;
    options.io_stats = io;
    auto engine = bench::CheckOk(
        CubetreeEngine::Create(setup.schema, options, &pool), "engine");
    bench::CheckOk(
        engine->Load(bench::PaperViews(variant.replicas), setup.data.get()),
        "load");

    std::printf("\n%s: storage %s\n", variant.name,
                bench::HumanBytes(engine->StorageBytes()).c_str());
    obs::JsonValue* variant_json = nullptr;
    if (json.enabled()) {
      variant_json = &json.results().Set(variant.name,
                                         obs::JsonValue::MakeObject());
      variant_json->Set("storage_bytes",
                        obs::JsonValue(engine->StorageBytes()));
    }
    std::printf("  %-34s %16s %14s\n", "query class (on V{p,s,c})",
                "query 1997(s)", "tuples/query");
    // One class per bound attribute of the top view.
    for (uint32_t bound = 0; bound < 3; ++bound) {
      SliceQueryGenerator gen(setup.schema, args.seed + bound);
      const IoStats before = *io;
      uint64_t tuples = 0;
      for (int q = 0; q < args.queries; ++q) {
        SliceQuery query;
        query.node_mask = 0b111;
        query.attrs = {0, 1, 2};
        query.bindings = {std::nullopt, std::nullopt, std::nullopt};
        // Draw a random key for the bound attribute.
        SliceQuery draw = gen.ForNode({bound}, true);
        query.bindings[bound] = draw.bindings[0];
        obs::QueryProfile profile;
        bench::CheckOk(engine->Execute(query, &profile).status(), "query");
        tuples += profile.points_examined;
      }
      const double modeled_s = disk.ModeledSeconds(*io - before);
      const double tuples_per_query =
          static_cast<double>(tuples) / args.queries;
      std::printf("  bind %-29s %16.3f %14.0f\n",
                  setup.schema.attr_names[bound].c_str(), modeled_s,
                  tuples_per_query);
      if (variant_json != nullptr) {
        obs::JsonValue& entry = variant_json->Set(
            "bind_" + setup.schema.attr_names[bound],
            obs::JsonValue::MakeObject());
        entry.Set("modeled_seconds", obs::JsonValue(modeled_s));
        entry.Set("tuples_per_query", obs::JsonValue(tuples_per_query));
      }
    }
    bench::CheckOk(setup.data->Destroy(), "cleanup");
  }
  std::printf("\n(paper: replicas substitute for the 3 selected B-tree "
              "orders; without them, queries binding attributes early in "
              "the projection list scan far more of the view)\n");
  json.Finish();
  return 0;
}

}  // namespace
}  // namespace cubetree

int main(int argc, char** argv) { return cubetree::Run(argc, argv); }
