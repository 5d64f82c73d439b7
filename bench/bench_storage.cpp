// Reproduces the storage comparison of Section 3.2: the conventional
// representation (view tables + B-tree indices) versus the Cubetree forest
// (storage and indexing combined, packed and compressed).
//
// Paper (SF=1): conventional 602 MB, Cubetrees 293 MB — 51% less, with the
// forest even smaller than the unindexed tables alone.

#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "cubetree/forest.h"

namespace cubetree {
namespace {

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::JsonWriter json(args, "bench_storage");
  bench::PrintHeader("Section 3.2: storage of the two organizations", args);

  auto warehouse = bench::CheckOk(
      Warehouse::Create(args.ToWarehouseOptions("storage")), "warehouse");
  bench::CheckOk(warehouse->LoadConventional().status(), "load conv");
  bench::CheckOk(warehouse->LoadCubetrees().status(), "load cbt");

  ConventionalEngine* conv = warehouse->conventional();
  CubetreeEngine* cbt = warehouse->cubetrees();

  const uint64_t tables = conv->TableBytes();
  const uint64_t indices = conv->IndexBytes();
  const uint64_t conv_total = conv->StorageBytes();
  const uint64_t forest = cbt->StorageBytes();

  std::printf("\nConventional organization:\n");
  std::printf("  view tables          %12s\n",
              bench::HumanBytes(tables).c_str());
  std::printf("  B-tree indices       %12s\n",
              bench::HumanBytes(indices).c_str());
  std::printf("  total                %12s\n",
              bench::HumanBytes(conv_total).c_str());
  std::printf("Cubetree organization (storage + indexing combined):\n");
  std::printf("  forest (incl. 2 sort-order replicas) %12s\n",
              bench::HumanBytes(forest).c_str());

  std::printf("\nsavings: %.0f%% (paper: 51%%), ratio %.2f:1 "
              "(paper: >2:1)\n",
              100.0 * (1.0 - static_cast<double>(forest) / conv_total),
              static_cast<double>(conv_total) / forest);

  // The paper's "less space than the unindexed relational representation"
  // claim compares one copy of each view, so build a forest without the
  // replicas for that comparison.
  {
    WarehouseOptions options = args.ToWarehouseOptions("storage_norep");
    options.replicate_top_view = false;
    auto norep = bench::CheckOk(Warehouse::Create(options),
                                "no-replica warehouse");
    bench::CheckOk(norep->LoadCubetrees().status(), "load no-replica");
    const uint64_t norep_bytes = norep->cubetrees()->StorageBytes();
    std::printf("forest without replicas: %s = %.2fx the unindexed tables "
                "(paper: < 1 due to compression)\n",
                bench::HumanBytes(norep_bytes).c_str(),
                static_cast<double>(norep_bytes) / tables);
  }

  std::printf("\nPer-tree breakdown:\n");
  const ForestSnapshot snapshot = cbt->forest()->AcquireSnapshot();
  for (size_t t = 0; t < snapshot.num_trees(); ++t) {
    Cubetree* tree = snapshot.tree(t);
    std::printf("  R%zu (dims %u): %8llu points, %5u leaf pages, %10s —",
                t + 1, tree->dims(),
                static_cast<unsigned long long>(tree->rtree()->num_points()),
                tree->rtree()->num_leaf_pages(),
                bench::HumanBytes(tree->rtree()->FileSizeBytes()).c_str());
    for (const ViewDef& v : tree->views()) {
      std::printf(" %s", v.Name(warehouse->schema()).c_str());
    }
    std::printf("\n");
    const double leaf_fraction =
        static_cast<double>(tree->rtree()->num_leaf_pages()) /
        (tree->rtree()->FileSizeBytes() / kPageSize);
    std::printf("      leaf pages are %.0f%% of the file (paper: ~90%% "
                "compressed leaves)\n",
                100.0 * leaf_fraction);
  }
  if (json.enabled()) {
    const DiskModel& disk = warehouse->options().disk;
    json.AddIoStats("conventional", *warehouse->conventional_io(), disk);
    json.AddIoStats("cubetrees", *warehouse->cubetree_io(), disk);
    json.results().Set("conv_table_bytes", obs::JsonValue(tables));
    json.results().Set("conv_index_bytes", obs::JsonValue(indices));
    json.results().Set("conv_total_bytes", obs::JsonValue(conv_total));
    json.results().Set("cbt_forest_bytes", obs::JsonValue(forest));
    json.results().Set(
        "storage_ratio",
        obs::JsonValue(static_cast<double>(conv_total) /
                       static_cast<double>(forest)));
    json.Finish();
  }
  return 0;
}

}  // namespace
}  // namespace cubetree

int main(int argc, char** argv) { return cubetree::Run(argc, argv); }
