// Reproduces the worked examples of the paper:
//  * Tables 1-4: the data of views V8{partkey} and V9{suppkey,custkey} and
//    their pack-order sorting.
//  * Figure 8: the content of Cubetree R3{x,y} holding both views with a
//    fan-out of 3 — printed leaf by leaf from the real packed file.
//  * Figures 6/7: the Section 2.4 view set and its SelectMapping
//    allocation onto three Cubetrees.
//  * Figure 4's queries Q1/Q2 answered as slices of the index space.

#include <filesystem>
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/logging.h"
#include "cubetree/cubetree.h"
#include "cubetree/select_mapping.h"
#include "rtree/node.h"
#include "rtree/packed_rtree.h"
#include "storage/buffer_pool.h"
#include "tpcd/dbgen.h"

using namespace cubetree;

namespace {

ViewDef MakeView(uint32_t id, std::vector<uint32_t> attrs) {
  ViewDef v;
  v.id = id;
  v.attrs = std::move(attrs);
  return v;
}

PointRecord MakePoint(uint32_t view, std::vector<Coord> coords,
                      int64_t sum) {
  PointRecord rec;
  rec.view_id = view;
  for (size_t i = 0; i < coords.size(); ++i) rec.coords[i] = coords[i];
  rec.agg = AggValue{sum, 1};
  return rec;
}

}  // namespace

int main() {
  InitLogLevelFromEnv();
  std::error_code ec;
  std::filesystem::remove_all("paper_example_data", ec);
  ec.clear();
  std::filesystem::create_directories("paper_example_data", ec);
  if (ec) {
    std::fprintf(stderr, "mkdir paper_example_data: %s\n", ec.message().c_str());
    return 1;
  }

  // --- Tables 1 and 2: view V8{partkey} -------------------------------
  std::printf("Table 1 (data for view V8):\n  partkey  sum(quantity)\n");
  const std::vector<std::pair<Coord, int64_t>> v8 = {
      {4, 15}, {2, 84}, {3, 67}, {1, 102}, {6, 42}, {5, 24}};
  for (const auto& [p, sum] : v8) {
    std::printf("  %7u  %13lld\n", p, static_cast<long long>(sum));
  }
  std::vector<PointRecord> points;
  for (const auto& [p, sum] : v8) points.push_back(MakePoint(8, {p}, sum));

  // --- Tables 3 and 4: view V9{suppkey,custkey} ------------------------
  std::printf("\nTable 3 (data for view V9):\n"
              "  suppkey  custkey  sum(quantity)\n");
  const std::vector<std::tuple<Coord, Coord, int64_t>> v9 = {
      {3, 1, 2}, {1, 1, 24}, {1, 3, 11}, {3, 3, 17}, {2, 1, 6}};
  for (const auto& [s, c, sum] : v9) {
    std::printf("  %7u  %7u  %13lld\n", s, c, static_cast<long long>(sum));
  }
  for (const auto& [s, c, sum] : v9) points.push_back(MakePoint(9, {s, c},
                                                               sum));

  // Pack order: sorted by (y, x) — Tables 2 and 4.
  std::sort(points.begin(), points.end(),
            [](const PointRecord& a, const PointRecord& b) {
              return PackOrderCompare(a.coords, b.coords, 2) < 0;
            });
  std::printf("\nTables 2 and 4 (points sorted in (y,x) pack order):\n");
  for (const PointRecord& rec : points) {
    std::printf("  {%u,%u} -> %lld\n", rec.coords[0], rec.coords[1],
                static_cast<long long>(rec.agg.sum));
  }

  // --- Figure 8: pack both views into R3{x,y} with fan-out 3 -----------
  BufferPool pool(64);
  RTreeOptions options;
  options.dims = 2;
  options.max_leaf_entries = 3;
  options.max_internal_entries = 3;
  VectorPointSource source(points);
  auto arity = [](uint32_t view) -> uint8_t { return view == 8 ? 1 : 2; };
  auto tree_result = PackedRTree::Build("paper_example_data/r3.ctr", options,
                                        &pool, &source, arity);
  if (!tree_result.ok()) {
    std::fprintf(stderr, "build: %s\n",
                 tree_result.status().ToString().c_str());
    return 1;
  }
  auto rtree = std::move(tree_result).value();
  std::printf("\nFigure 8 (Cubetree R3, fan-out 3, height %u):\n",
              rtree->height());
  // Print each leaf page's entries as they are stored: V8 leaves carry 1
  // coordinate per entry (compressed), V9 leaves carry 2, each followed by
  // the aggregate.
  {
    auto scanner = rtree->ScanAll();
    uint32_t current_view = 0;
    while (true) {
      const char* leaf = nullptr;
      if (!scanner.NextLeaf(&leaf).ok()) return 1;
      if (leaf == nullptr) break;
      const uint32_t view = RNodeViewId(leaf);
      const uint8_t arity = RNodeArity(leaf);
      if (view != current_view) {
        std::printf("  -- leaves of %s (%s)\n", view == 8 ? "V8" : "V9",
                    view == 8 ? "compressed: x coordinate only"
                              : "x,y coordinates");
        current_view = view;
      }
      std::printf("  leaf:");
      const char* entry = leaf + kRNodeHeaderSize;
      for (uint16_t i = 0; i < RNodeCount(leaf); ++i) {
        std::printf(" (");
        for (uint8_t d = 0; d < arity; ++d) {
          std::printf("%u,", ViewRecordCoord(entry, d));
        }
        std::printf("%lld)",
                    static_cast<long long>(ViewRecordAgg(entry, arity).sum));
        entry += ViewRecordBytes(arity);
      }
      std::printf("\n");
    }
  }

  // --- Figure 4: queries as slices of the index space ------------------
  Cubetree cubetree({MakeView(8, {0}), MakeView(9, {1, 2})},
                    std::move(rtree));
  std::printf("\nQ1-style query on V9: total sales per supplier to "
              "customer C=1 (plane y=1):\n");
  Status st = cubetree.QuerySlice(
      9, {std::nullopt, Coord{1}},
      [](uint32_t, uint8_t arity, const char* entry) {
        std::printf("  suppkey %u -> %lld\n", ViewRecordCoord(entry, 0),
                    static_cast<long long>(ViewRecordAgg(entry, arity).sum));
      });
  if (!st.ok()) return 1;

  // --- Figures 6 and 7: the Section 2.4 allocation ---------------------
  tpcd::Generator generator(tpcd::TpcdOptions{});
  CubeSchema ext = generator.MakeExtendedSchema();
  std::vector<ViewDef> fig6 = {
      MakeView(1, {tpcd::kBrand}),
      MakeView(2, {tpcd::kSuppkey, tpcd::kPartkey}),
      MakeView(3, {tpcd::kBrand, tpcd::kSuppkey, tpcd::kCustkey,
                   tpcd::kMonth}),
      MakeView(4, {tpcd::kPartkey, tpcd::kSuppkey, tpcd::kCustkey,
                   tpcd::kYear}),
      MakeView(5, {tpcd::kPartkey, tpcd::kCustkey, tpcd::kYear}),
      MakeView(6, {tpcd::kCustkey}),
      MakeView(7, {tpcd::kCustkey, tpcd::kPartkey}),
      MakeView(8, {tpcd::kPartkey}),
      MakeView(9, {tpcd::kSuppkey, tpcd::kCustkey}),
  };
  ForestPlan plan = SelectMapping(fig6);
  std::printf("\nFigure 7 (SelectMapping of the Figure 6 views):\n");
  for (size_t t = 0; t < plan.trees.size(); ++t) {
    std::printf("  R%zu{%ud}:", t + 1, plan.trees[t].dims);
    for (uint32_t vid : plan.trees[t].view_ids) {
      for (const ViewDef& v : fig6) {
        if (v.id == vid) std::printf(" V%u=%s", vid, v.Name(ext).c_str());
      }
    }
    std::printf("\n");
  }
  std::printf("\n(paper: R1 = {V3,V5,V2,V1}, R2 = {V4,V7,V6}, "
              "R3 = {V9,V8})\n");
  return 0;
}
