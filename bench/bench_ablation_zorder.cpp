// Ablation: pack-order sorting vs a space-filling-curve (Z-order) sort.
// Section 2.3: "This is true because of the sorting and is one of the
// reasons for considering only sorts based on lowY, lowX and not space
// filling curves [FR89] when packing the trees."
//
// We bulk-load the top view twice — once in pack order (with the two
// replicas standing in for the other sort orders, as the real system
// does) and once in Z-order (single copy; SFC packing is pitched as
// one-order-fits-all) — and compare leaf I/O per query class.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <array>
#include <map>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "obs/query_profile.h"
#include "rtree/packed_rtree.h"
#include "rtree/zorder.h"
#include "storage/buffer_pool.h"

namespace cubetree {
namespace {

std::vector<PointRecord> TopViewPoints(const bench::BenchArgs& args) {
  tpcd::TpcdOptions gen_options;
  gen_options.scale_factor = args.sf;
  gen_options.seed = args.seed;
  tpcd::Generator generator(gen_options);
  // Aggregate the facts into the top view in memory (bench-local).
  std::map<std::array<Coord, 3>, AggValue> groups;
  auto source = generator.BaseFacts()->Open();
  bench::CheckOk(source.status(), "facts");
  const FactTuple* t = nullptr;
  while (true) {
    bench::CheckOk((*source)->Next(&t), "next");
    if (t == nullptr) break;
    groups[{t->attr_values[0], t->attr_values[1], t->attr_values[2]}].Merge(
        AggValue{t->measure, 1});
  }
  std::vector<PointRecord> points;
  points.reserve(groups.size());
  for (const auto& [key, agg] : groups) {
    PointRecord rec;
    rec.view_id = 1;
    rec.coords[0] = key[0];
    rec.coords[1] = key[1];
    rec.coords[2] = key[2];
    rec.agg = agg;
    points.push_back(rec);
  }
  return points;
}

/// Leaf pages touched by `queries` boxes, averaged.
double AvgLeafPages(PackedRTree* tree, const std::vector<Rect>& queries) {
  uint64_t total = 0;
  for (const Rect& query : queries) {
    obs::QueryProfile profile;
    obs::QueryProfile::Scope scope(&profile);
    bench::CheckOk(tree->Search(query, [](const PointRecord&) {}), "search");
    total += profile.leaf_pages;
  }
  return static_cast<double>(total) / queries.size();
}

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::JsonWriter json(args, "bench_ablation_zorder");
  bench::PrintHeader(
      "Ablation: pack-order vs Z-order (space-filling curve) packing",
      args);

  auto points = TopViewPoints(args);
  std::printf("top view: %zu groups\n", points.size());
  BufferPool pool(4096);
  const std::string dir = args.dir + "_zorder";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "mkdir %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // Variant 1: pack order, one tree per sort order (as the system does:
  // base + 2 replicas — here we build the base (p,s,c) order only and
  // query the classes its order serves, the replica classes being
  // symmetric).
  RTreeOptions pack_options;
  pack_options.dims = 3;
  std::sort(points.begin(), points.end(),
            [](const PointRecord& a, const PointRecord& b) {
              return PackOrderCompare(a.coords, b.coords, 3) < 0;
            });
  VectorPointSource pack_source(points);
  auto pack_tree = bench::CheckOk(
      PackedRTree::Build(dir + "/pack.ctr", pack_options, &pool,
                         &pack_source, [](uint32_t) { return 3; }),
      "pack build");

  // Variant 2: Z-order.
  RTreeOptions z_options;
  z_options.dims = 3;
  z_options.enforce_pack_order = false;
  std::sort(points.begin(), points.end(),
            [](const PointRecord& a, const PointRecord& b) {
              return ZOrderCompare(a.coords, b.coords, 3) < 0;
            });
  VectorPointSource z_source(points);
  auto z_tree = bench::CheckOk(
      PackedRTree::Build(dir + "/zorder.ctr", z_options, &pool, &z_source,
                         [](uint32_t) { return 3; }),
      "zorder build");

  std::printf("files: pack %s, z-order %s (same size: same leaves, "
              "different order)\n\n",
              bench::HumanBytes(pack_tree->FileSizeBytes()).c_str(),
              bench::HumanBytes(z_tree->FileSizeBytes()).c_str());

  // Query classes: slice on each single attribute, and a 3-d band box.
  tpcd::TpcdOptions gen_options;
  gen_options.scale_factor = args.sf;
  tpcd::Generator generator(gen_options);
  Rng rng(args.seed);
  const uint32_t domains[3] = {generator.sizes().parts,
                               generator.sizes().suppliers,
                               generator.sizes().customers};
  const char* names[3] = {"partkey", "suppkey", "custkey"};

  std::printf("%-26s %18s %18s\n", "query class",
              "pack: leaf pages/q", "z-order: leaf pages/q");
  for (int attr = 0; attr < 3; ++attr) {
    std::vector<Rect> queries;
    for (int q = 0; q < args.queries; ++q) {
      Rect rect = Rect::Full(3);
      const Coord v = static_cast<Coord>(1 + rng.Uniform(domains[attr]));
      rect.lo[attr] = v;
      rect.hi[attr] = v;
      for (int d = 0; d < 3; ++d) {
        if (d != attr) rect.lo[d] = 1;  // Exclude the (empty) zero planes.
      }
      queries.push_back(rect);
    }
    char label[64];
    std::snprintf(label, sizeof(label), "slice %s = const", names[attr]);
    const double pack_pages = AvgLeafPages(pack_tree.get(), queries);
    const double z_pages = AvgLeafPages(z_tree.get(), queries);
    std::printf("%-26s %18.1f %18.1f\n", label, pack_pages, z_pages);
    if (json.enabled()) {
      obs::JsonValue& entry =
          json.results().Set(label, obs::JsonValue::MakeObject());
      entry.Set("pack_leaf_pages_per_query", obs::JsonValue(pack_pages));
      entry.Set("zorder_leaf_pages_per_query", obs::JsonValue(z_pages));
    }
  }
  {
    std::vector<Rect> queries;
    for (int q = 0; q < args.queries; ++q) {
      Rect rect;
      for (int d = 0; d < 3; ++d) {
        const uint32_t span = std::max(1u, domains[d] / 10);
        const Coord lo =
            static_cast<Coord>(1 + rng.Uniform(domains[d] - span + 1));
        rect.lo[d] = lo;
        rect.hi[d] = lo + span - 1;
      }
      queries.push_back(rect);
    }
    std::printf("%-26s %18.1f %18.1f\n", "3-d band (10% per axis)",
                AvgLeafPages(pack_tree.get(), queries),
                AvgLeafPages(z_tree.get(), queries));
  }
  std::printf("\n(pack order is unbeatable on the sort-leading slice and "
              "relies on replicas for the others; Z-order is middling "
              "everywhere — and it would interleave the views of a shared "
              "tree, forfeiting compression and merge-pack, which is why "
              "the paper rules it out)\n");
  json.Finish();
  return 0;
}

}  // namespace
}  // namespace cubetree

int main(int argc, char** argv) { return cubetree::Run(argc, argv); }
