#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cubetree/cubetree.h"
#include "cubetree/forest.h"
#include "cubetree/merge_pack.h"
#include "cubetree/select_mapping.h"
#include "cubetree/view_def.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

CubeSchema PaperSchema() {
  CubeSchema schema;
  schema.attr_names = {"partkey", "suppkey", "custkey"};
  schema.attr_domains = {200, 50, 150};
  return schema;
}

ViewDef MakeView(uint32_t id, std::vector<uint32_t> attrs) {
  ViewDef view;
  view.id = id;
  view.attrs = std::move(attrs);
  return view;
}

TEST(ViewDefTest, ArityMaskAndName) {
  CubeSchema schema = PaperSchema();
  ViewDef v = MakeView(1, {0, 1});
  EXPECT_EQ(v.arity(), 2);
  EXPECT_EQ(v.AttrMask(), 0b011u);
  EXPECT_EQ(v.Name(schema), "V{partkey,suppkey}");
  EXPECT_TRUE(v.Covers(0b001));
  EXPECT_TRUE(v.Covers(0b011));
  EXPECT_FALSE(v.Covers(0b100));
  ViewDef none = MakeView(2, {});
  EXPECT_EQ(none.Name(schema), "V{none}");
  EXPECT_EQ(none.arity(), 0);
}

TEST(ViewDefTest, RecordRoundTrip) {
  Coord coords[3] = {10, 20, 30};
  AggValue agg{-5, 2};
  std::vector<char> buf(ViewRecordBytes(3));
  EncodeViewRecord(buf.data(), coords, 3, agg);
  Coord out[kMaxDims];
  AggValue agg_out;
  DecodeViewRecord(buf.data(), 3, out, &agg_out);
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(out[2], 30u);
  EXPECT_EQ(agg_out, agg);
}

TEST(ViewDefTest, RecordCompareUsesPackOrder) {
  // (9, 1) < (1, 2): last attribute is the most significant.
  Coord a[2] = {9, 1};
  Coord b[2] = {1, 2};
  std::vector<char> ra(ViewRecordBytes(2)), rb(ViewRecordBytes(2));
  EncodeViewRecord(ra.data(), a, 2, AggValue{});
  EncodeViewRecord(rb.data(), b, 2, AggValue{});
  EXPECT_LT(ViewRecordCompare(ra.data(), rb.data(), 2), 0);
  EXPECT_GT(ViewRecordCompare(rb.data(), ra.data(), 2), 0);
  EXPECT_EQ(ViewRecordCompare(ra.data(), ra.data(), 2), 0);
}

// --- SelectMapping -------------------------------------------------------

TEST(SelectMappingTest, PaperTable5Allocation) {
  // Views in decreasing selection benefit, as in the paper's Section 3:
  // psc, ps, c, s, p, none.
  std::vector<ViewDef> views = {
      MakeView(100, {0, 1, 2}), MakeView(101, {0, 1}), MakeView(102, {2}),
      MakeView(103, {1}),       MakeView(104, {0}),    MakeView(105, {}),
  };
  ForestPlan plan = SelectMapping(views);
  // Paper Table 5: R1 = {psc, ps, c, none}, R2 = {s}, R3 = {p}.
  ASSERT_EQ(plan.trees.size(), 3u);
  EXPECT_EQ(plan.trees[0].dims, 3u);
  EXPECT_EQ(plan.trees[0].view_ids,
            (std::vector<uint32_t>{100, 101, 102, 105}));
  EXPECT_EQ(plan.trees[1].view_ids, (std::vector<uint32_t>{103}));
  EXPECT_EQ(plan.trees[2].view_ids, (std::vector<uint32_t>{104}));
  EXPECT_EQ(plan.view_to_tree.at(101), 0u);
  EXPECT_EQ(plan.view_to_tree.at(104), 2u);
}

TEST(SelectMappingTest, PaperFigure7Allocation) {
  // The Section 2.4 example: V1..V9 with arities 1,2,4,4,3,1,2,1,2.
  std::vector<ViewDef> views = {
      MakeView(1, {3}),           // V1 {brand}
      MakeView(2, {1, 0}),        // V2 {suppkey, partkey}
      MakeView(3, {3, 1, 2, 6}),  // V3 {brand, suppkey, custkey, month}
      MakeView(4, {0, 1, 2, 5}),  // V4 {partkey, suppkey, custkey, year}
      MakeView(5, {0, 2, 5}),     // V5 {partkey, custkey, year}
      MakeView(6, {2}),           // V6 {custkey}
      MakeView(7, {2, 0}),        // V7 {custkey, partkey}
      MakeView(8, {0}),           // V8 {partkey}
      MakeView(9, {1, 2}),        // V9 {suppkey, custkey}
  };
  ForestPlan plan = SelectMapping(views);
  ASSERT_EQ(plan.trees.size(), 3u);
  // Figure 7: R1{4d} = {V3, V5, V2, V1}, R2{4d} = {V4, V7, V6},
  //           R3{2d} = {V9, V8}.
  EXPECT_EQ(plan.trees[0].dims, 4u);
  EXPECT_EQ(plan.trees[0].view_ids, (std::vector<uint32_t>{3, 5, 2, 1}));
  EXPECT_EQ(plan.trees[1].dims, 4u);
  EXPECT_EQ(plan.trees[1].view_ids, (std::vector<uint32_t>{4, 7, 6}));
  EXPECT_EQ(plan.trees[2].dims, 2u);
  EXPECT_EQ(plan.trees[2].view_ids, (std::vector<uint32_t>{9, 8}));
}

TEST(SelectMappingTest, NoTreeHoldsTwoViewsOfSameArity) {
  std::vector<ViewDef> views;
  for (uint32_t i = 0; i < 12; ++i) {
    std::vector<uint32_t> attrs;
    for (uint32_t a = 0; a <= i % 4; ++a) attrs.push_back(a);
    views.push_back(MakeView(i, std::move(attrs)));
  }
  ForestPlan plan = SelectMapping(views);
  std::map<uint32_t, std::vector<uint32_t>> tree_views;
  for (const ViewDef& v : views) {
    tree_views[plan.view_to_tree.at(v.id)].push_back(v.arity());
  }
  for (auto& [tree, arities] : tree_views) {
    std::sort(arities.begin(), arities.end());
    EXPECT_EQ(std::adjacent_find(arities.begin(), arities.end()),
              arities.end())
        << "tree " << tree << " holds two views of equal arity";
  }
}

TEST(SelectMappingTest, EmptyAndSingle) {
  EXPECT_TRUE(SelectMapping({}).trees.empty());
  ForestPlan plan = SelectMapping({MakeView(5, {0, 1})});
  ASSERT_EQ(plan.trees.size(), 1u);
  EXPECT_EQ(plan.trees[0].dims, 2u);
}

TEST(SelectMappingTest, MinimalTreeCount) {
  // Tree count must equal the largest arity class.
  std::vector<ViewDef> views = {
      MakeView(1, {0}), MakeView(2, {1}), MakeView(3, {2}),
      MakeView(4, {0, 1}), MakeView(5, {0, 1, 2}),
  };
  ForestPlan plan = SelectMapping(views);
  EXPECT_EQ(plan.trees.size(), 3u);  // Three arity-1 views force 3 trees.
}

// --- Forest / provider helpers ------------------------------------------

/// In-memory ViewDataProvider for tests: per-view vectors of (coords, agg),
/// sorted on demand.
class VectorViewProvider : public CubetreeForest::ViewDataProvider {
 public:
  void Add(const ViewDef& view, std::vector<Coord> coords, AggValue agg) {
    auto& rows = data_[view.id];
    std::vector<char> rec(ViewRecordBytes(view.arity()));
    coords.resize(kMaxDims, 0);
    EncodeViewRecord(rec.data(), coords.data(), view.arity(), agg);
    rows.push_back(std::move(rec));
  }

  Result<std::unique_ptr<RecordStream>> OpenViewStream(
      const ViewDef& view) override {
    auto rows = data_[view.id];  // Copy.
    const uint8_t arity = view.arity();
    std::sort(rows.begin(), rows.end(),
              [arity](const std::vector<char>& a, const std::vector<char>& b) {
                return ViewRecordCompare(a.data(), b.data(), arity) < 0;
              });
    std::vector<char> flat;
    for (const auto& r : rows) flat.insert(flat.end(), r.begin(), r.end());
    return std::unique_ptr<RecordStream>(new MemoryRecordStream(
        std::move(flat), ViewRecordBytes(arity)));
  }

 private:
  std::map<uint32_t, std::vector<std::vector<char>>> data_;
};

class ForestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTestDir("forest");
    pool_ = std::make_unique<BufferPool>(256);
  }

  Result<std::unique_ptr<CubetreeForest>> MakeForest() {
    CubetreeForest::Options options;
    options.dir = dir_;
    options.name = "f" + std::to_string(++count_);
    return CubetreeForest::Create(options, pool_.get());
  }

  std::string dir_;
  std::unique_ptr<BufferPool> pool_;
  int count_ = 0;
};

TEST_F(ForestTest, BuildQueryPaperViews) {
  // The paper's running example: V1{partkey,suppkey}, V2{suppkey,custkey},
  // V3{partkey} and the none view.
  std::vector<ViewDef> views = {
      MakeView(1, {0, 1}),
      MakeView(2, {1, 2}),
      MakeView(3, {0}),
      MakeView(4, {}),
  };
  VectorViewProvider provider;
  int64_t total = 0;
  for (uint32_t p = 1; p <= 20; ++p) {
    for (uint32_t s = 1; s <= 5; ++s) {
      provider.Add(views[0], {p, s}, AggValue{int64_t(p * 100 + s), 1});
    }
  }
  for (uint32_t s = 1; s <= 5; ++s) {
    for (uint32_t c = 1; c <= 8; ++c) {
      provider.Add(views[1], {s, c}, AggValue{int64_t(s * 10 + c), 1});
    }
  }
  for (uint32_t p = 1; p <= 20; ++p) {
    provider.Add(views[2], {p}, AggValue{int64_t(p), 1});
    total += p;
  }
  provider.Add(views[3], {}, AggValue{total, 20});

  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &provider));
  // V1 and V2 have the same arity: they must land in different trees.
  const ForestSnapshot snap = forest->AcquireSnapshot();
  EXPECT_EQ(snap.num_trees(), 2u);
  EXPECT_NE(forest->plan().view_to_tree.at(1),
            forest->plan().view_to_tree.at(2));
  EXPECT_EQ(snap.TotalPoints(), 100u + 40u + 20u + 1u);

  // Slice on V1: partkey free, suppkey = 3 (the paper's Q1 shape).
  ASSERT_OK_AND_ASSIGN(Cubetree * tree, snap.TreeForView(1));
  std::vector<std::pair<Coord, int64_t>> hits;
  ASSERT_OK(tree->QuerySlice(
      1, {std::nullopt, Coord{3}},
      [&](const Coord* coords, const AggValue& agg) {
        hits.push_back({coords[0], agg.sum});
      }));
  ASSERT_EQ(hits.size(), 20u);
  for (const auto& [p, sum] : hits) {
    EXPECT_EQ(sum, int64_t(p * 100 + 3));
  }

  // The none view is the origin point.
  ASSERT_OK_AND_ASSIGN(Cubetree * tree_none, snap.TreeForView(4));
  int none_hits = 0;
  ASSERT_OK(tree_none->QuerySlice(
      4, {},
      [&](const Coord*, const AggValue& agg) {
        EXPECT_EQ(agg.sum, total);
        EXPECT_EQ(agg.count, 20u);
        ++none_hits;
      }));
  EXPECT_EQ(none_hits, 1);
}

TEST_F(ForestTest, SliceRectValidation) {
  std::vector<ViewDef> views = {MakeView(1, {0, 1})};
  VectorViewProvider provider;
  provider.Add(views[0], {1, 1}, AggValue{1, 1});
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &provider));
  const ForestSnapshot snap = forest->AcquireSnapshot();
  ASSERT_OK_AND_ASSIGN(Cubetree * tree, snap.TreeForView(1));
  // Wrong binding arity.
  EXPECT_FALSE(tree->SliceRect(1, {std::nullopt}).ok());
  // Unknown view.
  EXPECT_FALSE(tree->SliceRect(99, {}).ok());
  ASSERT_OK_AND_ASSIGN(Rect rect,
                       tree->SliceRect(1, {Coord{5}, std::nullopt}));
  EXPECT_EQ(rect.lo[0], 5u);
  EXPECT_EQ(rect.hi[0], 5u);
  EXPECT_EQ(rect.lo[1], 1u);  // Open dims exclude 0.
  EXPECT_EQ(rect.hi[1], kCoordMax);
}

TEST_F(ForestTest, TreeForUnknownViewFails) {
  std::vector<ViewDef> views = {MakeView(1, {0})};
  VectorViewProvider provider;
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &provider));
  EXPECT_FALSE(forest->AcquireSnapshot().TreeForView(42).ok());
}

TEST_F(ForestTest, DuplicateViewIdRejected) {
  std::vector<ViewDef> views = {MakeView(1, {0}), MakeView(1, {1})};
  VectorViewProvider provider;
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  EXPECT_FALSE(forest->Build(views, &provider).ok());
}

// --- Merge-pack ----------------------------------------------------------

TEST(MergePointSourceTest, MergesAndCombines) {
  std::vector<PointRecord> a_points, b_points;
  auto mk = [](uint32_t x, uint32_t y, int64_t sum) {
    PointRecord rec;
    rec.view_id = 1;
    rec.coords[0] = x;
    rec.coords[1] = y;
    rec.agg = AggValue{sum, 1};
    return rec;
  };
  a_points = {mk(1, 1, 10), mk(3, 1, 30), mk(1, 2, 100)};
  b_points = {mk(2, 1, 20), mk(3, 1, 5), mk(5, 3, 50)};
  VectorPointSource a(a_points), b(b_points);
  MergePointSource merged(&a, &b, 2);
  std::vector<PointRecord> out;
  while (true) {
    const PointRecord* rec = nullptr;
    ASSERT_OK(merged.Next(&rec));
    if (rec == nullptr) break;
    out.push_back(*rec);
  }
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].coords[0], 1u);
  EXPECT_EQ(out[1].coords[0], 2u);
  EXPECT_EQ(out[2].coords[0], 3u);
  EXPECT_EQ(out[2].agg.sum, 35);   // Combined.
  EXPECT_EQ(out[2].agg.count, 2u);
  EXPECT_EQ(out[3].coords[1], 2u);
  EXPECT_EQ(out[4].coords[1], 3u);
}

TEST(MergePointSourceTest, EmptySides) {
  std::vector<PointRecord> points(1);
  points[0].view_id = 1;
  points[0].coords[0] = 7;
  {
    VectorPointSource a(points), b({});
    MergePointSource merged(&a, &b, 1);
    const PointRecord* rec = nullptr;
    ASSERT_OK(merged.Next(&rec));
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->coords[0], 7u);
    ASSERT_OK(merged.Next(&rec));
    EXPECT_EQ(rec, nullptr);
  }
  {
    VectorPointSource a({}), b({});
    MergePointSource merged(&a, &b, 1);
    const PointRecord* rec = nullptr;
    ASSERT_OK(merged.Next(&rec));
    EXPECT_EQ(rec, nullptr);
  }
}

// Two equal points whose counts sum past 2^32: merge-pack must fail with a
// typed error naming the view, not pack a wrapped count.
TEST(MergePackTest, CountOverflowIsAnErrorNamingTheView) {
  const std::string dir = MakeTestDir("mergepack_overflow");
  BufferPool pool(16);
  RTreeOptions options;
  options.dims = 2;
  const auto arity = [](uint32_t) { return uint8_t{2}; };
  PointRecord point;
  point.view_id = 4;
  point.coords[0] = 3;
  point.coords[1] = 5;
  point.agg = AggValue{1, UINT32_MAX};
  VectorPointSource base({point});
  ASSERT_OK_AND_ASSIGN(auto tree, PackedRTree::Build(dir + "/old.ctr", options,
                                                     &pool, &base, arity));
  point.agg = AggValue{1, 1};
  VectorPointSource delta({point});
  const auto merged =
      MergePack(tree.get(), &delta, dir + "/new.ctr", options, &pool, arity);
  ASSERT_FALSE(merged.ok());
  EXPECT_TRUE(merged.status().IsInvalidArgument())
      << merged.status().ToString();
  EXPECT_NE(merged.status().ToString().find("view 4"), std::string::npos)
      << merged.status().ToString();
}

TEST_F(ForestTest, ApplyDeltaMergePacks) {
  std::vector<ViewDef> views = {MakeView(1, {0, 1}), MakeView(2, {0})};
  VectorViewProvider base;
  for (uint32_t p = 1; p <= 50; ++p) {
    for (uint32_t s = 1; s <= 4; ++s) {
      base.Add(views[0], {p, s}, AggValue{int64_t(p), 1});
    }
    base.Add(views[1], {p}, AggValue{int64_t(4 * p), 4});
  }
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &base));
  const uint64_t points_before = forest->AcquireSnapshot().TotalPoints();

  // Delta: updates to existing groups (p <= 50) and brand-new groups.
  VectorViewProvider delta;
  delta.Add(views[0], {10, 1}, AggValue{1000, 1});
  delta.Add(views[0], {60, 1}, AggValue{600, 1});
  delta.Add(views[1], {10}, AggValue{1000, 1});
  delta.Add(views[1], {60}, AggValue{600, 1});
  ASSERT_OK(forest->ApplyDelta(&delta));
  const ForestSnapshot snap = forest->AcquireSnapshot();
  EXPECT_EQ(snap.TotalPoints(), points_before + 2);

  // Existing group merged.
  ASSERT_OK_AND_ASSIGN(Cubetree * tree, snap.TreeForView(1));
  int64_t sum = 0;
  ASSERT_OK(tree->QuerySlice(1, {Coord{10}, Coord{1}},
                             [&](const Coord*, const AggValue& agg) {
                               sum = agg.sum;
                             }));
  EXPECT_EQ(sum, 10 + 1000);
  // New group present.
  int found = 0;
  ASSERT_OK(tree->QuerySlice(1, {Coord{60}, Coord{1}},
                             [&](const Coord*, const AggValue& agg) {
                               EXPECT_EQ(agg.sum, 600);
                               ++found;
                             }));
  EXPECT_EQ(found, 1);
  // Untouched group unchanged.
  ASSERT_OK(tree->QuerySlice(1, {Coord{20}, Coord{2}},
                             [&](const Coord*, const AggValue& agg) {
                               EXPECT_EQ(agg.sum, 20);
                             }));
}

TEST_F(ForestTest, RepeatedDeltasAccumulate) {
  std::vector<ViewDef> views = {MakeView(1, {0})};
  VectorViewProvider base;
  base.Add(views[0], {1}, AggValue{1, 1});
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &base));
  for (int i = 0; i < 5; ++i) {
    VectorViewProvider delta;
    delta.Add(views[0], {1}, AggValue{10, 1});
    ASSERT_OK(forest->ApplyDelta(&delta));
  }
  const ForestSnapshot snap = forest->AcquireSnapshot();
  ASSERT_OK_AND_ASSIGN(Cubetree * tree, snap.TreeForView(1));
  int64_t sum = 0;
  uint32_t count = 0;
  ASSERT_OK(tree->QuerySlice(1, {Coord{1}},
                             [&](const Coord*, const AggValue& agg) {
                               sum = agg.sum;
                               count = agg.count;
                             }));
  EXPECT_EQ(sum, 51);
  EXPECT_EQ(count, 6u);
  EXPECT_EQ(snap.TotalPoints(), 1u);
}

TEST_F(ForestTest, PartialDeltasAnswerLikeMergedDeltas) {
  std::vector<ViewDef> views = {MakeView(1, {0, 1}), MakeView(2, {0})};
  auto make_base = [&](VectorViewProvider* p) {
    for (uint32_t x = 1; x <= 80; ++x) {
      p->Add(views[0], {x, x % 4 + 1}, AggValue{int64_t(x), 1});
      p->Add(views[1], {x}, AggValue{int64_t(x), 1});
    }
  };
  auto make_delta = [&](VectorViewProvider* p, uint32_t shift) {
    p->Add(views[0], {10 + shift, 1}, AggValue{100, 1});
    p->Add(views[0], {200 + shift, 2}, AggValue{7, 1});
    p->Add(views[1], {10 + shift}, AggValue{100, 1});
  };

  // Forest A: two partial (delta-tree) refreshes.
  CubetreeForest::Options options_a;
  options_a.dir = dir_;
  options_a.name = "partial";
  ASSERT_OK_AND_ASSIGN(auto partial,
                       CubetreeForest::Create(options_a, pool_.get()));
  VectorViewProvider base_a;
  make_base(&base_a);
  ASSERT_OK(partial->Build(views, &base_a));
  for (uint32_t k = 0; k < 2; ++k) {
    VectorViewProvider delta;
    make_delta(&delta, k);
    ASSERT_OK(partial->ApplyDeltaPartial(&delta));
  }
  EXPECT_GT(partial->AcquireSnapshot().TotalDeltas(), 0u);

  // Forest B: same increments via full merge-packs.
  CubetreeForest::Options options_b;
  options_b.dir = dir_;
  options_b.name = "merged";
  ASSERT_OK_AND_ASSIGN(auto merged,
                       CubetreeForest::Create(options_b, pool_.get()));
  VectorViewProvider base_b;
  make_base(&base_b);
  ASSERT_OK(merged->Build(views, &base_b));
  for (uint32_t k = 0; k < 2; ++k) {
    VectorViewProvider delta;
    make_delta(&delta, k);
    ASSERT_OK(merged->ApplyDelta(&delta));
  }

  // Both forests must agree on every group of both views (the partial
  // forest emits per-tree, so aggregate across emissions).
  auto collect = [&](CubetreeForest* forest, uint32_t view_id,
                     uint8_t arity) {
    std::map<std::vector<Coord>, AggValue> out;
    const ForestSnapshot snap = forest->AcquireSnapshot();
    auto tree_result = snap.TreeForView(view_id);
    EXPECT_TRUE(tree_result.ok());
    std::vector<std::optional<Coord>> open(arity, std::nullopt);
    EXPECT_OK((*tree_result)
                  ->QuerySlice(view_id, open,
                               [&](const Coord* coords,
                                   const AggValue& agg) {
                                 out[std::vector<Coord>(coords,
                                                        coords + arity)]
                                     .Merge(agg);
                               }));
    return out;
  };
  for (const ViewDef& view : views) {
    auto a = collect(partial.get(), view.id, view.arity());
    auto b = collect(merged.get(), view.id, view.arity());
    ASSERT_EQ(a, b) << "view " << view.id;
  }

  // Compaction folds the deltas away and preserves the answers.
  auto before = collect(partial.get(), 1, 2);
  ASSERT_OK(partial->Compact());
  const ForestSnapshot compacted = partial->AcquireSnapshot();
  EXPECT_EQ(compacted.TotalDeltas(), 0u);
  auto after = collect(partial.get(), 1, 2);
  EXPECT_EQ(before, after);
  for (size_t t = 0; t < compacted.num_trees(); ++t) {
    EXPECT_OK(compacted.tree(t)->rtree()->Validate());
  }
}

// Regression: Compact() used to read the tree list before taking the
// refresh lock. The unlocked pre-check is gone; the not-built error must
// still surface through the refresh transaction's locked check.
TEST_F(ForestTest, CompactBeforeBuildFails) {
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  Status status = forest->Compact();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST_F(ForestTest, PartialDeltasSurviveReopen) {
  std::vector<ViewDef> views = {MakeView(1, {0})};
  CubetreeForest::Options options;
  options.dir = dir_;
  options.name = "persist_delta";
  {
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Create(options, pool_.get()));
    VectorViewProvider base;
    base.Add(views[0], {1}, AggValue{5, 1});
    ASSERT_OK(forest->Build(views, &base));
    VectorViewProvider delta;
    delta.Add(views[0], {1}, AggValue{10, 1});
    delta.Add(views[0], {2}, AggValue{20, 1});
    ASSERT_OK(forest->ApplyDeltaPartial(&delta));
  }
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Open(options, pool_.get()));
  const ForestSnapshot snap = forest->AcquireSnapshot();
  EXPECT_EQ(snap.TotalDeltas(), 1u);
  ASSERT_OK_AND_ASSIGN(Cubetree * tree, snap.TreeForView(1));
  std::map<Coord, AggValue> got;
  ASSERT_OK(tree->QuerySlice(1, {std::nullopt},
                             [&](const Coord* coords, const AggValue& agg) {
                               got[coords[0]].Merge(agg);
                             }));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], (AggValue{15, 2}));
  EXPECT_EQ(got[2], (AggValue{20, 1}));
}

TEST_F(ForestTest, DeltaBeforeBuildFails) {
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  VectorViewProvider delta;
  EXPECT_FALSE(forest->ApplyDelta(&delta).ok());
}

TEST_F(ForestTest, ReopenFromManifest) {
  std::vector<ViewDef> views = {MakeView(1, {0, 1}), MakeView(2, {0}),
                                MakeView(3, {})};
  CubetreeForest::Options options;
  options.dir = dir_;
  options.name = "persist";
  VectorViewProvider base;
  for (uint32_t p = 1; p <= 100; ++p) {
    base.Add(views[0], {p, p % 5 + 1}, AggValue{int64_t(p), 1});
    base.Add(views[1], {p}, AggValue{int64_t(p), 1});
  }
  base.Add(views[2], {}, AggValue{5050, 100});
  {
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Create(options, pool_.get()));
    ASSERT_OK(forest->Build(views, &base));
  }  // Forest object gone; only the files and the manifest remain.

  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Open(options, pool_.get()));
  EXPECT_EQ(forest->views().size(), 3u);
  const ForestSnapshot snap = forest->AcquireSnapshot();
  EXPECT_EQ(snap.TotalPoints(), 201u);
  ASSERT_OK_AND_ASSIGN(Cubetree * tree, snap.TreeForView(1));
  int64_t sum = -1;
  ASSERT_OK(tree->QuerySlice(1, {Coord{42}, Coord{3}},
                             [&](const Coord*, const AggValue& agg) {
                               sum = agg.sum;
                             }));
  EXPECT_EQ(sum, 42);
  ASSERT_OK(tree->rtree()->Validate());

  // Updates persist across another reopen, and generations advance.
  VectorViewProvider delta;
  delta.Add(views[1], {42}, AggValue{1000, 1});
  delta.Add(views[0], {42, 3}, AggValue{1000, 1});
  delta.Add(views[2], {}, AggValue{2000, 2});
  ASSERT_OK(forest->ApplyDelta(&delta));
  {
    ASSERT_OK_AND_ASSIGN(auto reopened,
                         CubetreeForest::Open(options, pool_.get()));
    const ForestSnapshot snap2 = reopened->AcquireSnapshot();
    ASSERT_OK_AND_ASSIGN(Cubetree * t2, snap2.TreeForView(1));
    int64_t sum2 = -1;
    ASSERT_OK(t2->QuerySlice(1, {Coord{42}, Coord{3}},
                             [&](const Coord*, const AggValue& agg) {
                               sum2 = agg.sum;
                             }));
    EXPECT_EQ(sum2, 1042);
  }
}

TEST_F(ForestTest, CorruptManifestRejected) {
  std::vector<ViewDef> views = {MakeView(1, {0})};
  CubetreeForest::Options options;
  options.dir = dir_;
  options.name = "corrupt";
  {
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Create(options, pool_.get()));
    VectorViewProvider base;
    base.Add(views[0], {1}, AggValue{1, 1});
    ASSERT_OK(forest->Build(views, &base));
  }
  // Truncate the manifest mid-line.
  const std::string path = dir_ + "/corrupt.manifest";
  ASSERT_EQ(truncate(path.c_str(), 40), 0);
  auto result = CubetreeForest::Open(options, pool_.get());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption())
      << result.status().ToString();
}

TEST_F(ForestTest, BoxRectClampsZeroLowerBound) {
  std::vector<ViewDef> views = {MakeView(1, {0, 1})};
  VectorViewProvider base;
  base.Add(views[0], {1, 1}, AggValue{1, 1});
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &base));
  const ForestSnapshot snap = forest->AcquireSnapshot();
  ASSERT_OK_AND_ASSIGN(Cubetree * tree, snap.TreeForView(1));
  // A caller-provided interval starting at 0 must still exclude the zero
  // plane (it belongs to lower-arity views).
  ASSERT_OK_AND_ASSIGN(Rect rect, tree->BoxRect(1, {{0, 10}, {0, 5}}));
  EXPECT_EQ(rect.lo[0], 1u);
  EXPECT_EQ(rect.lo[1], 1u);
  EXPECT_EQ(rect.hi[0], 10u);
}

TEST_F(ForestTest, OpenWithoutManifestFails) {
  CubetreeForest::Options options;
  options.dir = dir_;
  options.name = "missing";
  EXPECT_TRUE(CubetreeForest::Open(options, pool_.get())
                  .status()
                  .IsNotFound());
}

TEST_F(ForestTest, StorageAccounting) {
  std::vector<ViewDef> views = {MakeView(1, {0, 1})};
  VectorViewProvider base;
  for (uint32_t p = 1; p <= 2000; ++p) {
    base.Add(views[0], {p, p % 7 + 1}, AggValue{1, 1});
  }
  ASSERT_OK_AND_ASSIGN(auto forest, MakeForest());
  ASSERT_OK(forest->Build(views, &base));
  EXPECT_GT(forest->AcquireSnapshot().TotalSizeBytes(), 0u);
  // Destroy removes all files and unpublishes the forest.
  ASSERT_OK(forest->Destroy());
  EXPECT_FALSE(forest->AcquireSnapshot().valid());
  EXPECT_TRUE(forest->LiveFiles().empty());
}

}  // namespace
}  // namespace cubetree
