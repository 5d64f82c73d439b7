#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "obs/query_profile.h"
#include "rtree/geometry.h"
#include "rtree/node.h"
#include "rtree/packed_rtree.h"
#include "rtree/zorder.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

TEST(GeometryTest, RectContainsPoint) {
  Rect r;
  r.lo[0] = 2;
  r.hi[0] = 5;
  r.lo[1] = 1;
  r.hi[1] = 1;
  Coord inside[2] = {3, 1};
  Coord outside[2] = {3, 2};
  Coord edge[2] = {5, 1};
  EXPECT_TRUE(r.ContainsPoint(inside, 2));
  EXPECT_FALSE(r.ContainsPoint(outside, 2));
  EXPECT_TRUE(r.ContainsPoint(edge, 2));
}

TEST(GeometryTest, RectIntersects) {
  Rect a = Rect::Full(2);
  Rect b;
  b.lo[0] = 5;
  b.hi[0] = 6;
  b.lo[1] = 5;
  b.hi[1] = 6;
  EXPECT_TRUE(a.Intersects(b, 2));
  Rect c;
  c.lo[0] = 7;
  c.hi[0] = 8;
  c.lo[1] = 5;
  c.hi[1] = 6;
  EXPECT_FALSE(b.Intersects(c, 2));
  // Touching edges count as intersecting.
  Rect d;
  d.lo[0] = 6;
  d.hi[0] = 9;
  d.lo[1] = 6;
  d.hi[1] = 9;
  EXPECT_TRUE(b.Intersects(d, 2));
}

TEST(GeometryTest, ExpandToPointAndRect) {
  Coord p[2] = {4, 7};
  Rect r = Rect::FromPoint(p, 2);
  Coord q[2] = {2, 9};
  r.ExpandToPoint(q, 2);
  EXPECT_EQ(r.lo[0], 2u);
  EXPECT_EQ(r.hi[0], 4u);
  EXPECT_EQ(r.lo[1], 7u);
  EXPECT_EQ(r.hi[1], 9u);
  Rect other = Rect::FromPoint(p, 2);
  other.lo[0] = 1;
  other.hi[1] = 20;
  r.ExpandToRect(other, 2);
  EXPECT_EQ(r.lo[0], 1u);
  EXPECT_EQ(r.hi[1], 20u);
}

TEST(GeometryTest, PackOrderComparesLastDimensionFirst) {
  // The paper: R{x,y} sorts points in (y, x) order.
  Coord a[2] = {9, 1};
  Coord b[2] = {1, 2};
  EXPECT_LT(PackOrderCompare(a, b, 2), 0);  // y=1 < y=2 despite x bigger.
  Coord c[2] = {1, 1};
  EXPECT_GT(PackOrderCompare(a, c, 2), 0);  // Same y, compare x.
  EXPECT_EQ(PackOrderCompare(a, a, 2), 0);
}

TEST(GeometryTest, LowerArityViewsSortBeforeHigherArity) {
  // A view of arity 1 (coords {v,0,0}) must precede arity-2 ({a,b,0})
  // and arity-3 points in a 3-d tree, for any values.
  Coord arity1[3] = {4000, 0, 0};
  Coord arity2[3] = {1, 1, 0};
  Coord arity3[3] = {1, 1, 1};
  Coord origin[3] = {0, 0, 0};
  EXPECT_LT(PackOrderCompare(origin, arity1, 3), 0);
  EXPECT_LT(PackOrderCompare(arity1, arity2, 3), 0);
  EXPECT_LT(PackOrderCompare(arity2, arity3, 3), 0);
}

TEST(GeometryTest, AggValueMergeAndAvg) {
  AggValue a{10, 2};
  a.Merge(AggValue{5, 1});
  EXPECT_EQ(a.sum, 15);
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.Avg(), 5.0);
  EXPECT_DOUBLE_EQ(AggValue{}.Avg(), 0.0);
}

TEST(NodeLayoutTest, LeafEntryRoundTrip) {
  char buf[64];
  Coord coords[3] = {7, 8, 9};
  AggValue agg{-123456789, 42};
  RLeafWriteEntry(buf, coords, 3, agg);
  PointRecord rec;
  RLeafReadEntry(buf, 3, 17, &rec);
  EXPECT_EQ(rec.view_id, 17u);
  EXPECT_EQ(rec.coords[0], 7u);
  EXPECT_EQ(rec.coords[2], 9u);
  EXPECT_EQ(rec.coords[3], 0u);  // Suppressed dims decode to zero.
  EXPECT_EQ(rec.agg.sum, -123456789);
  EXPECT_EQ(rec.agg.count, 42u);
}

TEST(NodeLayoutTest, CompressionShrinksLeafEntries) {
  // An arity-1 entry stores 1 coordinate instead of dims coordinates.
  EXPECT_EQ(RLeafEntryBytes(1), 4u + kAggValueBytes);
  EXPECT_EQ(RLeafEntryBytes(3), 12u + kAggValueBytes);
  EXPECT_GT(RLeafCapacity(1), RLeafCapacity(3));
}

TEST(NodeLayoutTest, InternalEntryRoundTrip) {
  char buf[128];
  Rect mbr;
  for (size_t i = 0; i < 3; ++i) {
    mbr.lo[i] = static_cast<Coord>(i + 1);
    mbr.hi[i] = static_cast<Coord>(10 * (i + 1));
  }
  RInternalWriteEntry(buf, mbr, 3, 77);
  Rect out;
  PageId child;
  RInternalReadEntry(buf, 3, &out, &child);
  EXPECT_EQ(child, 77u);
  EXPECT_EQ(out.lo[1], 2u);
  EXPECT_EQ(out.hi[2], 30u);
}

TEST(ZOrderTest, MatchesExplicitMortonKey) {
  // For small coordinates, compare against an explicitly interleaved key.
  auto morton = [](Coord x, Coord y, Coord z) {
    uint64_t key = 0;
    for (int bit = 15; bit >= 0; --bit) {
      key = (key << 3) | (((z >> bit) & 1) << 2) | (((y >> bit) & 1) << 1) |
            ((x >> bit) & 1);
    }
    return key;
  };
  Rng rng(55);
  for (int i = 0; i < 5000; ++i) {
    Coord a[3] = {static_cast<Coord>(rng.Uniform(1 << 16)),
                  static_cast<Coord>(rng.Uniform(1 << 16)),
                  static_cast<Coord>(rng.Uniform(1 << 16))};
    Coord b[3] = {static_cast<Coord>(rng.Uniform(1 << 16)),
                  static_cast<Coord>(rng.Uniform(1 << 16)),
                  static_cast<Coord>(rng.Uniform(1 << 16))};
    const uint64_t ka = morton(a[0], a[1], a[2]);
    const uint64_t kb = morton(b[0], b[1], b[2]);
    const int expected = ka < kb ? -1 : (ka > kb ? 1 : 0);
    ASSERT_EQ(ZOrderCompare(a, b, 3), expected) << i;
    ASSERT_EQ(ZOrderCompare(b, a, 3), -expected);
  }
}

TEST(ZOrderTest, OneDimensionIsPlainOrder) {
  Coord a[1] = {5}, b[1] = {9};
  EXPECT_LT(ZOrderCompare(a, b, 1), 0);
  EXPECT_EQ(ZOrderCompare(a, a, 1), 0);
}

class PackedRTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTestDir("rtree");
    pool_ = std::make_unique<BufferPool>(256);
  }

  /// Builds a tree holding `n` arity-2 points (i, i%97+1) of view 1.
  std::vector<PointRecord> MakeGridPoints(uint32_t n) {
    std::vector<PointRecord> points;
    for (uint32_t i = 1; i <= n; ++i) {
      PointRecord rec;
      rec.view_id = 1;
      rec.coords[0] = i;
      rec.coords[1] = i % 97 + 1;
      rec.agg = AggValue{static_cast<int64_t>(i) * 2, 1};
      points.push_back(rec);
    }
    std::sort(points.begin(), points.end(),
              [](const PointRecord& a, const PointRecord& b) {
                return PackOrderCompare(a.coords, b.coords, 2) < 0;
              });
    return points;
  }

  Result<std::unique_ptr<PackedRTree>> Build(
      std::vector<PointRecord> points, uint8_t dims,
      std::function<uint8_t(uint32_t)> arity,
      RTreeOptions options = RTreeOptions{}) {
    options.dims = dims;
    VectorPointSource source(std::move(points));
    return PackedRTree::Build(dir_ + "/t" + std::to_string(++count_) +
                                  ".ctr",
                              options, pool_.get(), &source, arity);
  }

  std::string dir_;
  std::unique_ptr<BufferPool> pool_;
  int count_ = 0;
};

TEST_F(PackedRTreeTest, BuildAndFullSearch) {
  auto points = MakeGridPoints(5000);
  ASSERT_OK_AND_ASSIGN(auto tree,
                       Build(points, 2, [](uint32_t) { return 2; }));
  EXPECT_EQ(tree->num_points(), 5000u);
  EXPECT_GE(tree->height(), 2u);

  uint64_t found = 0;
  int64_t total = 0;
  ASSERT_OK(tree->Search(Rect::Full(2), [&](const PointRecord& rec) {
    ++found;
    total += rec.agg.sum;
  }));
  EXPECT_EQ(found, 5000u);
  EXPECT_EQ(total, 2ll * 5000 * 5001 / 2);
}

TEST_F(PackedRTreeTest, RangeSearchExact) {
  auto points = MakeGridPoints(5000);
  ASSERT_OK_AND_ASSIGN(auto tree,
                       Build(points, 2, [](uint32_t) { return 2; }));
  Rect query;
  query.lo[0] = 100;
  query.hi[0] = 200;
  query.lo[1] = 1;
  query.hi[1] = 50;
  uint64_t expected = 0;
  for (const PointRecord& rec : points) {
    if (query.ContainsPoint(rec.coords, 2)) ++expected;
  }
  uint64_t found = 0;
  ASSERT_OK(tree->Search(query, [&](const PointRecord& rec) {
    ASSERT_TRUE(query.ContainsPoint(rec.coords, 2));
    ++found;
  }));
  EXPECT_EQ(found, expected);
  EXPECT_GT(found, 0u);
}

TEST_F(PackedRTreeTest, SearchPrunesLeaves) {
  auto points = MakeGridPoints(50000);
  ASSERT_OK_AND_ASSIGN(auto tree,
                       Build(points, 2, [](uint32_t) { return 2; }));
  // A slice on the most-significant sort dimension touches few leaves.
  Rect query = Rect::Full(2);
  query.lo[1] = 7;
  query.hi[1] = 7;
  obs::QueryProfile profile;
  uint64_t found = 0;
  {
    obs::QueryProfile::Scope scope(&profile);
    ASSERT_OK(tree->Search(query, [&](const PointRecord&) { ++found; }));
  }
  EXPECT_GT(found, 0u);
  EXPECT_LT(profile.leaf_pages, tree->num_leaf_pages() / 10)
      << "slice should touch a small fraction of " << tree->num_leaf_pages()
      << " leaves";
}

TEST_F(PackedRTreeTest, RejectsUnsortedInput) {
  auto points = MakeGridPoints(100);
  std::swap(points[10], points[50]);
  EXPECT_FALSE(Build(points, 2, [](uint32_t) { return 2; }).ok());
}

// A compressed leaf stores only its view's arity coordinates, so Build must
// refuse a point it could only store truncated: such a tree would still
// validate, yet a box on the dropped coordinate would find none of the
// points.
TEST_F(PackedRTreeTest, RejectsPointsItsLeavesWouldTruncate) {
  std::vector<PointRecord> points;
  for (Coord i = 1; i <= 5; ++i) {
    PointRecord rec;
    rec.view_id = 9;
    rec.coords[0] = i;
    rec.coords[1] = 7;
    points.push_back(rec);
  }
  auto built = Build(points, 2, [](uint32_t view) -> uint8_t {
    return view == 9 ? 1 : 2;
  });
  ASSERT_FALSE(built.ok()) << "the y = 7 coordinate would be dropped";
  EXPECT_TRUE(built.status().IsInvalidArgument()) << built.status().ToString();
  EXPECT_NE(built.status().message().find("view 9"), std::string::npos)
      << built.status().ToString();
  EXPECT_NE(built.status().message().find("coordinate 1"), std::string::npos)
      << built.status().ToString();

  // A view the arity callback does not know reads as arity 0, so its
  // points would lose every coordinate.
  auto unknown = Build(points, 2, [](uint32_t) -> uint8_t { return 0; });
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsInvalidArgument());
  EXPECT_NE(unknown.status().message().find("coordinate 0"),
            std::string::npos)
      << unknown.status().ToString();

  // Uncompressed leaves store every coordinate, so nothing is dropped.
  RTreeOptions uncompressed;
  uncompressed.compress_leaves = false;
  ASSERT_OK_AND_ASSIGN(
      auto full, Build(points, 2, [](uint32_t) -> uint8_t { return 1; },
                       uncompressed));
  ASSERT_OK(full->Validate());
  Rect y7 = Rect::Full(2);
  y7.lo[1] = y7.hi[1] = 7;
  uint64_t found = 0;
  ASSERT_OK(full->Search(y7, [&](const PointRecord&) { ++found; }));
  EXPECT_EQ(found, 5u);
}

TEST_F(PackedRTreeTest, RejectsViewArityAboveDims) {
  std::vector<PointRecord> points(1);
  points[0].view_id = 4;
  points[0].coords[0] = 1;
  auto built = Build(points, 2, [](uint32_t) -> uint8_t { return 3; });
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsInvalidArgument()) << built.status().ToString();
  EXPECT_NE(built.status().message().find("view 4"), std::string::npos)
      << built.status().ToString();
}

TEST_F(PackedRTreeTest, EmptyTree) {
  ASSERT_OK_AND_ASSIGN(auto tree,
                       Build({}, 3, [](uint32_t) { return 3; }));
  EXPECT_EQ(tree->num_points(), 0u);
  uint64_t found = 0;
  ASSERT_OK(tree->Search(Rect::Full(3),
                         [&](const PointRecord&) { ++found; }));
  EXPECT_EQ(found, 0u);
  auto scanner = tree->ScanAll();
  const PointRecord* rec = nullptr;
  ASSERT_OK(scanner.Next(&rec));
  EXPECT_EQ(rec, nullptr);
}

TEST_F(PackedRTreeTest, ScanAllReturnsPackOrder) {
  auto points = MakeGridPoints(3000);
  ASSERT_OK_AND_ASSIGN(auto tree,
                       Build(points, 2, [](uint32_t) { return 2; }));
  auto scanner = tree->ScanAll();
  size_t i = 0;
  while (true) {
    const PointRecord* rec = nullptr;
    ASSERT_OK(scanner.Next(&rec));
    if (rec == nullptr) break;
    ASSERT_LT(i, points.size());
    ASSERT_EQ(rec->coords[0], points[i].coords[0]);
    ASSERT_EQ(rec->coords[1], points[i].coords[1]);
    ASSERT_EQ(rec->agg, points[i].agg);
    ++i;
  }
  EXPECT_EQ(i, points.size());
}

TEST_F(PackedRTreeTest, MultiViewTreeSeparatesViews) {
  // Views: 10 (arity 0), 11 (arity 1), 12 (arity 2) in one 2-d tree.
  std::vector<PointRecord> points;
  PointRecord origin;
  origin.view_id = 10;
  origin.agg = AggValue{1000, 100};
  points.push_back(origin);
  for (uint32_t i = 1; i <= 500; ++i) {
    PointRecord rec;
    rec.view_id = 11;
    rec.coords[0] = i;
    rec.agg = AggValue{static_cast<int64_t>(i), 1};
    points.push_back(rec);
  }
  for (uint32_t y = 1; y <= 40; ++y) {
    for (uint32_t x = 1; x <= 40; ++x) {
      PointRecord rec;
      rec.view_id = 12;
      rec.coords[0] = x;
      rec.coords[1] = y;
      rec.agg = AggValue{static_cast<int64_t>(x * y), 1};
      points.push_back(rec);
    }
  }
  auto arity = [](uint32_t view) -> uint8_t {
    return static_cast<uint8_t>(view - 10);
  };
  ASSERT_OK_AND_ASSIGN(auto tree, Build(points, 2, arity));
  EXPECT_EQ(tree->num_points(), 1u + 500u + 1600u);

  // Query the arity-1 view region only: y pinned to 0, x in [1, max].
  Rect q1;
  q1.lo[0] = 1;
  q1.hi[0] = kCoordMax;
  q1.lo[1] = 0;
  q1.hi[1] = 0;
  uint64_t count11 = 0;
  ASSERT_OK(tree->Search(q1, [&](const PointRecord& rec) {
    ASSERT_EQ(rec.view_id, 11u);
    ++count11;
  }));
  EXPECT_EQ(count11, 500u);

  // Origin query returns only the arity-0 super-aggregate.
  Rect q0;
  q0.lo[0] = q0.hi[0] = 0;
  q0.lo[1] = q0.hi[1] = 0;
  uint64_t count10 = 0;
  ASSERT_OK(tree->Search(q0, [&](const PointRecord& rec) {
    ASSERT_EQ(rec.view_id, 10u);
    ASSERT_EQ(rec.agg.sum, 1000);
    ++count10;
  }));
  EXPECT_EQ(count10, 1u);

  // Arity-2 region: both coords >= 1.
  Rect q2;
  q2.lo[0] = q2.lo[1] = 1;
  q2.hi[0] = q2.hi[1] = kCoordMax;
  uint64_t count12 = 0;
  ASSERT_OK(tree->Search(q2, [&](const PointRecord& rec) {
    ASSERT_EQ(rec.view_id, 12u);
    ++count12;
  }));
  EXPECT_EQ(count12, 1600u);
}

TEST_F(PackedRTreeTest, LeavesAreSingleView) {
  // Verify the "no interleaving" property: every leaf page carries one
  // view id, checked via the scanner's page-at-a-time decoding implicitly
  // and by counting leaf view transitions (must equal #views - 1).
  std::vector<PointRecord> points;
  for (uint32_t i = 1; i <= 1000; ++i) {
    PointRecord rec;
    rec.view_id = 21;
    rec.coords[0] = i;
    rec.agg = AggValue{1, 1};
    points.push_back(rec);
  }
  for (uint32_t y = 1; y <= 50; ++y) {
    for (uint32_t x = 1; x <= 50; ++x) {
      PointRecord rec;
      rec.view_id = 22;
      rec.coords[0] = x;
      rec.coords[1] = y;
      rec.agg = AggValue{1, 1};
      points.push_back(rec);
    }
  }
  auto arity = [](uint32_t view) -> uint8_t {
    return view == 21 ? 1 : 2;
  };
  ASSERT_OK_AND_ASSIGN(auto tree, Build(points, 2, arity));
  auto scanner = tree->ScanAll();
  uint32_t transitions = 0;
  uint32_t last_view = 0;
  while (true) {
    const PointRecord* rec = nullptr;
    ASSERT_OK(scanner.Next(&rec));
    if (rec == nullptr) break;
    if (rec->view_id != last_view && last_view != 0) ++transitions;
    last_view = rec->view_id;
  }
  EXPECT_EQ(transitions, 1u);
}

TEST_F(PackedRTreeTest, CompressionReducesFileSize) {
  // Arity-1 view in a 3-d tree: compressed leaves store 1 coord per entry.
  std::vector<PointRecord> points;
  for (uint32_t i = 1; i <= 100000; ++i) {
    PointRecord rec;
    rec.view_id = 1;
    rec.coords[0] = i;
    rec.agg = AggValue{1, 1};
    points.push_back(rec);
  }
  RTreeOptions compressed;
  compressed.compress_leaves = true;
  ASSERT_OK_AND_ASSIGN(
      auto small, Build(points, 3, [](uint32_t) { return 1; }, compressed));
  RTreeOptions uncompressed;
  uncompressed.compress_leaves = false;
  ASSERT_OK_AND_ASSIGN(auto big, Build(points, 3,
                                       [](uint32_t) { return 1; },
                                       uncompressed));
  EXPECT_LT(small->FileSizeBytes() * 3, big->FileSizeBytes() * 2)
      << "compressed: " << small->FileSizeBytes()
      << " uncompressed: " << big->FileSizeBytes();
  // Same answers either way.
  uint64_t a = 0, b = 0;
  ASSERT_OK(small->Search(Rect::Full(3), [&](const PointRecord&) { ++a; }));
  ASSERT_OK(big->Search(Rect::Full(3), [&](const PointRecord&) { ++b; }));
  EXPECT_EQ(a, b);
}

TEST_F(PackedRTreeTest, OpenReloadsMeta) {
  auto points = MakeGridPoints(2000);
  std::string path;
  uint64_t size;
  {
    ASSERT_OK_AND_ASSIGN(auto tree,
                         Build(points, 2, [](uint32_t) { return 2; }));
    path = tree->path();
    size = tree->FileSizeBytes();
  }
  ASSERT_OK_AND_ASSIGN(auto tree, PackedRTree::Open(path, pool_.get()));
  EXPECT_EQ(tree->num_points(), 2000u);
  EXPECT_EQ(tree->dims(), 2u);
  EXPECT_EQ(tree->FileSizeBytes(), size);
  uint64_t found = 0;
  ASSERT_OK(tree->Search(Rect::Full(2), [&](const PointRecord&) { ++found; }));
  EXPECT_EQ(found, 2000u);
}

TEST_F(PackedRTreeTest, LeafFillFactorRespected) {
  auto points = MakeGridPoints(10000);
  RTreeOptions half;
  half.leaf_fill = 0.5;
  ASSERT_OK_AND_ASSIGN(auto loose,
                       Build(points, 2, [](uint32_t) { return 2; }, half));
  ASSERT_OK_AND_ASSIGN(auto packed,
                       Build(points, 2, [](uint32_t) { return 2; }));
  EXPECT_GT(loose->num_leaf_pages(), packed->num_leaf_pages() * 3 / 2);
}

TEST_F(PackedRTreeTest, ZOrderPackedTreeAnswersCorrectly) {
  // Build the same points in Z-order (enforce_pack_order off); box queries
  // must still return exactly the brute-force answer.
  auto points = MakeGridPoints(5000);
  std::vector<PointRecord> z_points = points;
  std::sort(z_points.begin(), z_points.end(),
            [](const PointRecord& a, const PointRecord& b) {
              return ZOrderCompare(a.coords, b.coords, 2) < 0;
            });
  RTreeOptions options;
  options.dims = 2;
  options.enforce_pack_order = false;
  VectorPointSource source(z_points);
  ASSERT_OK_AND_ASSIGN(
      auto tree, PackedRTree::Build(dir_ + "/z.ctr", options, pool_.get(),
                                    &source, [](uint32_t) { return 2; }));
  Rng rng(3);
  for (int q = 0; q < 25; ++q) {
    Rect query;
    Coord a = static_cast<Coord>(1 + rng.Uniform(5000));
    Coord b = static_cast<Coord>(1 + rng.Uniform(5000));
    query.lo[0] = std::min(a, b);
    query.hi[0] = std::max(a, b);
    query.lo[1] = static_cast<Coord>(1 + rng.Uniform(50));
    query.hi[1] = query.lo[1] + 20;
    uint64_t expected = 0;
    for (const PointRecord& rec : points) {
      expected += query.ContainsPoint(rec.coords, 2);
    }
    uint64_t found = 0;
    ASSERT_OK(tree->Search(query, [&](const PointRecord&) { ++found; }));
    ASSERT_EQ(found, expected);
  }
}

TEST_F(PackedRTreeTest, ValidatePassesOnHealthyTrees) {
  auto points = MakeGridPoints(20000);
  ASSERT_OK_AND_ASSIGN(auto tree,
                       Build(points, 2, [](uint32_t) { return 2; }));
  ASSERT_OK(tree->Validate());
  // Multi-view tree validates too.
  std::vector<PointRecord> multi;
  PointRecord origin;
  origin.view_id = 5;
  multi.push_back(origin);
  for (uint32_t i = 1; i <= 300; ++i) {
    PointRecord rec;
    rec.view_id = 6;
    rec.coords[0] = i;
    multi.push_back(rec);
  }
  ASSERT_OK_AND_ASSIGN(auto multi_tree,
                       Build(multi, 3, [](uint32_t view) {
                         return static_cast<uint8_t>(view - 5);
                       }));
  ASSERT_OK(multi_tree->Validate());
  // Empty tree validates.
  ASSERT_OK_AND_ASSIGN(auto empty, Build({}, 2, [](uint32_t) { return 2; }));
  ASSERT_OK(empty->Validate());
}

TEST_F(PackedRTreeTest, ValidateDetectsCorruptedMeta) {
  auto points = MakeGridPoints(1000);
  std::string path;
  {
    ASSERT_OK_AND_ASSIGN(auto tree,
                         Build(points, 2, [](uint32_t) { return 2; }));
    path = tree->path();
  }
  // Corrupt the point count in the metadata page.
  {
    ASSERT_OK_AND_ASSIGN(auto file, PageManager::Open(path));
    Page meta;
    ASSERT_OK(file->ReadPage(0, &meta));
    EncodeFixed64(meta.data + 16, 999999);
    ASSERT_OK(file->WritePage(0, meta));
  }
  // Drop the checksum sidecar so the *structural* validator is what gets
  // exercised — with the sidecar present, verify-on-read catches the
  // tampering at Open before Validate ever runs (covered separately by the
  // integrity tests).
  ASSERT_OK(RemoveChecksumSidecar(path));
  ASSERT_OK_AND_ASSIGN(auto tree, PackedRTree::Open(path, pool_.get()));
  EXPECT_TRUE(tree->Validate().IsCorruption());
}

TEST_F(PackedRTreeTest, ValidateDetectsCorruptedLeaf) {
  auto points = MakeGridPoints(50000);
  std::string path;
  {
    ASSERT_OK_AND_ASSIGN(auto tree,
                         Build(points, 2, [](uint32_t) { return 2; }));
    path = tree->path();
  }
  // Smash a coordinate in the middle of a leaf page: either the MBR check
  // or the pack-order check must trip.
  {
    ASSERT_OK_AND_ASSIGN(auto file, PageManager::Open(path));
    Page page;
    const PageId victim = 40;
    ASSERT_OK(file->ReadPage(victim, &page));
    ASSERT_TRUE(RNodeIsLeaf(page.data));
    char* entry = page.data + kRNodeHeaderSize + 5 * RLeafEntryBytes(2);
    EncodeFixed32(entry, 0xFFFFFFF0u);
    ASSERT_OK(file->WritePage(victim, page));
  }
  // As above: remove the sidecar so structural validation, not
  // verify-on-read, detects the damage.
  ASSERT_OK(RemoveChecksumSidecar(path));
  ASSERT_OK_AND_ASSIGN(auto tree, PackedRTree::Open(path, pool_.get()));
  EXPECT_TRUE(tree->Validate().IsCorruption());
}

TEST_F(PackedRTreeTest, PointQueryFindsExactlyOne) {
  auto points = MakeGridPoints(5000);
  ASSERT_OK_AND_ASSIGN(auto tree,
                       Build(points, 2, [](uint32_t) { return 2; }));
  Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    const PointRecord& target = points[rng.Uniform(points.size())];
    Rect q = Rect::FromPoint(target.coords, 2);
    uint64_t found = 0;
    AggValue agg;
    ASSERT_OK(tree->Search(q, [&](const PointRecord& rec) {
      ++found;
      agg = rec.agg;
    }));
    ASSERT_EQ(found, 1u);
    ASSERT_EQ(agg, target.agg);
  }
}

}  // namespace
}  // namespace cubetree
