#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "olap/cube_builder.h"
#include "olap/lattice.h"
#include "olap/query_model.h"
#include "olap/selection.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

CubeSchema SmallSchema() {
  CubeSchema schema;
  schema.attr_names = {"partkey", "suppkey", "custkey"};
  schema.attr_domains = {40, 10, 25};
  return schema;
}

/// TPC-D SF=1 statistics (the paper's experiment).
CubeSchema TpcdSf1Schema() {
  CubeSchema schema;
  schema.attr_names = {"partkey", "suppkey", "custkey"};
  schema.attr_domains = {200000, 10000, 150000};
  return schema;
}

TEST(LatticeTest, EnumeratesAllNodes) {
  CubeSchema schema = SmallSchema();
  CubeLattice lattice(schema);
  EXPECT_EQ(lattice.num_nodes(), 8u);
  EXPECT_EQ(lattice.top_mask(), 0b111u);
  ASSERT_OK_AND_ASSIGN(const LatticeNode* node, lattice.NodeForMask(0b101));
  EXPECT_EQ(node->attrs, (std::vector<uint32_t>{0, 2}));
  EXPECT_FALSE(lattice.NodeForMask(0b10000).ok());
}

TEST(LatticeTest, SliceQueryTypeCountMatchesPaper) {
  // The paper counts 27 slice-query types over the 3-attribute lattice.
  CubeLattice lattice(SmallSchema());
  EXPECT_EQ(lattice.NumSliceQueryTypes(), 27u);
}

TEST(LatticeTest, ParentMasks) {
  CubeLattice lattice(SmallSchema());
  auto parents = lattice.ParentMasks(0b001);
  std::sort(parents.begin(), parents.end());
  EXPECT_EQ(parents, (std::vector<uint32_t>{0b011, 0b101}));
  EXPECT_TRUE(lattice.ParentMasks(0b111).empty());
}

TEST(LatticeTest, CardenasEstimates) {
  CubeLattice lattice(SmallSchema());
  lattice.EstimateRowCounts(100000);
  // Dense node: ~every combination appears. 40*10*25 = 10000 << 100k.
  ASSERT_OK_AND_ASSIGN(const LatticeNode* top, lattice.NodeForMask(0b111));
  EXPECT_NEAR(static_cast<double>(top->row_count), 10000.0, 100.0);
  // Singleton nodes saturate their domains.
  ASSERT_OK_AND_ASSIGN(const LatticeNode* p, lattice.NodeForMask(0b001));
  EXPECT_EQ(p->row_count, 40u);
  // The none node is a single row.
  ASSERT_OK_AND_ASSIGN(const LatticeNode* none, lattice.NodeForMask(0));
  EXPECT_EQ(none->row_count, 1u);
}

TEST(LatticeTest, SparseRegimeEstimateApproachesFactCount) {
  CubeLattice lattice(TpcdSf1Schema());
  lattice.EstimateRowCounts(6001215);
  ASSERT_OK_AND_ASSIGN(const LatticeNode* top, lattice.NodeForMask(0b111));
  // 2e5 * 1e4 * 1.5e5 cells >> 6M rows: nearly every row its own group.
  EXPECT_GT(top->row_count, 5900000u);
  EXPECT_LE(top->row_count, 6001215u);
}

TEST(LatticeTest, SetRowCountOverrides) {
  CubeLattice lattice(SmallSchema());
  ASSERT_OK(lattice.SetRowCount(0b011, 1234));
  ASSERT_OK_AND_ASSIGN(const LatticeNode* node, lattice.NodeForMask(0b011));
  EXPECT_EQ(node->row_count, 1234u);
  EXPECT_FALSE(lattice.SetRowCount(0b100000, 1).ok());
}

// --- Greedy selection ----------------------------------------------------

TEST(SelectionTest, ReproducesPaperSelectionOnTpcdStats) {
  // With TPC-D SF=1 statistics the 1-greedy must reproduce the paper's
  // sets: V = {psc, ps, c, s, p, none}, I = {I_csp, I_pcs, I_spc}.
  CubeSchema schema = TpcdSf1Schema();
  CubeLattice lattice(schema);
  lattice.EstimateRowCounts(6001215);
  // TPC-D association: each part has 4 suppliers, so |ps| = 800k (the
  // Cardenas estimate over independent draws would overshoot).
  ASSERT_OK(lattice.SetRowCount(0b011, 800000));

  GreedyOptions options;
  options.max_structures = 9;
  ASSERT_OK_AND_ASSIGN(SelectionResult result,
                       GreedySelect(lattice, options));

  std::vector<uint32_t> view_masks;
  for (const ViewDef& v : result.views) view_masks.push_back(v.AttrMask());
  EXPECT_EQ(view_masks,
            (std::vector<uint32_t>{0b111, 0b011, 0b100, 0b010, 0b001, 0}))
      << "expected pick order: psc, ps, c, s, p, none";

  ASSERT_EQ(result.indices.size(), 3u);
  std::set<std::vector<uint32_t>> index_keys;
  for (const IndexDef& index : result.indices) {
    EXPECT_EQ(index.view_id, 0b111u) << "all indices are on the top view";
    index_keys.insert(index.key_attrs);
  }
  // I_csp, I_pcs, I_spc: {custkey,suppkey,partkey}, {partkey,custkey,
  // suppkey}, {suppkey,partkey,custkey}.
  EXPECT_TRUE(index_keys.count({2, 1, 0}));
  EXPECT_TRUE(index_keys.count({0, 2, 1}));
  EXPECT_TRUE(index_keys.count({1, 0, 2}));
}

TEST(SelectionTest, TopViewAlwaysFirst) {
  CubeLattice lattice(SmallSchema());
  lattice.EstimateRowCounts(5000);
  GreedyOptions options;
  options.max_structures = 3;
  ASSERT_OK_AND_ASSIGN(SelectionResult result,
                       GreedySelect(lattice, options));
  ASSERT_FALSE(result.views.empty());
  EXPECT_EQ(result.views[0].AttrMask(), lattice.top_mask());
  EXPECT_EQ(result.picks.size(), 3u);
}

TEST(SelectionTest, BenefitsDecreaseAcrossPicks) {
  CubeLattice lattice(TpcdSf1Schema());
  lattice.EstimateRowCounts(6001215);
  GreedyOptions options;
  options.max_structures = 9;
  ASSERT_OK_AND_ASSIGN(SelectionResult result,
                       GreedySelect(lattice, options));
  for (size_t i = 2; i < result.picks.size(); ++i) {
    EXPECT_LE(result.picks[i].benefit, result.picks[i - 1].benefit * 1.001)
        << "pick " << i;
  }
}

TEST(SelectionTest, NoIndicesWhenDisabled) {
  CubeLattice lattice(TpcdSf1Schema());
  lattice.EstimateRowCounts(6001215);
  ASSERT_OK(lattice.SetRowCount(0b011, 800000));
  GreedyOptions options;
  options.max_structures = 9;
  options.include_indices = false;
  ASSERT_OK_AND_ASSIGN(SelectionResult result,
                       GreedySelect(lattice, options));
  EXPECT_TRUE(result.indices.empty());
  EXPECT_GE(result.views.size(), 6u);
}

TEST(SelectionTest, StopsWhenBenefitExhausted) {
  CubeSchema schema;
  schema.attr_names = {"a"};
  schema.attr_domains = {10};
  CubeLattice lattice(schema);
  lattice.EstimateRowCounts(100);
  GreedyOptions options;
  options.max_structures = 50;
  ASSERT_OK_AND_ASSIGN(SelectionResult result,
                       GreedySelect(lattice, options));
  // Tiny lattice: far fewer than 50 useful structures exist.
  EXPECT_LT(result.picks.size(), 10u);
}

TEST(SelectionTest, IndexNamesReadable) {
  CubeSchema schema = SmallSchema();
  IndexDef index;
  index.key_attrs = {2, 1, 0};
  EXPECT_EQ(index.Name(schema), "I{custkey,suppkey,partkey}");
}

// --- Cube builder --------------------------------------------------------

class CubeBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTestDir("cubebuild");
    schema_ = SmallSchema();
    // A deterministic small fact table.
    Rng rng(21);
    for (int i = 0; i < 4000; ++i) {
      FactTuple t;
      t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(40));
      t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(10));
      t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(25));
      t.measure = static_cast<int64_t>(1 + rng.Uniform(50));
      facts_.push_back(t);
    }
  }

  class Provider : public FactProvider {
   public:
    explicit Provider(const std::vector<FactTuple>* facts) : facts_(facts) {}
    Result<std::unique_ptr<FactSource>> Open() override {
      ++opens_;
      return std::unique_ptr<FactSource>(new VectorFactSource(facts_));
    }
    int opens_ = 0;

   private:
    const std::vector<FactTuple>* facts_;
  };

  /// Reference aggregation of the fact table for one view.
  std::map<std::vector<Coord>, AggValue> Reference(const ViewDef& view) {
    std::map<std::vector<Coord>, AggValue> groups;
    for (const FactTuple& t : facts_) {
      std::vector<Coord> key;
      for (uint32_t a : view.attrs) key.push_back(t.attr_values[a]);
      AggValue& agg = groups[key];
      agg.sum += t.measure;
      agg.count += 1;
    }
    return groups;
  }

  ViewDef MakeView(uint32_t id, std::vector<uint32_t> attrs) {
    ViewDef v;
    v.id = id;
    v.attrs = std::move(attrs);
    return v;
  }

  Result<std::unique_ptr<ComputedViews>> Compute(
      const std::vector<ViewDef>& views, Provider* provider) {
    CubeBuilder::Options options;
    options.temp_dir = dir_;
    options.sort_budget_bytes = 1 << 16;  // Force external sorting.
    CubeBuilder builder(schema_, options);
    return builder.ComputeAll(views, provider, "t");
  }

  /// Drains a computed view's spool into a map for comparison.
  std::map<std::vector<Coord>, AggValue> Drain(ComputedViews* data,
                                               const ViewDef& view) {
    std::map<std::vector<Coord>, AggValue> out;
    auto stream_result = data->OpenViewStream(view);
    EXPECT_TRUE(stream_result.ok());
    auto stream = std::move(stream_result).value();
    const char* rec = nullptr;
    Coord coords[kMaxDims];
    AggValue agg;
    std::vector<char> prev;
    while (true) {
      EXPECT_OK(stream->Next(&rec));
      if (rec == nullptr) break;
      // Verify pack-order sortedness and uniqueness on the way.
      if (!prev.empty()) {
        EXPECT_LT(ViewRecordCompare(prev.data(), rec, view.arity()), 0);
      }
      prev.assign(rec, rec + ViewRecordBytes(view.arity()));
      DecodeViewRecord(rec, view.arity(), coords, &agg);
      std::vector<Coord> key(coords, coords + view.arity());
      out[key] = agg;
    }
    return out;
  }

  std::string dir_;
  CubeSchema schema_;
  std::vector<FactTuple> facts_;
};

TEST_F(CubeBuilderTest, TopViewFromFactsMatchesReference) {
  std::vector<ViewDef> views = {MakeView(7, {0, 1, 2})};
  Provider provider(&facts_);
  ASSERT_OK_AND_ASSIGN(auto data, Compute(views, &provider));
  auto got = Drain(data.get(), views[0]);
  auto expected = Reference(views[0]);
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_EQ(got, expected);
  ASSERT_OK(data->Destroy());
}

TEST_F(CubeBuilderTest, DerivedViewsMatchReference) {
  std::vector<ViewDef> views = {
      MakeView(7, {0, 1, 2}), MakeView(3, {0, 1}), MakeView(1, {0}),
      MakeView(4, {2}),       MakeView(0, {}),
  };
  Provider provider(&facts_);
  ASSERT_OK_AND_ASSIGN(auto data, Compute(views, &provider));
  // Only the top view needs the fact stream: one open.
  EXPECT_EQ(provider.opens_, 1);
  for (const ViewDef& view : views) {
    auto got = Drain(data.get(), view);
    auto expected = Reference(view);
    EXPECT_EQ(got, expected) << "view " << view.Name(schema_);
  }
  // Row-count bookkeeping.
  ASSERT_OK_AND_ASSIGN(uint64_t none_rows, data->row_count(0));
  EXPECT_EQ(none_rows, 1u);
  EXPECT_EQ(data->total_rows(),
            Reference(views[0]).size() + Reference(views[1]).size() +
                Reference(views[2]).size() + Reference(views[3]).size() + 1);
  ASSERT_OK(data->Destroy());
}

TEST_F(CubeBuilderTest, ReplicaComputedFromOriginal) {
  std::vector<ViewDef> views = {
      MakeView(7, {0, 1, 2}),
      MakeView(42, {2, 0, 1}),  // Replica: permuted projection list.
  };
  Provider provider(&facts_);
  ASSERT_OK_AND_ASSIGN(auto data, Compute(views, &provider));
  EXPECT_EQ(provider.opens_, 1) << "replica derives from the original";
  auto got = Drain(data.get(), views[1]);
  auto expected = Reference(views[1]);
  EXPECT_EQ(got, expected);
  ASSERT_OK_AND_ASSIGN(uint64_t rows7, data->row_count(7));
  ASSERT_OK_AND_ASSIGN(uint64_t rows42, data->row_count(42));
  EXPECT_EQ(rows7, rows42);
  ASSERT_OK(data->Destroy());
}

TEST_F(CubeBuilderTest, SmallestParentChosen) {
  // {p} can derive from {p,s} (small) instead of {p,s,c} (big). We verify
  // indirectly: totals must still match, and ps must aggregate correctly.
  std::vector<ViewDef> views = {
      MakeView(7, {0, 1, 2}),
      MakeView(3, {0, 1}),
      MakeView(1, {0}),
  };
  Provider provider(&facts_);
  ASSERT_OK_AND_ASSIGN(auto data, Compute(views, &provider));
  auto p_groups = Drain(data.get(), views[2]);
  auto expected = Reference(views[2]);
  EXPECT_EQ(p_groups, expected);
  ASSERT_OK(data->Destroy());
}

TEST_F(CubeBuilderTest, PipelinedAggregationSkipsSortsAndMatches) {
  // psc -> sc (suffix) and sc -> c (suffix) can stream without sorting;
  // ps requires a sort. Results must be identical either way.
  std::vector<ViewDef> views = {
      MakeView(7, {0, 1, 2}),  // psc
      MakeView(6, {1, 2}),     // sc: suffix of psc
      MakeView(4, {2}),        // c: suffix of sc (and psc)
      MakeView(3, {0, 1}),     // ps: not a suffix, needs sorting
      MakeView(0, {}),         // none: trivial suffix of anything
  };
  CubeBuilder::Options options;
  options.temp_dir = dir_;
  options.sort_budget_bytes = 1 << 16;

  options.pipelined_aggregation = true;
  CubeBuilder fast(schema_, options);
  Provider provider(&facts_);
  ASSERT_OK_AND_ASSIGN(auto fast_data,
                       fast.ComputeAll(views, &provider, "fast"));
  EXPECT_GE(fast.pipelined_views(), 3u);  // sc, c, none at least.
  EXPECT_LE(fast.sorted_views(), 2u);     // psc (from facts) and ps.

  options.pipelined_aggregation = false;
  CubeBuilder slow(schema_, options);
  ASSERT_OK_AND_ASSIGN(auto slow_data,
                       slow.ComputeAll(views, &provider, "slow"));
  EXPECT_EQ(slow.pipelined_views(), 0u);

  for (const ViewDef& view : views) {
    EXPECT_EQ(Drain(fast_data.get(), view), Drain(slow_data.get(), view))
        << view.Name(schema_);
    EXPECT_EQ(Drain(fast_data.get(), view), Reference(view))
        << view.Name(schema_);
  }
  ASSERT_OK(fast_data->Destroy());
  ASSERT_OK(slow_data->Destroy());
}

TEST_F(CubeBuilderTest, CombineEqualKeysFoldsAdjacentGroups) {
  // Direct unit test of the combine loop.
  std::vector<char> flat;
  auto push = [&](Coord x, int64_t sum, uint32_t count) {
    std::vector<char> rec(ViewRecordBytes(1));
    Coord coords[1] = {x};
    EncodeViewRecord(rec.data(), coords, 1, AggValue{sum, count});
    flat.insert(flat.end(), rec.begin(), rec.end());
  };
  push(1, 10, 1);
  push(1, 20, 2);
  push(2, 5, 1);
  push(3, 1, 1);
  push(3, 2, 1);
  push(3, 3, 1);
  MemoryRecordStream input(std::move(flat), ViewRecordBytes(1));
  ASSERT_OK_AND_ASSIGN(
      auto spool, RecordSpool::Create(dir_ + "/combine.spl",
                                      ViewRecordBytes(1)));
  ASSERT_OK(CombineEqualKeys<1>(&input, 1, spool.get()));
  ASSERT_OK(spool->Seal());
  ASSERT_OK_AND_ASSIGN(auto reader, spool->NewReader());
  std::vector<std::pair<Coord, AggValue>> out;
  const char* rec = nullptr;
  Coord coords[kMaxDims];
  AggValue agg;
  while (true) {
    ASSERT_OK(reader->Next(&rec));
    if (rec == nullptr) break;
    DecodeViewRecord(rec, 1, coords, &agg);
    out.push_back({coords[0], agg});
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (std::pair<Coord, AggValue>{1, AggValue{30, 3}}));
  EXPECT_EQ(out[1], (std::pair<Coord, AggValue>{2, AggValue{5, 1}}));
  EXPECT_EQ(out[2], (std::pair<Coord, AggValue>{3, AggValue{6, 3}}));
}

// Two facts of one group whose measures sum past INT64_MAX: the load must
// fail with a typed error naming the view, not store a wrapped sum. The
// group is the top view's (combined off the sort of the fact stream) or
// only its child's (combined off the child's sort, or pipelined straight
// from the parent's spool).
TEST_F(CubeBuilderTest, SumOverflowIsAnErrorNamingTheView) {
  const std::vector<ViewDef> views = {MakeView(7, {0, 1}), MakeView(5, {1})};
  struct Case {
    Coord second_partkey;
    bool pipelined;
    const char* view;
  };
  for (const Case& c : {Case{3, true, "view 7"}, Case{4, true, "view 5"},
                        Case{4, false, "view 5"}}) {
    facts_.clear();
    FactTuple t;
    t.attr_values[0] = 3;
    t.attr_values[1] = 2;
    t.measure = INT64_MAX;
    facts_.push_back(t);
    t.attr_values[0] = c.second_partkey;
    t.measure = 1;
    facts_.push_back(t);
    CubeBuilder::Options options;
    options.temp_dir = dir_;
    options.pipelined_aggregation = c.pipelined;
    CubeBuilder builder(schema_, options);
    Provider provider(&facts_);
    const auto computed = builder.ComputeAll(views, &provider, "overflow");
    ASSERT_FALSE(computed.ok()) << c.view;
    EXPECT_TRUE(computed.status().IsInvalidArgument())
        << computed.status().ToString();
    EXPECT_NE(computed.status().ToString().find(c.view), std::string::npos)
        << computed.status().ToString();
    EXPECT_EQ(builder.pipelined_views(),
              c.pipelined && c.second_partkey != 3 ? 1u : 0u);
  }
}

// --- Query model ---------------------------------------------------------

TEST(QueryModelTest, GeneratorRespectsNode) {
  CubeSchema schema = SmallSchema();
  SliceQueryGenerator gen(schema, 99);
  for (int i = 0; i < 100; ++i) {
    SliceQuery q = gen.ForNode({0, 2}, /*exclude_unbound=*/false);
    EXPECT_EQ(q.node_mask, 0b101u);
    ASSERT_EQ(q.bindings.size(), 2u);
    if (q.bindings[0].has_value()) {
      EXPECT_GE(*q.bindings[0], 1u);
      EXPECT_LE(*q.bindings[0], 40u);
    }
    if (q.bindings[1].has_value()) {
      EXPECT_LE(*q.bindings[1], 25u);
    }
  }
}

TEST(QueryModelTest, ExcludeUnboundSkipsFullScans) {
  CubeSchema schema = SmallSchema();
  SliceQueryGenerator gen(schema, 5);
  for (int i = 0; i < 200; ++i) {
    SliceQuery q = gen.ForNode({0, 1, 2}, /*exclude_unbound=*/true);
    EXPECT_GT(q.NumBound(), 0u);
  }
}

TEST(QueryModelTest, AllTypesAppear) {
  CubeSchema schema = SmallSchema();
  SliceQueryGenerator gen(schema, 6);
  std::set<uint32_t> bound_masks;
  for (int i = 0; i < 500; ++i) {
    SliceQuery q = gen.ForNode({0, 1, 2}, false);
    bound_masks.insert(q.BoundMask());
  }
  EXPECT_EQ(bound_masks.size(), 8u) << "all 2^3 types of the node occur";
}

TEST(QueryModelTest, UniformOverLatticeCoversNodes) {
  CubeSchema schema = SmallSchema();
  CubeLattice lattice(schema);
  SliceQueryGenerator gen(schema, 7);
  std::set<uint32_t> nodes;
  for (int i = 0; i < 500; ++i) {
    SliceQuery q = gen.UniformOverLattice(lattice, true, true);
    nodes.insert(q.node_mask);
    EXPECT_NE(q.node_mask, 0u);  // none node skipped
  }
  EXPECT_EQ(nodes.size(), 7u);
}

TEST(QueryModelTest, ToStringRendersSql) {
  CubeSchema schema = SmallSchema();
  SliceQuery q;
  q.node_mask = 0b101;
  q.attrs = {0, 2};
  q.bindings = {std::nullopt, Coord{17}};
  EXPECT_EQ(q.ToString(schema),
            "SELECT partkey, SUM(quantity) FROM F WHERE custkey = 17 "
            "GROUP BY partkey");
  EXPECT_EQ(q.GroupMask(), 0b001u);
  EXPECT_EQ(q.BoundMask(), 0b100u);
}

TEST(QueryModelTest, QueryResultComparison) {
  QueryResult a, b;
  a.rows = {{{1}, {10, 1}}, {{2}, {20, 2}}};
  b.rows = {{{2}, {20, 2}}, {{1}, {10, 1}}};
  b.SortRows();
  a.SortRows();
  EXPECT_TRUE(a.SameRowsAs(b));
  b.rows[0].agg.sum = 11;
  EXPECT_FALSE(a.SameRowsAs(b));
}

}  // namespace
}  // namespace cubetree
