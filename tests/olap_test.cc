#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "olap/cube_builder.h"
#include "olap/lattice.h"
#include "olap/query_model.h"
#include "olap/selection.h"
#include "tests/test_util.h"
#include "tpcd/dbgen.h"

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

/// The worker counts the builder's tests run at: the serial loop, and
/// views computed side by side.
constexpr const char* kWidths[] = {"1", "4"};

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
        EXPECT_LT(DispatchArity(view.arity(),
                                [&](auto a) {
                                  return ViewRecordCompare<decltype(a)::value>(
                                      prev.data(), rec);
                                }),
                  0);
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
  data.reset();
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
  data.reset();
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
  data.reset();
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
  data.reset();
}

TEST_F(CubeBuilderTest, PipelinedAggregationSkipsSortsAndMatches) {
  // psc -> sc (suffix) and sc -> c (suffix) can stream without sorting;
  // ps requires a sort. Every view must equal the reference aggregation.
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
  CubeBuilder builder(schema_, options);
  Provider provider(&facts_);
  ASSERT_OK_AND_ASSIGN(auto data, builder.ComputeAll(views, &provider, "cube"));
  EXPECT_GE(builder.pipelined_views(), 3u);  // sc, c, none at least.
  EXPECT_LE(builder.sorted_views(), 2u);     // psc (from facts) and ps.
  for (const ViewDef& view : views) {
    EXPECT_EQ(Drain(data.get(), view), Reference(view)) << view.Name(schema_);
  }
  data.reset();
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
// only its child's: pipelined straight from the top view's spool when the
// child's projection list is a suffix of the top view's, else combined off
// the child's sort.
TEST_F(CubeBuilderTest, SumOverflowIsAnErrorNamingTheView) {
  struct Case {
    ViewDef child;
    Coord second[2];  // The second fact's attributes 0 and 1.
    const char* view;
    uint64_t pipelined_views;
  };
  const Case cases[] = {{MakeView(5, {1}), {3, 2}, "view 7", 0},
                        {MakeView(5, {1}), {4, 2}, "view 5", 1},
                        {MakeView(6, {0}), {3, 4}, "view 6", 0}};
  for (const char* width : kWidths) {
    ScopedEnv threads("CUBETREE_REFRESH_THREADS", width);
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.view) + " overflows, width " + width);
      facts_.clear();
      FactTuple t;
      t.attr_values[0] = 3;
      t.attr_values[1] = 2;
      t.measure = INT64_MAX;
      facts_.push_back(t);
      t.attr_values[0] = c.second[0];
      t.attr_values[1] = c.second[1];
      t.measure = 1;
      facts_.push_back(t);
      CubeBuilder::Options options;
      options.temp_dir = dir_;
      CubeBuilder builder(schema_, options);
      Provider provider(&facts_);
      const auto computed = builder.ComputeAll(
          {MakeView(7, {0, 1}), c.child}, &provider, "overflow");
      ASSERT_FALSE(computed.ok());
      EXPECT_TRUE(computed.status().IsInvalidArgument())
          << computed.status().ToString();
      EXPECT_NE(computed.status().ToString().find(c.view), std::string::npos)
          << computed.status().ToString();
      EXPECT_EQ(builder.pipelined_views(), c.pipelined_views);
    }
  }
}

// 0 marks an unused dimension, so it is never a key: a fact with 0 in one
// of a view's attributes is InvalidArgument naming the view and the
// attribute, also when other views project the attribute away. The sort
// has spilled runs by the time it meets the fact; the failed computation
// leaves no run or spool behind.
TEST_F(CubeBuilderTest, ZeroKeyIsAnErrorNamingTheViewAndAttribute) {
  struct Case {
    std::vector<ViewDef> views;
    size_t attr;  // The attribute the fact leaves at 0.
    const char* view;
    const char* attr_name;
  };
  const Case cases[] = {
      {{MakeView(7, {0, 1, 2}), MakeView(3, {0, 1})}, 2, "view 7", "custkey"},
      {{MakeView(5, {1})}, 1, "view 5", "suppkey"}};
  for (const char* width : kWidths) {
    ScopedEnv threads("CUBETREE_REFRESH_THREADS", width);
    for (const Case& c : cases) {
      SCOPED_TRACE(::testing::Message()
                   << c.view << " " << c.attr_name << ", width " << width);
      std::vector<FactTuple> facts = facts_;
      facts[3000].attr_values[c.attr] = 0;
      CubeBuilder::Options options;
      options.temp_dir = dir_;
      options.sort_budget_bytes = 16 << 10;
      options.io_stats = std::make_shared<IoStats>();
      CubeBuilder builder(schema_, options);
      Provider provider(&facts);
      const auto computed = builder.ComputeAll(c.views, &provider, "zero");
      ASSERT_FALSE(computed.ok());
      const std::string message = computed.status().ToString();
      EXPECT_TRUE(computed.status().IsInvalidArgument()) << message;
      EXPECT_NE(message.find(c.view), std::string::npos) << message;
      EXPECT_NE(message.find(c.attr_name), std::string::npos) << message;
      EXPECT_GT(options.io_stats->TotalWrites(), 0u)
          << "the sort spilled no run before the zero key";
      for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
        ADD_FAILURE() << "failed computation left " << entry.path();
      }
    }
  }
}

// The same overflow, found in the child after the top view's spool is
// sealed: the failed computation removes every spool it wrote, the sealed
// one and the partial one alike, and the sorter's runs.
TEST_F(CubeBuilderTest, FailedComputeLeavesNoSpool) {
  const std::vector<ViewDef> views = {MakeView(7, {0, 1}), MakeView(5, {1})};
  facts_.clear();
  FactTuple t;
  t.attr_values[1] = 2;
  for (const auto& [partkey, measure] :
       {std::pair<Coord, int64_t>{3, INT64_MAX}, {4, 1}}) {
    t.attr_values[0] = partkey;
    t.measure = measure;
    facts_.push_back(t);
  }
  for (const char* width : kWidths) {
    SCOPED_TRACE(std::string("width ") + width);
    ScopedEnv threads("CUBETREE_REFRESH_THREADS", width);
    CubeBuilder::Options options;
    options.temp_dir = dir_;
    CubeBuilder builder(schema_, options);
    Provider provider(&facts_);
    const auto computed = builder.ComputeAll(views, &provider, "leak");
    ASSERT_TRUE(computed.status().IsInvalidArgument())
        << computed.status().ToString();
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      ADD_FAILURE() << "failed computation left " << entry.path();
    }
  }
}

// The schedule's tests compute the paper's views and both top-view
// replicas over SF 0.01 facts, about 60,000, at a sort budget that spills
// the arity-3 sorts.
class CubeScheduleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTestDir("cubeschedule");
    tpcd::TpcdOptions options;
    options.scale_factor = 0.01;
    generator_ = std::make_unique<tpcd::Generator>(options);
    schema_ = generator_->MakeBaseSchema();
    facts_ = generator_->BaseFacts();
  }
  void TearDown() override { FaultInjector::Instance().DisarmAll(); }

  CubeBuilder::Options Options() const {
    CubeBuilder::Options options;
    options.temp_dir = dir_;
    options.sort_budget_bytes = 256 << 10;
    options.io_stats = std::make_shared<IoStats>();
    return options;
  }

  const std::vector<ViewDef> views_ = bench::PaperViews(/*with_replicas=*/true);
  std::string dir_;
  std::unique_ptr<tpcd::Generator> generator_;
  CubeSchema schema_;
  std::unique_ptr<FactProvider> facts_;
};

// The view tasks pick the serial loop's parents at every worker count:
// one worker and four write byte-identical spools, derive the same views
// by each path, and count the same page I/O and sorter work.
TEST_F(CubeScheduleTest, EveryWidthComputesTheSerialSpools) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  const char* const sorter_counters[] = {
      "sorter.runs_spilled", "sorter.bytes_spilled", "sorter.merge_passes"};
  std::map<uint32_t, std::string> spools[2];
  std::map<std::string, uint64_t> counts[2];
  for (int w = 0; w < 2; ++w) {
    ScopedEnv threads("CUBETREE_REFRESH_THREADS", kWidths[w]);
    const CubeBuilder::Options options = Options();
    std::map<std::string, uint64_t> sorter_before;
    for (const char* name : sorter_counters) {
      sorter_before[name] = registry.GetCounter(name)->value();
    }
    CubeBuilder builder(schema_, options);
    ASSERT_OK_AND_ASSIGN(auto data,
                         builder.ComputeAll(views_, facts_.get(), "width"));
    for (const ViewDef& view : views_) {
      ASSERT_OK_AND_ASSIGN(RecordSpool * spool, data->spool(view.id));
      std::ifstream file(spool->path(), std::ios::binary);
      spools[w][view.id].assign(std::istreambuf_iterator<char>(file), {});
    }
    const IoStats& io = *options.io_stats;
    counts[w] = {{"pipelined_views", builder.pipelined_views()},
                 {"sorted_views", builder.sorted_views()},
                 {"fact_views", builder.fact_views()},
                 {"sequential_reads", io.sequential_reads},
                 {"random_reads", io.random_reads},
                 {"sequential_writes", io.sequential_writes},
                 {"random_writes", io.random_writes}};
    for (const char* name : sorter_counters) {
      counts[w][name] = registry.GetCounter(name)->value() -
                        sorter_before[name];
    }
  }
  EXPECT_GT(counts[0]["sorter.runs_spilled"], 0u);
  EXPECT_EQ(counts[0], counts[1]);
  ASSERT_EQ(spools[0].size(), views_.size());
  for (const auto& [id, bytes] : spools[0]) {
    EXPECT_TRUE(bytes == spools[1][id]) << "view " << id << "'s spool differs";
  }
}

// One replica's sort fails while the other replica sorts beside it: the
// builder returns the injected, typed error, stops the tasks that wait on
// the replicas, and leaves no spool or sort run behind.
TEST_F(CubeScheduleTest, FailedReplicaSortStopsEveryTaskAndLeavesNoFile) {
  ScopedEnv threads("CUBETREE_REFRESH_THREADS", "4");
  obs::Counter* runs =
      obs::MetricsRegistry::Instance().GetCounter("sorter.runs_spilled");
  // Every other view waits for the top view's row count, so its sort's
  // spills come first; the next one is a replica's.
  const uint64_t before = runs->value();
  {
    CubeBuilder builder(schema_, Options());
    ASSERT_OK(builder.ComputeAll({views_[0]}, facts_.get(), "top").status());
  }
  const uint64_t top_runs = runs->value() - before;
  ASSERT_GT(top_runs, 0u);
  ASSERT_OK(FaultInjector::Instance().Arm(
      "sort.spill", "enospc@" + std::to_string(top_runs + 1)));
  CubeBuilder builder(schema_, Options());
  const auto computed = builder.ComputeAll(views_, facts_.get(), "replica");
  FaultInjector::Instance().DisarmAll();
  ASSERT_FALSE(computed.ok());
  EXPECT_TRUE(computed.status().IsStorageFull())
      << computed.status().ToString();
  EXPECT_NE(computed.status().ToString().find("sort.spill"),
            std::string::npos)
      << computed.status().ToString();
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    ADD_FAILURE() << "failed computation left " << entry.path();
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
