#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "engine/conventional_engine.h"
#include "engine/cubetree_engine.h"
#include "engine/query_parser.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "olap/cube_builder.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

CubeSchema SmallSchema() {
  CubeSchema schema;
  schema.attr_names = {"partkey", "suppkey", "custkey"};
  schema.attr_domains = {30, 8, 20};
  return schema;
}

/// Shared fixture: a small deterministic fact table, the paper's view set
/// shape (top view, ps, singletons, none), both engines loaded.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTestDir("engine");
    schema_ = SmallSchema();
    Rng rng(31);
    for (int i = 0; i < 3000; ++i) {
      FactTuple t;
      t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(30));
      t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(8));
      t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(20));
      t.measure = static_cast<int64_t>(1 + rng.Uniform(50));
      facts_.push_back(t);
    }
    views_ = {
        MakeView(7, {0, 1, 2}), MakeView(3, {0, 1}), MakeView(4, {2}),
        MakeView(2, {1}),       MakeView(1, {0}),    MakeView(0, {}),
    };
    indices_ = MakeIndices();
    pool_ = std::make_unique<BufferPool>(512);
    LoadEngines();
  }

  std::vector<IndexDef> MakeIndices() {
    std::vector<IndexDef> indices;
    IndexDef csp;
    csp.id = 1;
    csp.view_id = 7;
    csp.key_attrs = {2, 1, 0};
    IndexDef pcs;
    pcs.id = 2;
    pcs.view_id = 7;
    pcs.key_attrs = {0, 2, 1};
    IndexDef spc;
    spc.id = 3;
    spc.view_id = 7;
    spc.key_attrs = {1, 0, 2};
    indices.push_back(csp);
    indices.push_back(pcs);
    indices.push_back(spc);
    return indices;
  }

  class Provider : public FactProvider {
   public:
    explicit Provider(const std::vector<FactTuple>* facts) : facts_(facts) {}
    Result<std::unique_ptr<FactSource>> Open() override {
      return std::unique_ptr<FactSource>(new VectorFactSource(facts_));
    }

   private:
    const std::vector<FactTuple>* facts_;
  };

  std::unique_ptr<ComputedViews> Compute(
      const std::vector<ViewDef>& views,
      const std::vector<FactTuple>& facts, const std::string& tag) {
    CubeBuilder::Options options;
    options.temp_dir = dir_;
    options.sort_budget_bytes = 1 << 18;
    CubeBuilder builder(schema_, options);
    Provider provider(&facts);
    auto result = builder.ComputeAll(views, &provider, tag);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  void LoadEngines() {
    // Conventional: selected views + indices.
    auto data = Compute(views_, facts_, "base_conv");
    ConventionalEngine::Options conv_options;
    conv_options.dir = dir_;
    auto conv_result =
        ConventionalEngine::Create(schema_, conv_options, pool_.get());
    ASSERT_TRUE(conv_result.ok());
    conv_ = std::move(conv_result).value();
    ASSERT_OK(conv_->LoadTables(views_, data.get()));
    ASSERT_OK(conv_->BuildIndices(indices_));
    data.reset();

    // Cubetrees: same views + the two replicas the paper materializes.
    cbt_views_ = views_;
    cbt_views_.push_back(MakeView(1000, {1, 2, 0}));  // (s,c,p) ~ I_pcs.
    cbt_views_.push_back(MakeView(1001, {2, 0, 1}));  // (c,p,s) ~ I_spc.
    auto cbt_data = Compute(cbt_views_, facts_, "base_cbt");
    CubetreeEngine::Options cbt_options;
    cbt_options.dir = dir_;
    auto cbt_result =
        CubetreeEngine::Create(schema_, cbt_options, pool_.get());
    ASSERT_TRUE(cbt_result.ok());
    cbt_ = std::move(cbt_result).value();
    ASSERT_OK(cbt_->Load(cbt_views_, cbt_data.get()));
    cbt_data.reset();
  }

  /// Brute-force reference answer over the raw facts (equality and range
  /// predicates, explicit grouping).
  QueryResult Reference(const SliceQuery& query,
                        const std::vector<FactTuple>& facts) {
    QueryResult result;
    std::map<std::vector<Coord>, AggValue> groups;
    for (const FactTuple& t : facts) {
      bool match = true;
      for (size_t i = 0; i < query.attrs.size(); ++i) {
        const auto [lo, hi] = query.AttrInterval(i);
        const Coord value = t.attr_values[query.attrs[i]];
        if (value < lo || value > hi) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      std::vector<Coord> key;
      for (size_t i = 0; i < query.attrs.size(); ++i) {
        if (query.IsGrouped(i)) {
          key.push_back(t.attr_values[query.attrs[i]]);
        }
      }
      AggValue& agg = groups[key];
      agg.sum += t.measure;
      agg.count += 1;
    }
    for (auto& [key, agg] : groups) result.rows.push_back({key, agg});
    result.SortRows();
    return result;
  }

  void ExpectBothMatchReference(const SliceQuery& query,
                                const std::vector<FactTuple>& facts) {
    QueryResult expected = Reference(query, facts);
    obs::QueryProfile conv_profile, cbt_profile;
    auto conv_result = conv_->Execute(query, &conv_profile);
    ASSERT_TRUE(conv_result.ok()) << conv_result.status().ToString();
    conv_result->SortRows();
    EXPECT_TRUE(conv_result->SameRowsAs(expected))
        << "conventional mismatch on " << query.ToString(schema_)
        << " plan=" << conv_profile.plan << " got " << conv_result->rows.size()
        << " rows, want " << expected.rows.size();
    auto cbt_result = cbt_->Execute(query, &cbt_profile);
    ASSERT_TRUE(cbt_result.ok()) << cbt_result.status().ToString();
    cbt_result->SortRows();
    EXPECT_TRUE(cbt_result->SameRowsAs(expected))
        << "cubetree mismatch on " << query.ToString(schema_) << " plan="
        << cbt_profile.plan << " got " << cbt_result->rows.size()
        << " rows, want " << expected.rows.size();
  }

  std::string dir_;
  CubeSchema schema_;
  std::vector<FactTuple> facts_;
  std::vector<ViewDef> views_;
  std::vector<ViewDef> cbt_views_;
  std::vector<IndexDef> indices_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<ConventionalEngine> conv_;
  std::unique_ptr<CubetreeEngine> cbt_;
};

TEST_F(EngineTest, AllSliceQueryTypesMatchBruteForce) {
  // Every (node, bound-subset) type of the 3-attribute lattice, several
  // random value draws each: both engines must equal brute force.
  SliceQueryGenerator gen(schema_, 77);
  CubeLattice lattice(schema_);
  for (size_t node = 0; node < lattice.num_nodes(); ++node) {
    const auto& attrs = lattice.node(node).attrs;
    for (int draw = 0; draw < 8; ++draw) {
      SliceQuery query = gen.ForNode(attrs, /*exclude_unbound=*/false);
      ExpectBothMatchReference(query, facts_);
    }
  }
}

TEST_F(EngineTest, QueriesOnUnmaterializedNodesUseSuperset) {
  // Nodes pc and sc are not materialized; both engines must re-aggregate
  // from the top view (the paper's "additional aggregate step").
  SliceQuery query;
  query.node_mask = 0b101;
  query.attrs = {0, 2};
  query.bindings = {std::nullopt, Coord{5}};
  obs::QueryProfile profile;
  auto result = cbt_->Execute(query, &profile);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(profile.plan.find("agg"), std::string::npos) << profile.plan;
  ExpectBothMatchReference(query, facts_);
}

TEST_F(EngineTest, ConventionalUsesIndexWhenPredicateMatches) {
  SliceQuery query;
  query.node_mask = 0b111;
  query.attrs = {0, 1, 2};
  query.bindings = {std::nullopt, std::nullopt, Coord{7}};  // custkey = 7.
  obs::QueryProfile profile;
  auto result = conv_->Execute(query, &profile);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(profile.plan.find("index"), std::string::npos) << profile.plan;
  // The csp index restricts to ~1/20 of the view.
  EXPECT_LT(profile.points_examined, 3000u / 4);
}

TEST_F(EngineTest, ConventionalFallsBackToScan) {
  SliceQuery query;  // Unbound query on ps: no index prefix applies.
  query.node_mask = 0b011;
  query.attrs = {0, 1};
  query.bindings = {std::nullopt, std::nullopt};
  obs::QueryProfile profile;
  auto result = conv_->Execute(query, &profile);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(profile.plan.find("scan"), std::string::npos) << profile.plan;
}

TEST_F(EngineTest, CubetreeRoutesToReplicaForBoundSuffix) {
  // partkey bound: best replica is (s,c,p) whose pack order leads with p.
  SliceQuery query;
  query.node_mask = 0b111;
  query.attrs = {0, 1, 2};
  query.bindings = {Coord{3}, std::nullopt, std::nullopt};
  obs::QueryProfile profile;
  auto result = cbt_->Execute(query, &profile);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(profile.plan.find("V{suppkey,custkey,partkey}"),
            std::string::npos)
      << profile.plan;
  ExpectBothMatchReference(query, facts_);
}

TEST_F(EngineTest, CubetreeExaminesFewTuplesOnSelectiveSlices) {
  SliceQuery query;
  query.node_mask = 0b111;
  query.attrs = {0, 1, 2};
  query.bindings = {Coord{3}, Coord{2}, std::nullopt};
  obs::QueryProfile profile;
  auto result = cbt_->Execute(query, &profile);
  ASSERT_TRUE(result.ok());
  // Pruning works at leaf-page granularity: a couple of leaves (~300
  // entries each) is the honest floor, far below the ~2900-row view.
  EXPECT_LT(profile.points_examined, 1000u)
      << "selective slice should not scan the whole view";
  EXPECT_LE(profile.internal_pages + profile.leaf_pages, 6u);
}

TEST_F(EngineTest, RangeQueriesMatchBruteForce) {
  // BETWEEN predicates on every node, both engines vs brute force.
  SliceQueryGenerator gen(schema_, 123);
  CubeLattice lattice(schema_);
  for (size_t node = 0; node < lattice.num_nodes(); ++node) {
    const auto& attrs = lattice.node(node).attrs;
    if (attrs.empty()) continue;
    for (double fraction : {0.1, 0.4}) {
      for (int draw = 0; draw < 4; ++draw) {
        SliceQuery query = gen.ForNodeRange(attrs, fraction, true);
        ExpectBothMatchReference(query, facts_);
      }
    }
  }
}

TEST_F(EngineTest, RangeQueryWithCollapsedAttr) {
  // WHERE custkey BETWEEN 5 AND 9, grouped by partkey only (the range
  // attr collapsed out of the output).
  SliceQuery query;
  query.node_mask = 0b101;
  query.attrs = {0, 2};
  query.bindings = {std::nullopt, std::nullopt};
  query.ranges = {std::nullopt, std::make_pair(Coord{5}, Coord{9})};
  query.grouped = {true, false};
  ExpectBothMatchReference(query, facts_);
  // Same predicates but grouped by both: more groups.
  SliceQuery grouped_query = query;
  grouped_query.grouped = {true, true};
  ExpectBothMatchReference(grouped_query, facts_);
  auto a = conv_->Execute(query, nullptr);
  auto b = conv_->Execute(grouped_query, nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(a->rows.size(), b->rows.size());
}

TEST_F(EngineTest, RangeOnIndexLeadingKeyBoundsTheScan) {
  // custkey BETWEEN uses the csp index: a band, not a full scan.
  SliceQuery query;
  query.node_mask = 0b111;
  query.attrs = {0, 1, 2};
  query.bindings = {std::nullopt, std::nullopt, std::nullopt};
  query.ranges = {std::nullopt, std::nullopt,
                  std::make_pair(Coord{3}, Coord{6})};
  obs::QueryProfile profile;
  auto result = conv_->Execute(query, &profile);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(profile.plan.find("index"), std::string::npos) << profile.plan;
  // ~4/20 of the view, twice (entry + heap fetch), with slack.
  EXPECT_LT(profile.points_examined, 3000u);
  ExpectBothMatchReference(query, facts_);
}

TEST_F(EngineTest, StorageCubetreesSmallerThanConventional) {
  // The headline storage claim, at small scale: packed+compressed trees
  // (even with two extra replicas) undercut tables + B-trees.
  EXPECT_LT(cbt_->StorageBytes(), conv_->StorageBytes())
      << "cubetrees " << cbt_->StorageBytes() << " vs conventional "
      << conv_->StorageBytes();
}

TEST_F(EngineTest, IncrementalUpdatesKeepEnginesConsistent) {
  // Build a delta, apply per-tuple to conventional and merge-pack to the
  // cubetrees; answers must match brute force over base+delta.
  Rng rng(57);
  std::vector<FactTuple> delta;
  for (int i = 0; i < 400; ++i) {
    FactTuple t;
    t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(30));
    t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(8));
    t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(20));
    t.measure = static_cast<int64_t>(1 + rng.Uniform(50));
    delta.push_back(t);
  }
  ASSERT_OK(conv_->BuildMaintenanceIndices());
  auto conv_delta = Compute(views_, delta, "delta_conv");
  ASSERT_OK(conv_->ApplyDeltaIncremental(conv_delta.get()));
  conv_delta.reset();

  auto cbt_delta = Compute(cbt_views_, delta, "delta_cbt");
  ASSERT_OK(cbt_->ApplyDelta(cbt_delta.get()));
  cbt_delta.reset();

  std::vector<FactTuple> all = facts_;
  all.insert(all.end(), delta.begin(), delta.end());

  SliceQueryGenerator gen(schema_, 91);
  CubeLattice lattice(schema_);
  for (size_t node = 0; node < lattice.num_nodes(); ++node) {
    for (int draw = 0; draw < 4; ++draw) {
      SliceQuery query =
          gen.ForNode(lattice.node(node).attrs, /*exclude_unbound=*/false);
      ExpectBothMatchReference(query, all);
    }
  }
}

TEST_F(EngineTest, RebuildMatchesIncremental) {
  Rng rng(58);
  std::vector<FactTuple> delta;
  for (int i = 0; i < 200; ++i) {
    FactTuple t;
    t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(30));
    t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(8));
    t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(20));
    t.measure = 3;
    delta.push_back(t);
  }
  std::vector<FactTuple> all = facts_;
  all.insert(all.end(), delta.begin(), delta.end());
  auto full = Compute(views_, all, "full");
  ASSERT_OK(conv_->Rebuild(full.get()));
  full.reset();

  SliceQueryGenerator gen(schema_, 17);
  for (int draw = 0; draw < 10; ++draw) {
    SliceQuery query = gen.ForNode({0, 1, 2}, false);
    QueryResult expected = Reference(query, all);
    auto got = conv_->Execute(query, nullptr);
    ASSERT_TRUE(got.ok());
    got->SortRows();
    EXPECT_TRUE(got->SameRowsAs(expected));
  }
}

TEST_F(EngineTest, DeltaTreeRefreshMatchesBruteForce) {
  Rng rng(77);
  std::vector<FactTuple> all = facts_;
  for (int round = 0; round < 3; ++round) {
    std::vector<FactTuple> delta;
    for (int i = 0; i < 200; ++i) {
      FactTuple t;
      t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(30));
      t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(8));
      t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(20));
      t.measure = static_cast<int64_t>(1 + rng.Uniform(50));
      delta.push_back(t);
    }
    auto d = Compute(cbt_views_, delta, "dt" + std::to_string(round));
    ASSERT_OK(cbt_->ApplyDeltaPartial(d.get()));
    d.reset();
    all.insert(all.end(), delta.begin(), delta.end());
  }
  EXPECT_GT(cbt_->forest()->AcquireSnapshot().TotalDeltas(), 0u);

  SliceQueryGenerator gen(schema_, 3);
  for (int draw = 0; draw < 10; ++draw) {
    SliceQuery query = gen.ForNode({0, 1, 2}, false);
    QueryResult expected = Reference(query, all);
    auto got = cbt_->Execute(query, nullptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    got->SortRows();
    ASSERT_TRUE(got->SameRowsAs(expected))
        << "with deltas: " << query.ToString(schema_);
  }
  // Compaction preserves the answers and clears the deltas.
  ASSERT_OK(cbt_->Compact());
  EXPECT_EQ(cbt_->forest()->AcquireSnapshot().TotalDeltas(), 0u);
  for (int draw = 0; draw < 5; ++draw) {
    SliceQuery query = gen.ForNode({0, 2}, false);
    QueryResult expected = Reference(query, all);
    auto got = cbt_->Execute(query, nullptr);
    ASSERT_TRUE(got.ok());
    got->SortRows();
    ASSERT_TRUE(got->SameRowsAs(expected));
  }
}

TEST_F(EngineTest, WalAccountsForEveryLoadedRow) {
  // A fresh engine: every view row it loads must be logged.
  const std::string dir = MakeTestDir("engine_wal");
  BufferPool pool(128);
  auto stats = std::make_shared<IoStats>();
  ConventionalEngine::Options options;
  options.dir = dir;
  options.io_stats = stats;
  ASSERT_OK_AND_ASSIGN(auto engine,
                       ConventionalEngine::Create(schema_, options, &pool));
  auto data = Compute(views_, facts_, "wal");
  const IoStats before = *stats;
  ASSERT_OK(engine->LoadTables(views_, data.get()));
  const IoStats during = *stats - before;
  // The WAL stream is sequential and holds a framed record per row.
  EXPECT_GT(during.sequential_writes, 0u);
  EXPECT_GE(std::filesystem::file_size(dir + "/conv.wal"),
            data->total_rows() * WriteAheadLog::kRecordHeader);
}

TEST_F(EngineTest, AggregateOverflowIsAnErrorOnBothEngines) {
  // One view {partkey, suppkey} holding sums INT64_MAX and 1 under one
  // partkey: grouping by partkey overflows, and so does a delta adding to
  // the INT64_MAX row. Both engines refuse with InvalidArgument naming the
  // view instead of answering a wrapped sum.
  const std::vector<ViewDef> views = {MakeView(3, {0, 1})};
  std::vector<FactTuple> facts(2);
  for (FactTuple& t : facts) t.attr_values[0] = 1;
  facts[0].attr_values[1] = 1;
  facts[0].measure = INT64_MAX;
  facts[1].attr_values[1] = 2;
  facts[1].measure = 1;
  std::vector<FactTuple> delta_facts = {facts[0]};
  delta_facts[0].measure = 1;
  auto data = Compute(views, facts, "overflow");

  ConventionalEngine::Options conv_options;
  conv_options.dir = dir_;
  conv_options.name = "overflow";
  ASSERT_OK_AND_ASSIGN(auto conv, ConventionalEngine::Create(
                                      schema_, conv_options, pool_.get()));
  ASSERT_OK(conv->LoadTables(views, data.get()));
  IndexDef by_partkey;
  by_partkey.id = 9;
  by_partkey.view_id = 3;
  by_partkey.key_attrs = {0, 1};
  ASSERT_OK(conv->BuildIndices({by_partkey}));
  ASSERT_OK(conv->BuildMaintenanceIndices());
  CubetreeEngine::Options cbt_options;
  cbt_options.dir = dir_;
  cbt_options.name = "overflow";
  ASSERT_OK_AND_ASSIGN(
      auto cbt, CubetreeEngine::Create(schema_, cbt_options, pool_.get()));
  ASSERT_OK(cbt->Load(views, data.get()));

  auto expect_overflow = [](const Status& status, const std::string& what) {
    EXPECT_TRUE(status.IsInvalidArgument())
        << what << ": " << status.ToString();
    EXPECT_NE(status.ToString().find("view 3"), std::string::npos)
        << what << ": " << status.ToString();
  };
  // Grouped by partkey the conventional engine scans the view; bound to
  // partkey 1 it reads through the partkey index.
  SliceQuery grouped;
  grouped.node_mask = 0b001;
  grouped.attrs = {0};
  grouped.bindings = {std::nullopt};
  SliceQuery bound = grouped;
  bound.bindings = {Coord{1}};
  for (const SliceQuery& query : {grouped, bound}) {
    const std::string text = query.ToString(schema_);
    expect_overflow(conv->Execute(query, nullptr).status(),
                    "conventional " + text);
    expect_overflow(cbt->Execute(query, nullptr).status(), "cubetree " + text);
  }

  auto delta = Compute(views, delta_facts, "overflow_delta");
  expect_overflow(conv->ApplyDeltaIncremental(delta.get()),
                  "conventional delta");
  expect_overflow(cbt->ApplyDelta(delta.get()), "cubetree delta");
}

TEST_F(EngineTest, RecoverReadsOnlyMetadataAndRoutesByTheLoadedRows) {
  // Recovery's check reads every tree file once, outside the engine's I/O
  // accounting, and tallies each view's points as it goes: the engine
  // itself reads one metadata page per tree file, the tallies are the
  // load's spool counts, and the router estimates every query as the
  // loaded engine did.
  std::map<uint32_t, uint64_t> spool_rows;
  {
    auto data = Compute(cbt_views_, facts_, "rows");
    for (const ViewDef& view : cbt_views_) {
      ASSERT_OK_AND_ASSIGN(spool_rows[view.id], data->row_count(view.id));
    }
  }
  SliceQueryGenerator gen(schema_, 5);
  CubeLattice lattice(schema_);
  std::vector<SliceQuery> queries;
  std::vector<double> loaded_costs;
  for (size_t node = 1; node < lattice.num_nodes(); ++node) {
    queries.push_back(gen.ForNode(lattice.node(node).attrs, false));
    obs::QueryProfile profile;
    ASSERT_OK(cbt_->Execute(queries.back(), &profile).status());
    loaded_costs.push_back(profile.route.estimated_cost);
  }
  const size_t files = cbt_->forest()->LiveFiles().size();
  cbt_.reset();

  CubetreeEngine::Options options;
  options.dir = dir_;
  options.io_stats = std::make_shared<IoStats>();
  BufferPool pool(512);
  ForestRecoveryReport report;
  ASSERT_OK_AND_ASSIGN(
      auto recovered,
      CubetreeEngine::Recover(schema_, options, &pool, &report));
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(options.io_stats->TotalReads(), files);
  EXPECT_EQ(report.view_points, spool_rows);
  for (size_t i = 0; i < queries.size(); ++i) {
    obs::QueryProfile profile;
    ASSERT_OK(recovered->Execute(queries[i], &profile).status());
    EXPECT_EQ(profile.route.estimated_cost, loaded_costs[i])
        << queries[i].ToString(schema_);
  }
}

TEST_F(EngineTest, IncrementalWithoutMaintenanceIndicesFails) {
  auto delta = Compute(views_, facts_, "delta_none");
  EXPECT_FALSE(conv_->ApplyDeltaIncremental(delta.get()).ok());
  delta.reset();
}

TEST_F(EngineTest, UnknownNodeFails) {
  SliceQuery query;
  query.node_mask = 0b1000;  // Attribute 3 does not exist in any view.
  query.attrs = {3};
  query.bindings = {std::nullopt};
  EXPECT_FALSE(conv_->Execute(query, nullptr).ok());
  EXPECT_FALSE(cbt_->Execute(query, nullptr).ok());
}

// --- Per-query record ----------------------------------------------------

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Instance().GetCounter(name)->value();
}

/// engine.queries and the sum of its per-outcome counters.
std::pair<uint64_t, uint64_t> QueryCounts() {
  uint64_t outcomes = 0;
  for (const char* outcome : {"ok", "deadline", "cancelled", "shed", "degraded",
                              "corruption_rerouted", "error"}) {
    outcomes += CounterValue(std::string("engine.queries.") + outcome);
  }
  return {CounterValue("engine.queries"), outcomes};
}

/// Attaches a query log and turns tracing on for one test, so every
/// Execute leaves a durable record and a published trace to compare.
class RecordedQueries {
 public:
  explicit RecordedQueries(const std::string& dir)
      : path_(dir + "/queries.jsonl"), log_(LogOptions(path_)) {
    obs::QueryLog::SetDefaultForTest(&log_);
    obs::Tracer::Instance().Enable(true);
  }
  ~RecordedQueries() {
    obs::Tracer::Instance().Enable(false);
    obs::QueryLog::SetDefaultForTest(nullptr);
  }

  /// Every record written so far, oldest first.
  std::vector<obs::QueryLogRecord> Records() {
    log_.Flush();
    std::vector<obs::QueryLogRecord> records;
    if (!std::filesystem::exists(path_)) return records;  // None written.
    EXPECT_OK(obs::ForEachLogLine(path_, [&](const std::string& line) {
      auto doc = obs::JsonValue::Parse(line);
      ASSERT_TRUE(doc.ok()) << line;
      auto record = obs::QueryLogRecord::FromJson(*doc);
      ASSERT_TRUE(record.ok()) << line;
      records.push_back(std::move(*record));
    }));
    return records;
  }

 private:
  static obs::QueryLog::Options LogOptions(const std::string& path) {
    obs::QueryLog::Options options;
    options.path = path;
    return options;
  }

  std::string path_;
  obs::QueryLog log_;
};

TEST_F(EngineTest, EachRouteYieldsOneRecordThatSpansAndCallerAgreeWith) {
  RecordedQueries recorded(dir_);
  struct Case {
    const char* name;
    uint32_t node_mask;
    std::vector<uint32_t> attrs;
    std::vector<std::optional<Coord>> bindings;
    const char* outcome;
    const char* route;
    const char* view;
    std::vector<std::string> order;
  };
  const std::vector<Case> cases = {
      {"exact", 0b111, {0, 1, 2}, {std::nullopt, std::nullopt, Coord{7}},
       "ok", "exact", "V{partkey,suppkey,custkey}",
       {"partkey", "suppkey", "custkey"}},
      {"replica", 0b111, {0, 1, 2}, {Coord{3}, std::nullopt, std::nullopt},
       "ok", "replica", "V{suppkey,custkey,partkey}",
       {"suppkey", "custkey", "partkey"}},
      {"superset", 0b101, {0, 2}, {std::nullopt, Coord{5}}, "ok", "superset",
       "V{partkey,suppkey,custkey}", {"partkey", "suppkey", "custkey"}},
      // Runs after the top view's tree is quarantined: the lowest healthy
      // id of the family, replica 1000, becomes its primary.
      {"degraded", 0b111, {0, 1, 2}, {std::nullopt, std::nullopt, Coord{7}},
       "degraded", "exact", "V{suppkey,custkey,partkey}",
       {"suppkey", "custkey", "partkey"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    if (std::string(c.name) == "degraded") {
      ASSERT_OK(cbt_->forest()
                    ->QuarantineForCorruption(
                        7, "", Status::Corruption("quarantined by the test"))
                    .status());
    }
    SliceQuery query;
    query.node_mask = c.node_mask;
    query.attrs = c.attrs;
    query.bindings = c.bindings;
    const size_t records_before = recorded.Records().size();
    const auto [queries_before, outcomes_before] = QueryCounts();
    obs::QueryProfile profile;
    auto result = cbt_->Execute(query, &profile);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<obs::QueryLogRecord> records = recorded.Records();
    ASSERT_EQ(records.size(), records_before + 1);
    const auto [queries_after, outcomes_after] = QueryCounts();
    EXPECT_EQ(queries_after - queries_before, 1u);
    EXPECT_EQ(outcomes_after - outcomes_before, 1u);

    const obs::QueryLogRecord& record = records.back();
    EXPECT_EQ(record.outcome, c.outcome);
    EXPECT_EQ(record.route, c.route);
    EXPECT_EQ(record.view, c.view);
    EXPECT_EQ(record.order, c.order);
    EXPECT_EQ(record.rows, result->rows.size());

    // The record's storage work is the trace's, span by span.
    std::shared_ptr<const obs::Trace> trace =
        obs::Tracer::Instance().LastTrace();
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(record.trace_id, trace->id());
    // Every Execute is route, then search: those are the root query span's
    // direct children, in that order.
    ASSERT_FALSE(trace->spans().empty());
    EXPECT_EQ(trace->spans()[0].name, "query");
    std::vector<std::string> phases;
    for (const obs::SpanRecord& span : trace->spans()) {
      if (span.parent == 0) phases.push_back(span.name);
    }
    EXPECT_EQ(phases, (std::vector<std::string>{"route", "search"}));
    uint64_t span_pages = 0;
    uint64_t scanned = 0;
    for (const obs::SpanRecord& span : trace->spans()) {
      span_pages += span.pages_read + span.pool_hits;
      if (span.name != "rtree.scan") continue;
      for (const auto& [key, value] : span.annotations) {
        if (key == "points_examined") {
          scanned += static_cast<uint64_t>(value.number());
        }
      }
    }
    EXPECT_GT(span_pages, 0u);
    EXPECT_EQ(record.pages_read + record.pool_hits, span_pages);
    EXPECT_EQ(record.points_examined, scanned);

    // The caller's copy describes the same query.
    EXPECT_EQ(profile.points_examined, record.points_examined);
    EXPECT_EQ(profile.internal_pages + profile.leaf_pages,
              record.pages_read + record.pool_hits);
    EXPECT_NE(profile.plan.find(record.view), std::string::npos)
        << profile.plan;
  }
}

TEST_F(EngineTest, ExpiredContextIsCountedAndRecordedOnce) {
  RecordedQueries recorded(dir_);
  SliceQuery query;
  query.node_mask = 0b111;
  query.attrs = {0, 1, 2};
  query.bindings = {std::nullopt, std::nullopt, Coord{7}};
  const uint64_t deadline_before = CounterValue("engine.queries.deadline");
  const auto [queries_before, outcomes_before] = QueryCounts();
  const QueryContext ctx =
      QueryContext::WithTimeout(std::chrono::nanoseconds(0));
  obs::QueryProfile profile;
  auto result = cbt_->Execute(query, &profile, &ctx);
  ASSERT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_EQ(CounterValue("engine.queries.deadline") - deadline_before, 1u);
  const auto [queries_after, outcomes_after] = QueryCounts();
  EXPECT_EQ(queries_after - queries_before, 1u);
  EXPECT_EQ(outcomes_after - outcomes_before, 1u);

  const std::vector<obs::QueryLogRecord> records = recorded.Records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, "deadline");
  EXPECT_EQ(records[0].route, "none");
  EXPECT_EQ(records[0].rows, 0u);
  EXPECT_EQ(profile.outcome, obs::QueryOutcome::kDeadline);
}

TEST_F(EngineTest, EachTreeSearchSpanReportsItsOwnCounts) {
  // With a delta tree pending, one query searches two trees: each search's
  // rtree.scan span counts its own points, and together they are the
  // query's.
  std::vector<FactTuple> delta(facts_.begin(), facts_.begin() + 300);
  auto d = Compute(cbt_views_, delta, "delta_spans");
  ASSERT_OK(cbt_->ApplyDeltaPartial(d.get()));
  d.reset();
  RecordedQueries recorded(dir_);
  SliceQuery query;
  query.node_mask = 0b111;
  query.attrs = {0, 1, 2};
  query.bindings = {std::nullopt, std::nullopt, Coord{7}};
  obs::QueryProfile profile;
  ASSERT_OK(cbt_->Execute(query, &profile).status());
  std::shared_ptr<const obs::Trace> trace =
      obs::Tracer::Instance().LastTrace();
  ASSERT_NE(trace, nullptr);
  uint64_t scans = 0;
  uint64_t scanned = 0;
  for (const obs::SpanRecord& span : trace->spans()) {
    if (span.name != "rtree.scan") continue;
    ++scans;
    for (const auto& [key, value] : span.annotations) {
      if (key == "points_examined") {
        scanned += static_cast<uint64_t>(value.number());
      }
    }
  }
  EXPECT_EQ(scans, 2u);
  EXPECT_GT(profile.points_examined, 0u);
  EXPECT_EQ(scanned, profile.points_examined);
}

// --- Query parser --------------------------------------------------------

TEST(QueryParserTest, ParsesFullQuery) {
  CubeSchema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseSliceQuery("SELECT partkey, suppkey, SUM(quantity) FROM sales "
                      "WHERE custkey = 17 GROUP BY partkey, suppkey",
                      schema));
  EXPECT_EQ(parsed.fn, AggFn::kSum);
  EXPECT_EQ(parsed.query.node_mask, 0b111u);
  EXPECT_EQ(parsed.query.attrs, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_FALSE(parsed.query.bindings[0].has_value());
  EXPECT_FALSE(parsed.query.bindings[1].has_value());
  ASSERT_TRUE(parsed.query.bindings[2].has_value());
  EXPECT_EQ(*parsed.query.bindings[2], 17u);
}

TEST(QueryParserTest, ParsesAggregateOnlyQuery) {
  CubeSchema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseSliceQuery(
          "select avg(quantity) from sales where partkey = 3 and suppkey = 4",
          schema));
  EXPECT_EQ(parsed.fn, AggFn::kAvg);
  EXPECT_EQ(parsed.query.node_mask, 0b011u);
  EXPECT_EQ(parsed.query.NumBound(), 2u);
}

TEST(QueryParserTest, CountStar) {
  CubeSchema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseSliceQuery("SELECT custkey, COUNT(*) FROM f GROUP BY custkey",
                      schema));
  EXPECT_EQ(parsed.fn, AggFn::kCount);
  EXPECT_EQ(parsed.query.node_mask, 0b100u);
}

TEST(QueryParserTest, RejectsMalformedQueries) {
  CubeSchema schema = SmallSchema();
  EXPECT_FALSE(ParseSliceQuery("SELECT FROM x", schema).ok());
  EXPECT_FALSE(ParseSliceQuery("SELECT partkey FROM x GROUP BY partkey",
                               schema)
                   .ok());  // No aggregate.
  EXPECT_FALSE(
      ParseSliceQuery("SELECT nope, SUM(quantity) FROM x GROUP BY nope",
                      schema)
          .ok());  // Unknown attribute.
  EXPECT_FALSE(ParseSliceQuery(
                   "SELECT partkey, SUM(quantity) FROM x GROUP BY suppkey",
                   schema)
                   .ok());  // GROUP BY mismatch.
  EXPECT_FALSE(ParseSliceQuery(
                   "SELECT partkey, SUM(quantity) FROM x "
                   "WHERE partkey = 5 GROUP BY partkey",
                   schema)
                   .ok());  // Attr both grouped and bound.
  EXPECT_FALSE(ParseSliceQuery(
                   "SELECT SUM(price) FROM x WHERE partkey = 1", schema)
                   .ok());  // Wrong measure.
  // A literal past a key value's 32 bits is refused by name, not wrapped.
  for (const std::string literal : {"4294967296", "99999999999999999999"}) {
    for (const std::string& where :
         {"suppkey = " + literal, "suppkey BETWEEN 1 AND " + literal}) {
      const auto parsed = ParseSliceQuery(
          "SELECT partkey, SUM(quantity) FROM x WHERE " + where +
              " GROUP BY partkey",
          schema);
      ASSERT_FALSE(parsed.ok()) << where;
      EXPECT_TRUE(parsed.status().IsInvalidArgument()) << where;
      EXPECT_NE(parsed.status().ToString().find(literal), std::string::npos)
          << parsed.status().ToString();
    }
  }
}

TEST(QueryParserTest, ParsesBetween) {
  CubeSchema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseSliceQuery("SELECT partkey, SUM(quantity) FROM f "
                      "WHERE custkey BETWEEN 3 AND 9 AND suppkey = 2 "
                      "GROUP BY partkey",
                      schema));
  const SliceQuery& q = parsed.query;
  EXPECT_EQ(q.node_mask, 0b111u);
  // Canonical order: partkey(grouped), suppkey(=2), custkey(range).
  ASSERT_EQ(q.attrs, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_TRUE(q.IsGrouped(0));
  EXPECT_FALSE(q.IsGrouped(1));
  EXPECT_FALSE(q.IsGrouped(2));  // Range attr absent from GROUP BY.
  ASSERT_TRUE(q.bindings[1].has_value());
  EXPECT_EQ(*q.bindings[1], 2u);
  ASSERT_TRUE(q.ranges[2].has_value());
  EXPECT_EQ(q.ranges[2]->first, 3u);
  EXPECT_EQ(q.ranges[2]->second, 9u);
}

TEST(QueryParserTest, BetweenAttrMayAlsoBeGrouped) {
  CubeSchema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseSliceQuery("SELECT custkey, SUM(quantity) FROM f "
                      "WHERE custkey BETWEEN 3 AND 9 GROUP BY custkey",
                      schema));
  EXPECT_TRUE(parsed.query.IsGrouped(0));
  ASSERT_TRUE(parsed.query.ranges[0].has_value());
}

TEST(QueryParserTest, KeywordsAreCaseInsensitiveAndWhitespaceTolerant) {
  CubeSchema schema = SmallSchema();
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseSliceQuery("  SeLeCt   PARTKEY ,  sum( quantity )   fRoM x  "
                      "Where  SUPPKEY=4   GrOuP   By PartKey  ",
                      schema));
  EXPECT_EQ(parsed.query.node_mask, 0b011u);
  ASSERT_TRUE(parsed.query.bindings[1].has_value());
  EXPECT_EQ(*parsed.query.bindings[1], 4u);
}

TEST(QueryParserTest, RejectsEmptyBetween) {
  CubeSchema schema = SmallSchema();
  EXPECT_FALSE(ParseSliceQuery(
                   "SELECT SUM(quantity) FROM f WHERE custkey "
                   "BETWEEN 9 AND 3",
                   schema)
                   .ok());
}

TEST(QueryParserTest, RoundTripsThroughToString) {
  CubeSchema schema = SmallSchema();
  SliceQuery q;
  q.node_mask = 0b101;
  q.attrs = {0, 2};
  q.bindings = {std::nullopt, Coord{9}};
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed,
                       ParseSliceQuery(q.ToString(schema), schema));
  EXPECT_EQ(parsed.query.node_mask, q.node_mask);
  EXPECT_EQ(parsed.query.bindings, q.bindings);
}

}  // namespace
}  // namespace cubetree
