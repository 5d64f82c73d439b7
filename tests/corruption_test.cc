// Corruption-sweep harness: end-to-end tests of the integrity layer under
// real on-disk damage and injected silent read corruption.
//
// The contract under test — the tentpole invariant of the integrity
// subsystem — is "match or typed Corruption, never silent garbage":
//   * transient bitflips heal through the storage layer's bounded re-reads
//     and the query result still equals brute force over the raw facts;
//   * persistent page corruption quarantines the damaged tree and the
//     in-flight query transparently re-routes to a replica or superset
//     view, still matching brute force;
//   * when every covering view is damaged the caller receives the typed
//     checksum-mismatch Corruption, never wrong rows;
//   * the background scrubber finds latent damage before queries do and
//     drives the replica-repair path.
//
// Kept in its own binary (labeled `corruption`): it tampers with live
// files, arms global failpoints, and uses a deliberately tiny buffer pool
// so reads hit the disk instead of the cache.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "cubetree/forest.h"
#include "cubetree/view_def.h"
#include "engine/cubetree_engine.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "olap/cube_builder.h"
#include "olap/query_model.h"
#include "rtree/node.h"
#include "scrub/scrubber.h"
#include "sort/external_sorter.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"
#include "tests/forest_fixture.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

CubeSchema SmallSchema() {
  CubeSchema schema;
  schema.attr_names = {"partkey", "suppkey", "custkey"};
  schema.attr_domains = {30, 8, 20};
  return schema;
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<uint64_t>(st.st_size);
}

/// XORs one byte in page `page_id` of `path` — a single silent bit
/// pattern change that only the checksum layer can notice.
void CorruptPageByte(const std::string& path, PageId page_id) {
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0) << path;
  const off_t offset = static_cast<off_t>(page_id) * kPageSize + 123;
  char byte = 0;
  ASSERT_EQ(::pread(fd, &byte, 1, offset), 1);
  byte = static_cast<char>(byte ^ 0xFF);
  ASSERT_EQ(::pwrite(fd, &byte, 1, offset), 1);
  ::close(fd);
}

/// Damages every page of the file past the meta page, so any physical
/// read the search issues is guaranteed to see bad bytes.
void CorruptAllDataPages(const std::string& path) {
  const uint64_t pages = FileSize(path) / kPageSize;
  ASSERT_GE(pages, 2u) << path << " too small to corrupt meaningfully";
  for (PageId p = 1; p < pages; ++p) CorruptPageByte(path, p);
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Instance().GetCounter(name)->value();
}

/// The fact stream over a vector, counting how often it is opened.
class FactsProvider : public FactProvider {
 public:
  explicit FactsProvider(const std::vector<FactTuple>* facts)
      : facts_(facts) {}
  Result<std::unique_ptr<FactSource>> Open() override {
    ++opens;
    return std::unique_ptr<FactSource>(new VectorFactSource(facts_));
  }

  int opens = 0;

 private:
  const std::vector<FactTuple>* facts_;
};

/// EngineTest's schema/view shape plus the two sort-order replicas, but
/// every view in its own tree (so quarantining one view's file cannot
/// collaterally kill its replicas) and a buffer pool smaller than any one
/// tree (so a full-view scan always performs physical reads — the
/// verify-on-read layer only sees pages that actually come off the disk).
class CorruptionTest : public ::testing::Test {
 protected:
  static constexpr size_t kPoolPages = 6;

  void SetUp() override {
    dir_ = MakeTestDir("corruption");
    schema_ = SmallSchema();
    facts_ = MakeFacts(47, 4000);
    views_ = {
        MakeView(7, {0, 1, 2}), MakeView(3, {0, 1}), MakeView(4, {2}),
        MakeView(2, {1}),       MakeView(1, {0}),    MakeView(0, {}),
        MakeView(1000, {1, 2, 0}),  // (s,c,p) replica of the top view.
        MakeView(1001, {2, 0, 1}),  // (c,p,s) replica of the top view.
    };
    pool_ = std::make_unique<BufferPool>(kPoolPages);
    CubetreeEngine::Options options;
    options.one_tree_per_view = true;
    LoadEngine(options);
  }

  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    cbt_.reset();
    pool_.reset();
  }

  static std::vector<FactTuple> MakeFacts(uint64_t seed, int n) {
    Rng rng(seed);
    std::vector<FactTuple> facts;
    for (int i = 0; i < n; ++i) {
      FactTuple t;
      t.attr_values[0] = static_cast<Coord>(1 + rng.Uniform(30));
      t.attr_values[1] = static_cast<Coord>(1 + rng.Uniform(8));
      t.attr_values[2] = static_cast<Coord>(1 + rng.Uniform(20));
      t.measure = static_cast<int64_t>(1 + rng.Uniform(50));
      facts.push_back(t);
    }
    return facts;
  }

  /// (Re)creates the engine with `options` in dir_ and loads views_ over
  /// facts_ into it.
  void LoadEngine(CubetreeEngine::Options options) {
    cbt_.reset();
    options.dir = dir_;
    auto data = Compute(views_, facts_, "base");
    auto created = CubetreeEngine::Create(schema_, options, pool_.get());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    cbt_ = std::move(created).value();
    ASSERT_OK(cbt_->Load(views_, data.get()));
  }

  /// The cube builder options the views are loaded, refreshed and
  /// repaired with.
  CubeBuilder::Options BuildOptions() const {
    CubeBuilder::Options options;
    options.temp_dir = dir_;
    options.sort_budget_bytes = 1 << 18;
    return options;
  }

  std::unique_ptr<ComputedViews> Compute(const std::vector<ViewDef>& views,
                                         const std::vector<FactTuple>& facts,
                                         const std::string& tag) {
    CubeBuilder builder(schema_, BuildOptions());
    FactsProvider provider(&facts);
    auto result = builder.ComputeAll(views, &provider, tag);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  /// Takes the tree of `view_id` out of service, as a corrupt read would.
  void Quarantine(uint32_t view_id) {
    auto quarantined = cbt_->forest()->QuarantineForCorruption(
        view_id, "", Status::Corruption("test damage"));
    ASSERT_TRUE(quarantined.ok()) << quarantined.status().ToString();
    ASSERT_TRUE(cbt_->forest()->AcquireSnapshot().IsViewQuarantined(view_id));
  }

  std::string TreePath(uint32_t view_id) {
    const ForestSnapshot snap = cbt_->forest()->AcquireSnapshot();
    auto tree = snap.TreeForView(view_id);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    return (*tree)->rtree()->path();
  }

  /// The fully unbound query on the top lattice node: scans every leaf of
  /// whichever {0,1,2} view it routes to, so with the tiny pool it is
  /// guaranteed to touch corrupted pages physically.
  SliceQuery TopQuery() const {
    SliceQuery q;
    q.node_mask = 0b111;
    q.attrs = {0, 1, 2};
    q.bindings = {std::nullopt, std::nullopt, std::nullopt};
    return q;
  }

  /// Brute-force reference answer over the raw facts.
  QueryResult Reference(const SliceQuery& query) {
    QueryResult result;
    std::map<std::vector<Coord>, AggValue> groups;
    for (const FactTuple& t : facts_) {
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
        if (query.IsGrouped(i)) key.push_back(t.attr_values[query.attrs[i]]);
      }
      AggValue& agg = groups[key];
      agg.sum += t.measure;
      agg.count += 1;
    }
    for (auto& [key, agg] : groups) result.rows.push_back({key, agg});
    result.SortRows();
    return result;
  }

  void ExpectMatchesReference(const SliceQuery& query) {
    QueryResult expected = Reference(query);
    obs::QueryProfile profile;
    auto result = cbt_->Execute(query, &profile);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    result->SortRows();
    EXPECT_TRUE(result->SameRowsAs(expected))
        << "plan=" << profile.plan << " got " << result->rows.size()
        << " rows, want " << expected.rows.size();
  }

  /// Every lattice node's answer, grouped by all of its attributes, and
  /// every view's stored contents (main and delta trees combined) against
  /// brute force over the raw facts.
  void ExpectEveryNodeAndViewMatch() {
    for (uint32_t mask = 0; mask < 8; ++mask) {
      SCOPED_TRACE("node " + std::to_string(mask));
      SliceQuery query;
      query.node_mask = mask;
      for (uint32_t attr = 0; attr < 3; ++attr) {
        if ((mask & (1u << attr)) == 0) continue;
        query.attrs.push_back(attr);
        query.bindings.push_back(std::nullopt);
      }
      ExpectMatchesReference(query);
    }
    const ForestSnapshot snapshot = cbt_->forest()->AcquireSnapshot();
    for (const ViewDef& view : views_) {
      SCOPED_TRACE(view.Name(schema_));
      auto tree = snapshot.TreeForView(view.id);
      ASSERT_TRUE(tree.ok()) << tree.status().ToString();
      std::map<std::vector<Coord>, AggValue> stored;
      ASSERT_OK((*tree)->QueryBox(
          view.id, std::vector<std::pair<Coord, Coord>>(view.arity(),
                                                        {1, kCoordMax}),
          [&](uint32_t, uint8_t arity, const char* entry) {
            stored[EntryKey(entry, view.arity())].Merge(
                ViewRecordAgg(entry, arity));
          }));
      SliceQuery query;
      query.node_mask = view.AttrMask();
      query.attrs = view.attrs;
      query.bindings.assign(view.arity(), std::nullopt);
      QueryResult got;
      for (auto& [key, agg] : stored) got.rows.push_back({key, agg});
      got.SortRows();
      EXPECT_TRUE(got.SameRowsAs(Reference(query)))
          << "stored " << got.rows.size() << " groups";
    }
  }

  std::string dir_;
  CubeSchema schema_;
  std::vector<FactTuple> facts_;
  std::vector<ViewDef> views_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<CubetreeEngine> cbt_;
};

TEST_F(CorruptionTest, ReadRepairReroutesToReplicaOnDiskCorruption) {
  const SliceQuery query = TopQuery();
  ExpectMatchesReference(query);  // Sanity before the damage.

  CorruptAllDataPages(TreePath(7));
  const uint64_t reroutes_before = CounterValue("engine.read_repair_reroutes");

  // The query routes to view 7 first (cheapest covering view, earliest in
  // declaration order), hits the damage, quarantines the tree, and must
  // re-route to a replica — transparently returning the right answer.
  ExpectMatchesReference(query);
  EXPECT_TRUE(cbt_->forest()->AcquireSnapshot().IsViewQuarantined(7));
  EXPECT_FALSE(cbt_->forest()->AcquireSnapshot().IsViewQuarantined(1000));
  EXPECT_FALSE(cbt_->forest()->AcquireSnapshot().IsViewQuarantined(1001));
  EXPECT_GT(CounterValue("engine.read_repair_reroutes"), reroutes_before);

  // Subsequent queries skip the quarantined view at routing time: no new
  // corruption encounter, still the right answer.
  const uint64_t reroutes_after = CounterValue("engine.read_repair_reroutes");
  ExpectMatchesReference(query);
  EXPECT_EQ(CounterValue("engine.read_repair_reroutes"), reroutes_after);
}

TEST_F(CorruptionTest, TypedCorruptionWhenNoHealthyRouteRemains) {
  CorruptAllDataPages(TreePath(7));
  CorruptAllDataPages(TreePath(1000));
  CorruptAllDataPages(TreePath(1001));

  // Every view that can answer the top-node query is damaged: the retry
  // loop quarantines them one by one, runs out of routes, and surfaces the
  // first typed Corruption — never a silently wrong result.
  obs::QueryProfile profile;
  auto result = cbt_->Execute(TopQuery(), &profile);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_TRUE(cbt_->forest()->AcquireSnapshot().IsViewQuarantined(7));
  EXPECT_TRUE(cbt_->forest()->AcquireSnapshot().IsViewQuarantined(1000));
  EXPECT_TRUE(cbt_->forest()->AcquireSnapshot().IsViewQuarantined(1001));

  // Lattice nodes with a healthy covering view keep answering.
  SliceQuery ps;
  ps.node_mask = 0b011;
  ps.attrs = {0, 1};
  ps.bindings = {std::nullopt, std::nullopt};
  ExpectMatchesReference(ps);
}

TEST_F(CorruptionTest, RepairFromReplicasRestoresQuarantinedView) {
  // The top view is rebuilt 1:1 from a sort-order replica; the apex view
  // (arity 0, no key coordinates) is re-aggregated from a superset.
  SliceQuery apex;
  apex.node_mask = 0;
  for (const auto& [view_id, query] :
       {std::pair{uint32_t{7}, TopQuery()}, std::pair{uint32_t{0}, apex}}) {
    SCOPED_TRACE(view_id);
    CorruptAllDataPages(TreePath(view_id));
    ExpectMatchesReference(query);  // Trigger quarantine via read-repair.
    ASSERT_TRUE(cbt_->forest()->AcquireSnapshot().IsViewQuarantined(view_id));

    const uint64_t repairs_before = CounterValue("engine.replica_repairs");
    ASSERT_OK(cbt_->Repair(nullptr, BuildOptions()));
    EXPECT_FALSE(cbt_->forest()->AcquireSnapshot().IsViewQuarantined(view_id));
    EXPECT_GT(CounterValue("engine.replica_repairs"), repairs_before);

    // The rebuilt tree serves correct content again.
    ExpectMatchesReference(query);
  }
  // And the rebuilt top view answers a selective probe too.
  SliceQuery bound = TopQuery();
  bound.bindings = {Coord{5}, Coord{3}, std::nullopt};
  ExpectMatchesReference(bound);
}

TEST_F(CorruptionTest, RepairUnavailableWithoutSourceFallsBackToBaseData) {
  CorruptAllDataPages(TreePath(7));
  CorruptAllDataPages(TreePath(1000));
  CorruptAllDataPages(TreePath(1001));
  auto result = cbt_->Execute(TopQuery(), nullptr);
  ASSERT_TRUE(!result.ok() && result.status().IsCorruption())
      << result.status().ToString();

  // All three {0,1,2} views are quarantined and no healthy view covers
  // them: without a fact provider the repair must refuse (leaving the
  // forest unchanged), and with one — as warehouse recovery passes — it
  // restores them from the facts.
  Status replica_repair = cbt_->Repair(nullptr, BuildOptions());
  ASSERT_TRUE(replica_repair.IsUnavailable()) << replica_repair.ToString();
  ASSERT_TRUE(cbt_->forest()->AcquireSnapshot().HasQuarantine());

  FactsProvider facts(&facts_);
  ASSERT_OK(cbt_->Repair(&facts, BuildOptions()));
  EXPECT_FALSE(cbt_->forest()->AcquireSnapshot().HasQuarantine());
  ExpectMatchesReference(TopQuery());
}

TEST_F(CorruptionTest, SweepTransientBitflipsHealViaReread) {
  // A one-shot bitflip on the Nth physical read models a transient bus /
  // DMA error: verify-on-read catches it and the bounded re-read gets
  // clean bytes, so the query is right and nothing is quarantined.
  const SliceQuery query = TopQuery();
  const QueryResult expected = Reference(query);
  for (const uint64_t hit : {1u, 2u, 5u, 9u, 17u, 33u}) {
    ASSERT_OK(FaultInjector::Instance().Arm(
        "storage.page.read", "bitflip(1)@" + std::to_string(hit)));
    obs::QueryProfile profile;
    auto result = cbt_->Execute(query, &profile);
    ASSERT_TRUE(result.ok())
        << "hit " << hit << ": " << result.status().ToString();
    result->SortRows();
    EXPECT_TRUE(result->SameRowsAs(expected)) << "hit " << hit;
    EXPECT_FALSE(cbt_->forest()->AcquireSnapshot().HasQuarantine())
        << "hit " << hit;
    FaultInjector::Instance().DisarmAll();
  }
}

TEST_F(CorruptionTest, SweepPersistentCorruptionNeverReturnsWrongRows) {
  // corrupt_page(3)@H defeats the initial read and both re-reads: from the
  // storage layer's view the page is persistently bad. Whatever page of
  // whatever file hit H lands on, the outcome must be either the reference
  // answer (read-repair re-routed) or a typed Corruption — wrong rows are
  // an automatic failure.
  const SliceQuery query = TopQuery();
  const QueryResult expected = Reference(query);
  for (const uint64_t hit : {1u, 3u, 7u, 13u}) {
    ASSERT_OK(FaultInjector::Instance().Arm(
        "storage.page.read", "corrupt_page(3)@" + std::to_string(hit)));
    auto result = cbt_->Execute(query, nullptr);
    if (result.ok()) {
      result->SortRows();
      EXPECT_TRUE(result->SameRowsAs(expected)) << "hit " << hit;
    } else {
      EXPECT_TRUE(result.status().IsCorruption())
          << "hit " << hit << ": " << result.status().ToString();
    }
    FaultInjector::Instance().DisarmAll();

    // The on-disk files are healthy (corruption was injected on the read
    // path only), but a quarantine decision is deliberately sticky:
    // repair — from the replicas, else the facts — before the next round.
    if (cbt_->forest()->AcquireSnapshot().HasQuarantine()) {
      FactsProvider facts(&facts_);
      ASSERT_OK(cbt_->Repair(&facts, BuildOptions()));
      ASSERT_FALSE(cbt_->forest()->AcquireSnapshot().HasQuarantine())
          << "hit " << hit;
    }
    ExpectMatchesReference(query);
  }
}

TEST_F(CorruptionTest, UnlimitedCorruptionYieldsTypedErrorNotGarbage) {
  // Every physical read from hit 2 onward returns damaged bytes — a dying
  // disk. With the pool far smaller than any route's page count no attempt
  // can be served from cache, so the only acceptable outcome is the typed
  // checksum Corruption.
  ASSERT_OK(
      FaultInjector::Instance().Arm("storage.page.read", "corrupt_page@2"));
  auto result = cbt_->Execute(TopQuery(), nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(CorruptionTest, ScrubberDrivesReplicaRepairEndToEnd) {
  // Latent damage the queries have not touched yet: the scrubber finds it
  // on its own pass, quarantines the tree, and its repair callback (the
  // engine's replica path) rebuilds it before any query ever failed.
  CorruptAllDataPages(TreePath(7));
  ScrubOptions options;
  Scrubber scrubber(cbt_->forest(), options,
                    [this] { return cbt_->Repair(nullptr, BuildOptions()); });
  ScrubPassStats stats;
  ASSERT_OK(scrubber.ScrubOnce(&stats));
  EXPECT_EQ(stats.corruptions_found, 1u);  // One damaged file.
  EXPECT_EQ(stats.corruptions_repaired, 1u);
  EXPECT_EQ(stats.corruptions_unrepairable, 0u);
  EXPECT_FALSE(cbt_->forest()->AcquireSnapshot().HasQuarantine());
  ExpectMatchesReference(TopQuery());

  // The rebuilt generation scrubs clean.
  ScrubPassStats clean;
  ASSERT_OK(scrubber.ScrubOnce(&clean));
  EXPECT_EQ(clean.corruptions_found, 0u);
}

TEST_F(CorruptionTest, RepairCombinesSourceKeysAcrossPendingDeltaTrees) {
  // A partial refresh leaves every tree a delta tree, so a source view's
  // keys repeat across its main and delta trees and must be combined.
  const std::vector<FactTuple> delta_facts = MakeFacts(48, 1500);
  auto delta = Compute(views_, delta_facts, "delta");
  ASSERT_OK(cbt_->ApplyDeltaPartial(delta.get()));
  delta.reset();
  facts_.insert(facts_.end(), delta_facts.begin(), delta_facts.end());
  ASSERT_GT(cbt_->forest()->AcquireSnapshot().TotalDeltas(), 0u);

  Quarantine(7);
  Quarantine(3);
  Quarantine(0);
  ASSERT_OK(cbt_->Repair(nullptr, BuildOptions()));
  EXPECT_FALSE(cbt_->forest()->AcquireSnapshot().HasQuarantine());
  ExpectEveryNodeAndViewMatch();
}

TEST_F(CorruptionTest, RepairReadsUncompressedLeaves) {
  // Without leaf compression a tree stores every entry at its own
  // dimensionality. The lost {suppkey} view's cheapest healthy cover is
  // the {partkey, suppkey} view in a three-dimensional tree, whose entries
  // the repair narrows back to two coordinates.
  CubetreeEngine::Options options;
  options.name = "uncompressed";
  options.rtree.compress_leaves = false;
  LoadEngine(options);
  std::vector<ViewDef> lost;
  {
    const ForestSnapshot snapshot = cbt_->forest()->AcquireSnapshot();
    ASSERT_OK_AND_ASSIGN(Cubetree * lost_tree, snapshot.TreeForView(2));
    ASSERT_OK_AND_ASSIGN(Cubetree * source, snapshot.TreeForView(3));
    ASSERT_NE(lost_tree, source);
    ASSERT_EQ(source->dims(), 3);
    lost = lost_tree->views();
  }
  for (const ViewDef& view : lost) Quarantine(view.id);
  ASSERT_OK(cbt_->Repair(nullptr, BuildOptions()));
  EXPECT_FALSE(cbt_->forest()->AcquireSnapshot().HasQuarantine());
  ExpectEveryNodeAndViewMatch();
}

TEST_F(CorruptionTest, RepairDerivesFromReplicasAndFactsInOneCall) {
  // No healthy view covers the top node, so one of its three views comes
  // from the facts and the other two from it; the lost {partkey} view
  // comes from the healthy {partkey, suppkey} superset.
  Quarantine(7);
  Quarantine(1000);
  Quarantine(1001);
  Quarantine(1);
  FactsProvider facts(&facts_);
  ASSERT_OK(cbt_->Repair(&facts, BuildOptions()));
  EXPECT_EQ(facts.opens, 1);
  EXPECT_FALSE(cbt_->forest()->AcquireSnapshot().HasQuarantine());
  ExpectEveryNodeAndViewMatch();
}

TEST_F(CorruptionTest, RepairWithoutFactsRefusesUncoveredViewUpFront) {
  Quarantine(7);
  Quarantine(1000);
  Quarantine(1001);
  const uint64_t epoch = cbt_->forest()->AcquireSnapshot().epoch();
  const std::set<std::string> files = ListFiles(dir_);

  const Status refused = cbt_->Repair(nullptr, BuildOptions());
  ASSERT_TRUE(refused.IsUnavailable()) << refused.ToString();
  EXPECT_NE(refused.ToString().find(views_[0].Name(schema_)),
            std::string::npos)
      << refused.ToString();
  EXPECT_EQ(cbt_->forest()->AcquireSnapshot().epoch(), epoch);
  EXPECT_EQ(ListFiles(dir_), files);
  for (const uint32_t view_id : {7u, 1000u, 1001u}) {
    EXPECT_TRUE(cbt_->forest()->AcquireSnapshot().IsViewQuarantined(view_id));
  }
  // The healthy views keep answering.
  SliceQuery ps;
  ps.node_mask = 0b011;
  ps.attrs = {0, 1};
  ps.bindings = {std::nullopt, std::nullopt};
  ExpectMatchesReference(ps);
}

TEST_F(CorruptionTest, RepairWhileQueriesRoute) {
  // Readers route by the router's row counts while a repair on this
  // thread rebuilds the top view and updates its count.
  const SliceQuery query = TopQuery();
  const QueryResult expected = Reference(query);
  Quarantine(7);
  std::atomic<bool> done{false};
  std::atomic<int> attempts{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        auto result = cbt_->Execute(query, nullptr);
        if (result.ok()) result->SortRows();
        if (!result.ok() || !result->SameRowsAs(expected)) ++failed;
        ++attempts;
      }
    });
  }
  const Status repaired = cbt_->Repair(nullptr, BuildOptions());
  const int before = attempts.load();
  while (attempts.load() < before + 20) std::this_thread::yield();
  done = true;
  for (std::thread& reader : readers) reader.join();
  ASSERT_OK(repaired);
  EXPECT_EQ(failed.load(), 0);
  EXPECT_FALSE(cbt_->forest()->AcquireSnapshot().HasQuarantine());
}

// ---------------------------------------------------------------------------
// Forest-level scrubber tests: no engine, no repair unless provided.

class ScrubProvider : public CubetreeForest::ViewDataProvider {
 public:
  Result<std::unique_ptr<RecordStream>> OpenViewStream(
      const ViewDef& view) override {
    std::vector<char> flat;
    std::vector<char> rec(ViewRecordBytes(view.arity()));
    for (Coord x = 1; x <= 600; ++x) {
      Coord coords[kMaxDims] = {x};
      EncodeViewRecord(rec.data(), coords, view.arity(),
                       AggValue{static_cast<int64_t>(x) * view.id, 1});
      flat.insert(flat.end(), rec.begin(), rec.end());
    }
    return std::unique_ptr<RecordStream>(new MemoryRecordStream(
        std::move(flat), ViewRecordBytes(view.arity())));
  }
};

struct ScrubForest {
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<CubetreeForest> forest;
  ScrubProvider provider;
};

ScrubForest MakeScrubForest(const std::string& tag) {
  ScrubForest sf;
  sf.pool = std::make_unique<BufferPool>(64);
  CubetreeForest::Options options;
  options.dir = MakeTestDir(tag);
  options.name = "scrub";
  options.one_tree_per_view = true;
  auto created = CubetreeForest::Create(options, sf.pool.get());
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  sf.forest = std::move(created).value();
  EXPECT_TRUE(
      sf.forest->Build({MakeView(1, {0}), MakeView(2, {1})}, &sf.provider)
          .ok());
  return sf;
}

std::string ForestTreePath(CubetreeForest* forest, uint32_t view_id) {
  const ForestSnapshot snap = forest->AcquireSnapshot();
  auto tree = snap.TreeForView(view_id);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return (*tree)->rtree()->path();
}

TEST(ScrubberTest, CleanForestScrubsClean) {
  ScrubForest sf = MakeScrubForest("scrub_clean");
  Scrubber scrubber(sf.forest.get(), ScrubOptions());
  ScrubPassStats stats;
  ASSERT_OK(scrubber.ScrubOnce(&stats));
  EXPECT_EQ(stats.files_scanned, 2u);
  EXPECT_GT(stats.pages_scrubbed, 0u);
  EXPECT_EQ(stats.corruptions_found, 0u);
  EXPECT_FALSE(sf.forest->AcquireSnapshot().HasQuarantine());
}

TEST(ScrubberTest, FindsAndQuarantinesSingleFlippedByte) {
  ScrubForest sf = MakeScrubForest("scrub_find");
  CorruptPageByte(ForestTreePath(sf.forest.get(), 1), 1);
  Scrubber scrubber(sf.forest.get(), ScrubOptions());
  ScrubPassStats stats;
  ASSERT_OK(scrubber.ScrubOnce(&stats));
  EXPECT_EQ(stats.corruptions_found, 1u);
  // No repair callback installed: the finding is unrepairable, the tree
  // stays quarantined, and the healthy sibling is untouched.
  EXPECT_EQ(stats.corruptions_repaired, 0u);
  EXPECT_EQ(stats.corruptions_unrepairable, 1u);
  EXPECT_TRUE(sf.forest->AcquireSnapshot().IsViewQuarantined(1));
  EXPECT_FALSE(sf.forest->AcquireSnapshot().IsViewQuarantined(2));
}

TEST(ScrubberTest, QuarantinesStructuralDamageUnderAValidSidecar) {
  // The first two entries of view 1's first leaf swapped out of pack
  // order, and the sidecar re-signed over them: every CRC matches, so only
  // the structural check can tell.
  ScrubForest sf = MakeScrubForest("scrub_structure");
  const std::string path = ForestTreePath(sf.forest.get(), 1);
  {
    ASSERT_OK_AND_ASSIGN(auto file, PageManager::Open(path));
    Page page;
    ASSERT_OK(file->ReadPage(1, &page));
    char* first = page.data + kRNodeHeaderSize;
    std::swap_ranges(first, first + ViewRecordBytes(1),
                     first + ViewRecordBytes(1));
    ASSERT_OK(file->WritePage(1, page));
  }
  ASSERT_OK(ResignSidecar(path));
  Scrubber scrubber(sf.forest.get(), ScrubOptions());
  ScrubPassStats stats;
  ASSERT_OK(scrubber.ScrubOnce(&stats));
  EXPECT_EQ(stats.corruptions_found, 1u);
  EXPECT_TRUE(sf.forest->AcquireSnapshot().IsViewQuarantined(1));
  EXPECT_FALSE(sf.forest->AcquireSnapshot().IsViewQuarantined(2));
}

TEST(ScrubberTest, TransientBitflipQuarantinesNothing) {
  // One bit flipped in flight on one read of a pass: the file that read
  // it is checked again, clean, and nothing leaves service.
  ScrubForest sf = MakeScrubForest("scrub_transient");
  Scrubber scrubber(sf.forest.get(), ScrubOptions());
  for (const uint64_t hit : {1u, 2u, 3u, 6u}) {
    SCOPED_TRACE(hit);
    FaultInjector& faults = FaultInjector::Instance();
    const uint64_t before = faults.HitCount("storage.page.read");
    ASSERT_OK(faults.Arm("storage.page.read",
                         "bitflip(1)@" + std::to_string(hit)));
    ScrubPassStats stats;
    ASSERT_OK(scrubber.ScrubOnce(&stats));
    const uint64_t reads = faults.HitCount("storage.page.read") - before;
    faults.DisarmAll();
    EXPECT_GE(reads, hit) << "the flip never fired";
    EXPECT_EQ(stats.corruptions_found, 0u);
    EXPECT_FALSE(sf.forest->AcquireSnapshot().HasQuarantine());
  }
}

TEST(ScrubberTest, RepairCallbackRestoresTree) {
  ScrubForest sf = MakeScrubForest("scrub_repair");
  CorruptPageByte(ForestTreePath(sf.forest.get(), 2), 1);
  Scrubber scrubber(sf.forest.get(), ScrubOptions(), [&sf] {
    return sf.forest->RebuildQuarantined(&sf.provider);
  });
  ScrubPassStats stats;
  ASSERT_OK(scrubber.ScrubOnce(&stats));
  EXPECT_EQ(stats.corruptions_found, 1u);
  EXPECT_EQ(stats.corruptions_repaired, 1u);
  EXPECT_EQ(stats.corruptions_unrepairable, 0u);
  EXPECT_FALSE(sf.forest->AcquireSnapshot().HasQuarantine());

  ScrubPassStats clean;
  ASSERT_OK(scrubber.ScrubOnce(&clean));
  EXPECT_EQ(clean.corruptions_found, 0u);
}

TEST(ScrubberTest, BackgroundThreadRunsRepeatedPasses) {
  ScrubForest sf = MakeScrubForest("scrub_thread");
  ScrubOptions options;
  options.enabled = true;
  options.interval_ms = 1;
  Scrubber scrubber(sf.forest.get(), options);
  scrubber.Start();
  scrubber.Start();  // Idempotent.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (scrubber.passes_completed() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(scrubber.passes_completed(), 2u);
  scrubber.Stop();
  scrubber.Stop();  // Idempotent.
  const uint64_t after_stop = scrubber.passes_completed();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(scrubber.passes_completed(), after_stop);
}

TEST(ScrubberTest, ThrottledPassStillCoversEverything) {
  ScrubForest sf = MakeScrubForest("scrub_throttle");
  ScrubOptions options;
  options.pages_per_second = 2000;  // Gentle but non-zero budget.
  Scrubber scrubber(sf.forest.get(), options);
  ScrubPassStats stats;
  ASSERT_OK(scrubber.ScrubOnce(&stats));
  EXPECT_EQ(stats.files_scanned, 2u);
  EXPECT_GT(stats.pages_scrubbed, 0u);
  EXPECT_EQ(stats.corruptions_found, 0u);
}

TEST(ScrubberTest, OptionsComeFromEnvironment) {
  ::unsetenv("CUBETREE_SCRUB_ENABLE");
  ::unsetenv("CUBETREE_SCRUB_RATE");
  ::unsetenv("CUBETREE_SCRUB_INTERVAL_MS");
  ScrubOptions off = ScrubOptions::FromEnv();
  EXPECT_FALSE(off.enabled);

  ::setenv("CUBETREE_SCRUB_ENABLE", "1", 1);
  ::setenv("CUBETREE_SCRUB_RATE", "123", 1);
  ::setenv("CUBETREE_SCRUB_INTERVAL_MS", "456", 1);
  ScrubOptions on = ScrubOptions::FromEnv();
  EXPECT_TRUE(on.enabled);
  EXPECT_EQ(on.pages_per_second, 123u);
  EXPECT_EQ(on.interval_ms, 456u);

  ScrubForest sf = MakeScrubForest("scrub_env");
  auto scrubber = Scrubber::CreateFromEnv(sf.forest.get());
  EXPECT_NE(scrubber, nullptr);
  ::setenv("CUBETREE_SCRUB_ENABLE", "0", 1);
  EXPECT_EQ(Scrubber::CreateFromEnv(sf.forest.get()), nullptr);
  ::unsetenv("CUBETREE_SCRUB_ENABLE");
  ::unsetenv("CUBETREE_SCRUB_RATE");
  ::unsetenv("CUBETREE_SCRUB_INTERVAL_MS");
}

}  // namespace
}  // namespace cubetree
