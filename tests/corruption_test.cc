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

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cubetree/forest.h"
#include "cubetree/view_def.h"
#include "engine/cubetree_engine.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "olap/cube_builder.h"
#include "olap/query_model.h"
#include "scrub/scrubber.h"
#include "sort/external_sorter.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

CubeSchema SmallSchema() {
  CubeSchema schema;
  schema.attr_names = {"partkey", "suppkey", "custkey"};
  schema.attr_domains = {30, 8, 20};
  return schema;
}

ViewDef MakeView(uint32_t id, std::vector<uint32_t> attrs) {
  ViewDef v;
  v.id = id;
  v.attrs = std::move(attrs);
  return v;
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
    Rng rng(47);
    for (int i = 0; i < 4000; ++i) {
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
        MakeView(1000, {1, 2, 0}),  // (s,c,p) replica of the top view.
        MakeView(1001, {2, 0, 1}),  // (c,p,s) replica of the top view.
    };
    pool_ = std::make_unique<BufferPool>(kPoolPages);
    auto data = Compute(views_, facts_, "base");
    CubetreeEngine::Options options;
    options.dir = dir_;
    options.one_tree_per_view = true;
    auto created = CubetreeEngine::Create(schema_, options, pool_.get());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    cbt_ = std::move(created).value();
    ASSERT_OK(cbt_->Load(views_, data.get()));
    ASSERT_OK(data->Destroy());
  }

  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    cbt_.reset();
    pool_.reset();
  }

  std::unique_ptr<ComputedViews> Compute(const std::vector<ViewDef>& views,
                                         const std::vector<FactTuple>& facts,
                                         const std::string& tag) {
    CubeBuilder::Options options;
    options.temp_dir = dir_;
    options.sort_budget_bytes = 1 << 18;
    CubeBuilder builder(schema_, options);
    struct Provider : FactProvider {
      explicit Provider(const std::vector<FactTuple>* f) : facts(f) {}
      Result<std::unique_ptr<FactSource>> Open() override {
        return std::unique_ptr<FactSource>(new VectorFactSource(facts));
      }
      const std::vector<FactTuple>* facts;
    } provider(&facts);
    auto result = builder.ComputeAll(views, &provider, tag);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
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
    ASSERT_OK(cbt_->RepairFromReplicas());
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

  // All three {0,1,2} views are quarantined and none can cover another:
  // the replica fast path must refuse (leaving the forest unchanged), and
  // the base-data rebuild — the warehouse recovery fallback — restores it.
  Status replica_repair = cbt_->RepairFromReplicas();
  ASSERT_TRUE(replica_repair.IsUnavailable()) << replica_repair.ToString();
  ASSERT_TRUE(cbt_->forest()->AcquireSnapshot().HasQuarantine());

  auto data = Compute(views_, facts_, "rebuild");
  ASSERT_OK(cbt_->RebuildQuarantined(data.get()));
  ASSERT_OK(data->Destroy());
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
    // restore via the replica path before the next round.
    if (cbt_->forest()->AcquireSnapshot().HasQuarantine()) {
      Status repaired = cbt_->RepairFromReplicas();
      if (repaired.IsUnavailable()) {
        auto data = Compute(views_, facts_, "sweep_rebuild");
        ASSERT_OK(cbt_->RebuildQuarantined(data.get()));
        ASSERT_OK(data->Destroy());
      } else {
        ASSERT_OK(repaired);
      }
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
                    [this] { return cbt_->RepairFromReplicas(); });
  ScrubPassStats stats;
  ASSERT_OK(scrubber.ScrubOnce(&stats));
  EXPECT_EQ(stats.corruptions_found, 1u);  // Scan stops at first finding.
  EXPECT_EQ(stats.corruptions_repaired, 1u);
  EXPECT_EQ(stats.corruptions_unrepairable, 0u);
  EXPECT_FALSE(cbt_->forest()->AcquireSnapshot().HasQuarantine());
  ExpectMatchesReference(TopQuery());

  // The rebuilt generation scrubs clean.
  ScrubPassStats clean;
  ASSERT_OK(scrubber.ScrubOnce(&clean));
  EXPECT_EQ(clean.corruptions_found, 0u);
  EXPECT_EQ(clean.files_unverified, 0u);
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
  EXPECT_EQ(stats.files_unverified, 0u);
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
