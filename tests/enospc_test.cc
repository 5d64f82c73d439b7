// Disk-full fault sweep for the refresh pipeline and the serving engine.
//
// The sweeps arm the `enospc` and `short_write` actions at every
// registered failpoint and drive a forest refresh, and the initial load,
// into each one. The contract under test: the failure surfaces as a
// typed, retriable StorageFull; the aborted write leaks no partial
// pack/run/sidecar files; the old generation keeps answering queries with
// exactly the pre-refresh contents (an aborted load leaves no forest at
// all); and once the fault clears the same write succeeds. A fork-based
// sweep additionally kills the process right after the StorageFull (the
// operator's kill -9 on a wedged box) and requires the store to recover
// checker-clean. The preflight estimate is checked against the bytes each
// kind of transaction writes, and engine-level tests cover the one
// disk-space gate: every refusal sweeps dead files first, leaks no spool,
// keeps queries serving, and the write goes through once space is back.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cubetree/forest.h"
#include "engine/cubetree_engine.h"
#include "engine/warehouse.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "olap/cube_builder.h"
#include "scrub/scrubber.h"
#include "storage/buffer_pool.h"
#include "storage/disk_space.h"
#include "storage/page_manager.h"
#include "tests/forest_fixture.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

class EnospcTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    PageManager::SetReadRetryPolicy(4, 0);
  }
};

// --- Space accounting and preflight units --------------------------------

TEST_F(EnospcTest, EstimateRefreshBytesFormula) {
  // Default caps: a full leaf holds at least 8160 record bytes (255
  // arity-5 or 204 arity-7 entries), an internal node at least 120
  // children (8 dimensions). A page costs its 8 KiB and one 4-byte CRC;
  // each tree adds a meta page and a 16-byte sidecar header.
  const RTreeOptions packed;
  const uint64_t page = kPageSize + 4;
  EXPECT_EQ(EstimateRefreshBytes(packed, 0, 0, 0, 0), 0u);
  // A load of one tree with two views from 3 spool pages: 4 full leaves'
  // worth of records plus a partial leaf per view, one internal level
  // (its nodes: 6 / 119 rounded up, plus the partial one), the meta page.
  EXPECT_EQ(EstimateRefreshBytes(packed, 0, 3 * kPageSize, 1, 2),
            (6 + (1 + 1) + 1) * page + 16);
  // A compaction of two trees with three views over 10 live pages: the
  // old pages bound the new leaves, and no sort runs are charged.
  EXPECT_EQ(EstimateRefreshBytes(packed, 10 * kPageSize, 0, 2, 3),
            (13 + (1 + 2) + 2) * page + 2 * 16);

  // Caps shrink nodes, and the estimate follows: 3 entries per leaf hold
  // at least 36 record bytes (arity 0), and a fan-out of 2 builds four
  // internal levels over 11 leaves.
  RTreeOptions capped;
  capped.max_leaf_entries = 3;
  capped.max_internal_entries = 2;
  EXPECT_EQ(EstimateRefreshBytes(capped, 0, 360, 1, 1),
            (11 + (11 + 4) + 1) * page + 16);
  // Without leaf compression a full leaf of 186 8-dimensional entries may
  // hold nothing but 12-byte arity-0 records: 2,232 record bytes.
  RTreeOptions uncompressed;
  uncompressed.compress_leaves = false;
  EXPECT_EQ(EstimateRefreshBytes(uncompressed, 0, 3 * 2232, 1, 1),
            (4 + (1 + 1) + 1) * page + 16);
}

TEST_F(EnospcTest, PreflightRefusalReportsShortfall) {
  const std::string dir = MakeTestDir("enospc_preflight");
  // A reserve no volume can satisfy forces the refusal path without
  // actually filling the disk.
  ScopedEnv reserve("CUBETREE_DISK_RESERVE_BYTES",
                    std::to_string(~uint64_t{0} >> 1).c_str());
  DiskSpaceManager disk(dir);
  const Status refused = disk.Preflight("merge refresh", 12345);
  ASSERT_TRUE(refused.IsStorageFull()) << refused.ToString();
  EXPECT_NE(refused.ToString().find("merge refresh needs an estimated 12345"),
            std::string::npos)
      << refused.ToString();
  EXPECT_NE(refused.ToString().find("more bytes"), std::string::npos)
      << refused.ToString();
  // StorageFull is retriable: space frees up, refreshes come back.
  EXPECT_TRUE(refused.IsRetriable());

  // A zero-byte ask always fits, and a sane reserve admits small asks.
  EXPECT_OK(disk.Preflight("load", 0));
  reserve.Set("0");
  DiskSpaceManager roomy(dir);
  EXPECT_OK(roomy.Preflight("load", kPageSize));
}

TEST_F(EnospcTest, ProbeFailpointForcesStorageFull) {
  const std::string dir = MakeTestDir("enospc_probe");
  DiskSpaceManager disk(dir);
  ASSERT_OK(FaultInjector::Instance().Arm("disk.probe", "enospc"));
  const auto probed = disk.Probe();
  ASSERT_FALSE(probed.ok());
  EXPECT_TRUE(probed.status().IsStorageFull()) << probed.status().ToString();
  FaultInjector::Instance().DisarmAll();
  ASSERT_OK(disk.Probe().status());
}

/// Runs `txn` twice: first under a one-shot `disk.preflight` refusal, to
/// read the estimate its StorageFull names, then for real. The estimate
/// must cover every tree and sidecar byte the second run creates in `dir`.
/// Returns the estimate and the bytes written.
std::pair<uint64_t, uint64_t> ExpectEstimateCovers(
    const std::string& dir, const std::function<Status()>& txn) {
  EXPECT_OK(FaultInjector::Instance().Arm("disk.preflight", "enospc(1)"));
  const Status refused = txn();
  FaultInjector::Instance().DisarmAll();
  EXPECT_TRUE(refused.IsStorageFull()) << refused.ToString();
  const std::string marker = "needs an estimated ";
  const std::string text = refused.ToString();
  const size_t at = text.find(marker);
  const uint64_t estimate =
      at == std::string::npos ? 0
                              : std::stoull(text.substr(at + marker.size()));

  const std::set<std::string> before = ListFiles(dir);
  EXPECT_OK(txn());
  uint64_t written = 0;
  for (const std::string& name : ListFiles(dir)) {
    if (before.count(name) == 0 &&
        (name.ends_with(".ctr") || name.ends_with(".ctr.crc"))) {
      written += std::filesystem::file_size(dir + "/" + name);
    }
  }
  EXPECT_GT(written, 0u);
  EXPECT_GE(estimate, written) << text;
  return {estimate, written};
}

TEST_F(EnospcTest, PreflightEstimateCoversWhatEachTransactionWrites) {
  // Every kind of transaction over the SF 0.05 warehouse, at one pack
  // worker and at four. The load — spools in, trees out, nothing sorted —
  // must also stay within 10% of what it writes.
  for (const char* threads : {"1", "4"}) {
    SCOPED_TRACE(std::string("threads=") + threads);
    ScopedEnv workers("CUBETREE_REFRESH_THREADS", threads);
    WarehouseOptions options;
    options.scale_factor = 0.05;
    options.dir = MakeTestDir(std::string("enospc_estimate_") + threads);
    ASSERT_OK_AND_ASSIGN(auto warehouse, Warehouse::Create(options));
    const auto [estimate, written] = ExpectEstimateCovers(
        options.dir, [&] { return warehouse->LoadCubetrees().status(); });
    EXPECT_LE(estimate, written + written / 10);
    ExpectEstimateCovers(options.dir, [&] {
      return warehouse->UpdateCubetrees(0).status();
    });
    ExpectEstimateCovers(options.dir, [&] {
      return warehouse->UpdateCubetreesPartial(1).status();
    });
    ExpectEstimateCovers(options.dir, [&] {
      return warehouse->CompactCubetrees().status();
    });
    ASSERT_OK(warehouse->cubetrees()
                  ->forest()
                  ->QuarantineForCorruption(
                      warehouse->cubetree_views().front().id, "",
                      Status::Corruption("test"))
                  .status());
    ExpectEstimateCovers(options.dir, [&] {
      return warehouse->cubetrees()->Repair(
          nullptr, warehouse->BuilderOptions(warehouse->cubetree_io()));
    });
  }

  // Layouts whose leaves hold fewer record bytes than the default ones:
  // the node caps the paper-example program uses (three entries a leaf,
  // two children a node), and uncompressed leaves, which widen each
  // record of the arity-1 view to the tree's three dimensions.
  const std::vector<ViewDef> views = {MakeView(1, {0, 1, 2}),
                                      MakeView(2, {0})};
  auto fill = [&](VectorViewProvider* provider, uint32_t first,
                  uint32_t groups) {
    for (uint32_t a = first; a < first + groups; ++a) {
      provider->Add(views[1], {a}, AggValue{int64_t{a}, 1});
      if (a % 20 == 0) {
        provider->Add(views[0], {a, a % 7 + 1, a % 5 + 1},
                      AggValue{int64_t{a}, 1});
      }
    }
  };
  RTreeOptions small_nodes;
  small_nodes.max_leaf_entries = 3;
  small_nodes.max_internal_entries = 2;
  RTreeOptions uncompressed;
  uncompressed.compress_leaves = false;
  for (const auto& [rtree, groups] :
       {std::pair{small_nodes, 60u}, std::pair{uncompressed, 8000u}}) {
    const std::string name =
        rtree.compress_leaves ? "small_nodes" : "uncompressed";
    SCOPED_TRACE(name);
    const std::string dir = MakeTestDir("enospc_estimate_" + name);
    BufferPool pool(256);
    CubetreeForest::Options options = ForestOptions(dir);
    options.rtree = rtree;
    VectorViewProvider base;
    fill(&base, 1, groups);
    VectorViewProvider delta;  // Half of it overlaps the base.
    fill(&delta, 1 + groups / 2, groups);
    // The refused load is retried on the same forest.
    ASSERT_OK_AND_ASSIGN(auto forest, CubetreeForest::Create(options, &pool));
    ExpectEstimateCovers(dir, [&] { return forest->Build(views, &base); });
    ExpectEstimateCovers(dir, [&] { return forest->ApplyDelta(&delta); });
    ExpectEstimateCovers(dir,
                         [&] { return forest->ApplyDeltaPartial(&delta); });
    ExpectEstimateCovers(dir, [&] { return forest->Compact(); });
  }
}

// --- The sweeps ----------------------------------------------------------

/// One in-process sweep iteration: refresh with `action` armed at `point`,
/// then check the full disk-full contract. With several merge-pack workers
/// the failing one must cancel its siblings and the abort must sweep every
/// worker's partial output, not just the faulting tree's.
void SweepPoint(const char* point, const char* action, int* fired) {
  SCOPED_TRACE(std::string(point) + ":" + action);
  const std::string dir =
      MakeTestDir(std::string("enospc_sweep_") + point + "_" + action);
  BuildBaseForest(dir);
  const Snapshots& expected = ReferenceSnapshots();
  const std::set<std::string> baseline = ListFiles(dir);

  Status status = Status::OK();
  std::set<std::string> after_abort;
  {
    BufferPool pool(256);
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Open(ForestOptions(dir), &pool));
    PageManager::SetReadRetryPolicy(2, 0);  // Keep read retries cheap.
    ASSERT_OK(FaultInjector::Instance().Arm(point, action));
    VectorViewProvider delta;
    FillDelta(&delta, PaperViews());
    status = forest->ApplyDelta(&delta);
    FaultInjector::Instance().DisarmAll();
    PageManager::SetReadRetryPolicy(4, 0);
    if (!status.ok()) {
      ++*fired;
      // The one acceptable failure is the typed, retriable StorageFull.
      EXPECT_TRUE(status.IsStorageFull()) << status.ToString();
      EXPECT_TRUE(status.IsRetriable()) << status.ToString();
      // The forest keeps serving in-process: exactly the old epoch when
      // the refresh aborted, exactly the new one when the failure landed
      // past the commit point (forest.refresh.commit) — never a hybrid.
      const Contents served = Dump(forest.get());
      EXPECT_TRUE(served == expected.before || served == expected.after)
          << "refresh hit by " << action << " serves a hybrid generation";
      after_abort = ListFiles(dir);
    } else {
      EXPECT_EQ(Dump(forest.get()), expected.after);
    }
  }

  // The store on disk holds exactly one generation and recovers clean.
  const Contents recovered = ExpectRecoversToOldOrNew(dir, point);

  if (!status.ok() && recovered == expected.before) {
    // The refresh aborted before commit: no partial pack, sidecar, or run
    // file may outlive the abort (the manifest draft excepted).
    for (const std::string& name : after_abort) {
      EXPECT_TRUE(baseline.count(name) != 0 || AllowedAbortResidue(name))
          << "leaked partial file after aborted refresh: " << name;
    }
    // The fault has cleared: the same refresh now succeeds end to end.
    BufferPool pool(256);
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Recover(ForestOptions(dir), &pool));
    VectorViewProvider delta;
    FillDelta(&delta, PaperViews());
    ASSERT_OK(forest->ApplyDelta(&delta));
    EXPECT_EQ(Dump(forest.get()), expected.after);
  }
}

/// One load sweep iteration: the standard load into an empty directory
/// with `action` armed at `point`. A failure must be the typed, retriable
/// StorageFull, and the load must have committed or left nothing behind.
void SweepLoadPoint(const char* point, const char* action,
                    std::set<std::string>* fired) {
  SCOPED_TRACE(std::string("load:") + point + ":" + action);
  const std::string dir =
      MakeTestDir(std::string("enospc_load_") + point + "_" + action);
  const uint64_t hits = FaultInjector::Instance().HitCount(point);
  ASSERT_OK(FaultInjector::Instance().Arm(point, action));
  const Status status = LoadBaseForest(dir);
  if (FaultInjector::Instance().HitCount(point) > hits) fired->insert(point);
  FaultInjector::Instance().DisarmAll();
  if (!status.ok()) {
    EXPECT_TRUE(status.IsStorageFull()) << status.ToString();
    EXPECT_TRUE(status.IsRetriable()) << status.ToString();
  }
  ExpectLoadCommittedOrGone(dir, /*crashed=*/false, point);
}

/// Sweeps `action` over every registered failpoint, once through the
/// standard refresh and once through the load, at `threads` pack workers.
void SweepEveryFailpoint(const char* action, const char* threads) {
  SCOPED_TRACE(::testing::Message() << "threads=" << threads);
  ScopedEnv workers("CUBETREE_REFRESH_THREADS", threads);
  int fired = 0;
  std::set<std::string> load_fired;
  for (const auto& point : FaultInjector::RegisteredPoints()) {
    SweepPoint(point.name, action, &fired);
    if (::testing::Test::HasFatalFailure()) return;
    SweepLoadPoint(point.name, action, &load_fired);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The refresh path must cross most of the registry, or the sweep would
  // silently test nothing.
  EXPECT_GE(fired, 12) << "only " << fired << " failpoints fired";
  ExpectLoadSweepFired(load_fired);
}

TEST_F(EnospcTest, StorageFullAtEveryFailpoint) {
  SweepEveryFailpoint("enospc", "1");
}

TEST_F(EnospcTest, ShortWriteAtEveryFailpoint) {
  SweepEveryFailpoint("short_write", "1");
}

TEST_F(EnospcTest, StorageFullAtEveryFailpointParallelRefresh) {
  // Same contract, four pack workers: the failing worker's StorageFull
  // must cancel its siblings, and the abort must delete every worker's
  // partial pack and sidecar — a serial-only cleanup loop would leak the
  // non-faulting workers' output here.
  SweepEveryFailpoint("enospc", "4");
}

/// Forked child: arm `failpoint` with enospc, refresh, and exit — the
/// process dies with the volume still full, as when an operator kills a
/// wedged writer. Exit codes: 0 refresh OK (point off-path), 20 typed
/// StorageFull, 12 wrong error type, 11 arm failure.
int RunEnospcChild(const std::string& dir, const char* failpoint) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (!FaultInjector::Instance().Arm(failpoint, "enospc").ok()) {
      std::_Exit(11);
    }
    PageManager::SetReadRetryPolicy(2, 0);
    Status status = Status::OK();
    {
      BufferPool pool(256);
      auto forest_result = CubetreeForest::Open(ForestOptions(dir), &pool);
      if (!forest_result.ok()) {
        status = forest_result.status();
      } else {
        VectorViewProvider delta;
        FillDelta(&delta, PaperViews());
        status = forest_result.value()->ApplyDelta(&delta);
      }
    }
    if (status.ok()) std::_Exit(0);
    std::_Exit(status.IsStorageFull() ? 20 : 12);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  if (!WIFEXITED(wstatus)) return -1;
  return WEXITSTATUS(wstatus);
}

TEST_F(EnospcTest, ProcessDeathAfterStorageFullLeavesStoreRecoverable) {
  const auto& points = FaultInjector::RegisteredPoints();
  ASSERT_GE(points.size(), 20u);
  int fired = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    const std::string dir = MakeTestDir("enospc_fork_" + std::to_string(i));
    BuildBaseForest(dir);
    const int code = RunEnospcChild(dir, points[i].name);
    ASSERT_TRUE(code == 0 || code == 20)
        << points[i].name << ": child exited " << code;
    if (code == 20) ++fired;
    ExpectRecoversToOldOrNew(dir, points[i].name);
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(fired, 12) << "only " << fired << " failpoints fired";
}

// --- Online space reclamation --------------------------------------------

TEST_F(EnospcTest, ReclaimSpaceCollectsLeakedFilesWithoutRestart) {
  const std::string dir = MakeTestDir("enospc_reclaim");
  BuildBaseForest(dir);
  BufferPool pool(256);
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Open(ForestOptions(dir), &pool));

  // Veto the post-commit unlink of the retired generation: the refresh
  // succeeds but the old files leak, exactly the dead space a preflight
  // under pressure wants back.
  ASSERT_OK(FaultInjector::Instance().Arm("forest.refresh.gc", "error"));
  VectorViewProvider delta;
  FillDelta(&delta, PaperViews());
  ASSERT_OK(forest->ApplyDelta(&delta));
  FaultInjector::Instance().DisarmAll();

  const auto gc = forest->GcStats();
  ASSERT_GT(gc.unreclaimed_files, 0u);

  // The online sweep removes the leaked files — no reopen, no Recover —
  // and the live generation keeps serving.
  const uint64_t reclaimed = forest->ReclaimSpace();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(Dump(forest.get()), ReferenceSnapshots().after);
  // Everything left on disk belongs to the live generation (or is the
  // manifest); a second sweep finds nothing.
  EXPECT_EQ(forest->ReclaimSpace(), 0u);
  forest.reset();
  ExpectRecoversToOldOrNew(dir, "reclaim");
}

// --- The one disk-space gate, seen from the engine -----------------------

CubeSchema SmallSchema() {
  CubeSchema schema;
  schema.attr_names = {"partkey", "suppkey", "custkey"};
  schema.attr_domains = {30, 8, 20};
  return schema;
}

class FactsProvider : public FactProvider {
 public:
  explicit FactsProvider(const std::vector<FactTuple>* facts)
      : facts_(facts) {}
  Result<std::unique_ptr<FactSource>> Open() override {
    return std::unique_ptr<FactSource>(new VectorFactSource(facts_));
  }

 private:
  const std::vector<FactTuple>* facts_;
};

std::vector<FactTuple> MakeFacts(uint64_t seed, int n) {
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

/// Brute-force group-by-partkey over raw facts, sorted for comparison.
QueryResult GroupByPartkey(const std::vector<FactTuple>& facts) {
  QueryResult result;
  std::map<std::vector<Coord>, AggValue> groups;
  for (const FactTuple& t : facts) {
    AggValue& agg = groups[{t.attr_values[0]}];
    agg.sum += t.measure;
    agg.count += 1;
  }
  for (auto& [key, agg] : groups) result.rows.push_back({key, agg});
  result.SortRows();
  return result;
}

TEST_F(EnospcTest, RefusedRefreshLeavesNoSpool) {
  // The increment's spools exist only for the refresh that reads them: a
  // refused refresh must not leave them on the very volume it protects.
  WarehouseOptions options;
  options.scale_factor = 0.005;
  options.dir = MakeTestDir("enospc_spools");
  ASSERT_OK_AND_ASSIGN(auto warehouse, Warehouse::Create(options));
  ASSERT_OK(warehouse->LoadCubetrees().status());
  ASSERT_OK(FaultInjector::Instance().Arm("disk.preflight", "enospc"));
  const auto merge = warehouse->UpdateCubetrees(0);
  ASSERT_TRUE(merge.status().IsStorageFull()) << merge.status().ToString();
  const auto delta = warehouse->UpdateCubetreesPartial(0);
  ASSERT_TRUE(delta.status().IsStorageFull()) << delta.status().ToString();
  FaultInjector::Instance().DisarmAll();
  for (const std::string& name : ListFiles(options.dir)) {
    EXPECT_FALSE(name.ends_with(".spl")) << "leaked spool " << name;
  }
}

TEST_F(EnospcTest, EngineRefusesWritesOnFullVolumeAndKeepsServing) {
  const std::string dir = MakeTestDir("enospc_engine");
  const CubeSchema schema = SmallSchema();
  // The top view and a sort-order replica of it land in two trees, so a
  // quarantined tree's queries have a healthy route and repair a source.
  const std::vector<ViewDef> views = {MakeView(7, {0, 1, 2}),
                                      MakeView(8, {2, 1, 0}),
                                      MakeView(1, {0}), MakeView(0, {})};
  const std::vector<FactTuple> base_facts = MakeFacts(31, 1500);
  const std::vector<FactTuple> delta_facts = MakeFacts(77, 400);

  CubeBuilder::Options build_options;
  build_options.temp_dir = dir;
  build_options.sort_budget_bytes = 1 << 18;
  CubeBuilder builder(schema, build_options);

  BufferPool pool(512);
  CubetreeEngine::Options options;
  options.dir = dir;
  ASSERT_OK_AND_ASSIGN(auto engine,
                       CubetreeEngine::Create(schema, options, &pool));
  {
    FactsProvider provider(&base_facts);
    ASSERT_OK_AND_ASSIGN(auto data,
                         builder.ComputeAll(views, &provider, "base"));
    ASSERT_OK(engine->Load(views, data.get()));
  }
  Scrubber scrubber(engine->forest(), ScrubOptions{}, [&] {
    return engine->Repair(nullptr, build_options);
  });

  SliceQuery query;
  query.node_mask = 0b001;
  query.attrs = {0};
  query.bindings = {std::nullopt};
  auto expect_answers = [&](const QueryResult& expected, const char* when) {
    obs::QueryProfile profile;
    auto result = engine->Execute(query, &profile);
    ASSERT_TRUE(result.ok()) << when << ": " << result.status().ToString();
    result->SortRows();
    EXPECT_TRUE(result->SameRowsAs(expected)) << when;
  };
  const QueryResult base_expected = GroupByPartkey(base_facts);

  FactsProvider delta_provider(&delta_facts);
  ASSERT_OK_AND_ASSIGN(auto delta,
                       builder.ComputeAll(views, &delta_provider, "delta"));
  obs::Counter* refusals =
      obs::MetricsRegistry::Instance().GetCounter("disk.preflight_refusals");
  const uint64_t refusals_before = refusals->value();

  // The volume "fills": every refresh is refused up front with a typed,
  // retriable StorageFull naming the shortfall, and each refusal runs the
  // reclaim sweep first — an orphan tree file that appears between the
  // two refusals is gone after the second.
  ASSERT_OK(FaultInjector::Instance().Arm("disk.preflight", "enospc"));
  const std::string orphan = dir + "/cbt_t0_g99.ctr";
  for (int attempt = 0; attempt < 2; ++attempt) {
    SCOPED_TRACE(attempt);
    const Status refused = engine->ApplyDelta(delta.get());
    ASSERT_TRUE(refused.IsStorageFull()) << refused.ToString();
    EXPECT_TRUE(refused.IsRetriable());
    EXPECT_NE(refused.ToString().find("merge refresh needs an estimated"),
              std::string::npos)
        << refused.ToString();
    EXPECT_NE(refused.ToString().find("more bytes"), std::string::npos)
        << refused.ToString();
    expect_answers(base_expected, "after a refusal");
    if (attempt == 0) {
      std::ofstream(orphan) << std::string(kPageSize, 'x');
    }
  }
  EXPECT_FALSE(std::filesystem::exists(orphan))
      << "the second refusal did not sweep dead files first";
  EXPECT_EQ(refusals->value(), refusals_before + 2);

  // Corruption found while the volume is full: the scrubber quarantines
  // the tree, the preflight refuses its repair (counted unrepairable), and
  // queries route around the tree to the replica.
  ForestSnapshot snapshot = engine->forest()->AcquireSnapshot();
  ASSERT_OK_AND_ASSIGN(Cubetree * tree, snapshot.TreeForView(1));
  const std::string tree_path = tree->rtree()->path();
  snapshot.Release();
  {
    // Flip one byte of the first leaf: only its checksum can tell.
    std::fstream file(tree_path,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(kPageSize + 123);
    const char byte = static_cast<char>(file.get());
    file.seekp(kPageSize + 123);
    file.put(static_cast<char>(byte ^ 0xFF));
  }
  ScrubPassStats stats;
  ASSERT_OK(scrubber.ScrubOnce(&stats));
  EXPECT_EQ(stats.corruptions_found, 1u);
  EXPECT_EQ(stats.corruptions_repaired, 0u);
  EXPECT_EQ(stats.corruptions_unrepairable, 1u);
  EXPECT_TRUE(engine->forest()->AcquireSnapshot().IsViewQuarantined(1));
  expect_answers(base_expected, "with the tree quarantined");

  // Space is back: the next scrub pass repairs the tree before it scans,
  // the refresh then goes through, and the answers are the brute-force
  // sums over base and delta facts.
  FaultInjector::Instance().DisarmAll();
  ASSERT_OK(scrubber.ScrubOnce(&stats));
  EXPECT_EQ(stats.corruptions_found, 0u);
  EXPECT_EQ(stats.corruptions_repaired, 1u);
  EXPECT_EQ(stats.corruptions_unrepairable, 0u);
  EXPECT_FALSE(engine->forest()->AcquireSnapshot().HasQuarantine());
  ASSERT_OK(engine->ApplyDelta(delta.get()));
  std::vector<FactTuple> all_facts = base_facts;
  all_facts.insert(all_facts.end(), delta_facts.begin(), delta_facts.end());
  expect_answers(GroupByPartkey(all_facts), "after the refresh");
}

}  // namespace
}  // namespace cubetree
