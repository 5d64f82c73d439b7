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
// checker-clean. Engine-level tests cover
// the degraded read-only mode: enter on StorageFull, reject refreshes
// with a retry-after hint, pause scrubber repair, keep serving queries,
// and auto-recover when a probe sees space again.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cubetree/forest.h"
#include "engine/cubetree_engine.h"
#include "engine/degraded.h"
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
  // packed = live + delta; sidecars = 4 bytes/page + 1 KiB of headers;
  // runs = 2x the delta (sorter spill + merge output coexist briefly).
  const uint64_t live = 3 * kPageSize;
  const uint64_t delta = kPageSize + 100;
  const uint64_t packed = live + delta;
  const uint64_t pages = (packed + kPageSize - 1) / kPageSize;
  EXPECT_EQ(EstimateRefreshBytes(live, delta),
            packed + pages * 4 + 1024 + 2 * delta);
  // No delta: still accounts the repacked trees and their sidecars.
  EXPECT_EQ(EstimateRefreshBytes(live, 0), live + 3 * 4 + 1024);
  EXPECT_EQ(EstimateRefreshBytes(0, 0), 1024u);

  // Concurrency-aware: K parallel packers hold K in-flight write
  // frontiers, so each worker past the first adds its slack. K <= 1 must
  // reproduce the serial estimate exactly (0 is "unspecified", not
  // "minus one workers").
  const uint64_t serial = EstimateRefreshBytes(live, delta);
  EXPECT_EQ(EstimateRefreshBytes(live, delta, 1), serial);
  EXPECT_EQ(EstimateRefreshBytes(live, delta, 0), serial);
  EXPECT_EQ(EstimateRefreshBytes(live, delta, 4),
            serial + 3 * kRefreshPackerSlackBytes);
  EXPECT_EQ(EstimateRefreshBytes(0, 0, 8),
            1024u + 7 * kRefreshPackerSlackBytes);
}

TEST_F(EnospcTest, PreflightRefusalReportsShortfall) {
  const std::string dir = MakeTestDir("enospc_preflight");
  // A reserve no volume can satisfy forces the refusal path without
  // actually filling the disk.
  DiskSpaceManager disk(
      DiskSpaceManager::Options{dir, ~uint64_t{0} >> 1});
  const Status refused = disk.Preflight(12345);
  ASSERT_TRUE(refused.IsStorageFull()) << refused.ToString();
  EXPECT_NE(refused.ToString().find("12345"), std::string::npos)
      << refused.ToString();
  EXPECT_NE(refused.ToString().find("more bytes"), std::string::npos)
      << refused.ToString();
  // StorageFull is retriable: space frees up, refreshes come back.
  EXPECT_TRUE(refused.IsRetriable());

  // A zero-byte ask always fits, and a sane reserve admits small asks.
  EXPECT_OK(disk.Preflight(0));
  DiskSpaceManager roomy(DiskSpaceManager::Options{dir, 0});
  EXPECT_OK(roomy.Preflight(kPageSize));
}

TEST_F(EnospcTest, ProbeFailpointForcesStorageFull) {
  const std::string dir = MakeTestDir("enospc_probe");
  DiskSpaceManager disk(DiskSpaceManager::Options{dir, 0});
  ASSERT_OK(FaultInjector::Instance().Arm("disk.probe", "enospc"));
  const auto probed = disk.Probe();
  ASSERT_FALSE(probed.ok());
  EXPECT_TRUE(probed.status().IsStorageFull()) << probed.status().ToString();
  FaultInjector::Instance().DisarmAll();
  ASSERT_OK(disk.Probe().status());
}

// --- Degraded-mode controller units --------------------------------------

TEST_F(EnospcTest, DegradedControllerEntersAndRecovers) {
  const std::string dir = MakeTestDir("enospc_controller");
  DegradedModeController::Options options;
  options.dir = dir;
  options.reserve_bytes = 0;
  DegradedModeController controller(options);
  std::vector<bool> transitions;
  controller.SetOnModeChange([&](bool ro) { transitions.push_back(ro); });

  // Non-StorageFull outcomes never trip the breaker.
  controller.OnWriteStatus(Status::OK());
  controller.OnWriteStatus(Status::IOError("unrelated"));
  EXPECT_FALSE(controller.read_only());
  EXPECT_OK(controller.AdmitWrite(kPageSize));

  // A StorageFull flips read-only (idempotently) and fires the hook once.
  controller.OnWriteStatus(Status::StorageFull("volume full"));
  controller.OnWriteStatus(Status::StorageFull("volume full again"));
  EXPECT_TRUE(controller.read_only());
  ASSERT_EQ(transitions, std::vector<bool>{true});

  // While the volume stays full (the failpoint keeps the probe failing),
  // writes are rejected with the cause and a retry-after hint.
  ASSERT_OK(FaultInjector::Instance().Arm("disk.probe", "enospc"));
  const Status rejected = controller.AdmitWrite(kPageSize);
  ASSERT_TRUE(rejected.IsStorageFull()) << rejected.ToString();
  EXPECT_NE(rejected.ToString().find("volume full"), std::string::npos)
      << rejected.ToString();
  EXPECT_NE(rejected.ToString().find("retry"), std::string::npos)
      << rejected.ToString();
  EXPECT_FALSE(controller.ProbeAndMaybeRecover());
  EXPECT_TRUE(controller.read_only());

  // Space comes back: the next admission probe recovers automatically.
  FaultInjector::Instance().DisarmAll();
  EXPECT_OK(controller.AdmitWrite(kPageSize));
  EXPECT_FALSE(controller.read_only());
  ASSERT_EQ(transitions, (std::vector<bool>{true, false}));
  EXPECT_TRUE(controller.ProbeAndMaybeRecover());
}

// --- The sweeps ----------------------------------------------------------

/// One in-process sweep iteration: refresh with `action` armed at `point`
/// and `refresh_threads` merge-pack workers, then check the full
/// disk-full contract. With several workers the failing one must cancel
/// its siblings and the abort must sweep every worker's partial output,
/// not just the faulting tree's.
void SweepPoint(const char* point, const char* action, int* fired,
                unsigned refresh_threads) {
  SCOPED_TRACE(std::string(point) + ":" + action + " threads=" +
               std::to_string(refresh_threads));
  const std::string dir =
      MakeTestDir(std::string("enospc_sweep_") + point + "_" + action);
  BuildBaseForest(dir);
  const Snapshots& expected = ReferenceSnapshots();
  const std::set<std::string> baseline = ListFiles(dir);

  Status status = Status::OK();
  std::set<std::string> after_abort;
  {
    BufferPool pool(256);
    CubetreeForest::Options forest_options = ForestOptions(dir);
    forest_options.refresh_threads = refresh_threads;
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Open(forest_options, &pool));
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
/// with `action` armed at `point` and `refresh_threads` pack workers. A
/// failure must be the typed, retriable StorageFull, and the load must
/// have committed or left nothing behind.
void SweepLoadPoint(const char* point, const char* action,
                    std::set<std::string>* fired, unsigned refresh_threads) {
  SCOPED_TRACE(std::string("load:") + point + ":" + action + " threads=" +
               std::to_string(refresh_threads));
  const std::string dir =
      MakeTestDir(std::string("enospc_load_") + point + "_" + action);
  const uint64_t hits = FaultInjector::Instance().HitCount(point);
  ASSERT_OK(FaultInjector::Instance().Arm(point, action));
  const Status status = LoadBaseForest(dir, refresh_threads);
  if (FaultInjector::Instance().HitCount(point) > hits) fired->insert(point);
  FaultInjector::Instance().DisarmAll();
  if (!status.ok()) {
    EXPECT_TRUE(status.IsStorageFull()) << status.ToString();
    EXPECT_TRUE(status.IsRetriable()) << status.ToString();
  }
  ExpectLoadCommittedOrGone(dir, /*crashed=*/false, point);
}

/// Sweeps `action` over every registered failpoint, once through the
/// standard refresh and once through the load.
void SweepEveryFailpoint(const char* action, unsigned refresh_threads) {
  int fired = 0;
  std::set<std::string> load_fired;
  for (const auto& point : FaultInjector::RegisteredPoints()) {
    SweepPoint(point.name, action, &fired, refresh_threads);
    if (::testing::Test::HasFatalFailure()) return;
    SweepLoadPoint(point.name, action, &load_fired, refresh_threads);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The refresh path must cross most of the registry, or the sweep would
  // silently test nothing.
  EXPECT_GE(fired, 12) << "only " << fired << " failpoints fired";
  ExpectLoadSweepFired(load_fired);
}

TEST_F(EnospcTest, StorageFullAtEveryFailpoint) {
  SweepEveryFailpoint("enospc", 1);
}

TEST_F(EnospcTest, ShortWriteAtEveryFailpoint) {
  SweepEveryFailpoint("short_write", 1);
}

TEST_F(EnospcTest, StorageFullAtEveryFailpointParallelRefresh) {
  // Same contract, four pack workers: the failing worker's StorageFull
  // must cancel its siblings, and the abort must delete every worker's
  // partial pack and sidecar — a serial-only cleanup loop would leak the
  // non-faulting workers' output here.
  SweepEveryFailpoint("enospc", 4);
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

// --- Engine-level degraded read-only serving -----------------------------

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

TEST_F(EnospcTest, EngineDegradedModeServesReadOnlyAndAutoRecovers) {
  const std::string dir = MakeTestDir("enospc_engine");
  const CubeSchema schema = SmallSchema();
  const std::vector<ViewDef> views = {MakeView(7, {0, 1, 2}),
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
    ASSERT_OK(data->Destroy());
  }

  // Wire the scrubber's repair pause to the degraded-mode hook, as an
  // embedder would at startup.
  Scrubber scrubber(engine->forest(), ScrubOptions{});
  engine->degraded()->SetOnModeChange(
      [&scrubber](bool read_only) { scrubber.SetRepairPaused(read_only); });

  SliceQuery query;
  query.node_mask = 0b001;
  query.attrs = {0};
  query.bindings = {std::nullopt};
  const QueryResult base_expected = GroupByPartkey(base_facts);

  auto* gauge = obs::MetricsRegistry::Instance().GetGauge("degraded.read_only");

  FactsProvider delta_provider(&delta_facts);
  ASSERT_OK_AND_ASSIGN(auto delta,
                       builder.ComputeAll(views, &delta_provider, "delta"));

  // The volume "fills": the refresh preflight refuses with StorageFull
  // and the engine flips read-only.
  ASSERT_OK(FaultInjector::Instance().Arm("disk.preflight", "enospc"));
  const Status full = engine->ApplyDelta(delta.get());
  ASSERT_TRUE(full.IsStorageFull()) << full.ToString();
  EXPECT_TRUE(engine->degraded()->read_only());
  EXPECT_TRUE(scrubber.repair_paused());
  EXPECT_EQ(gauge->value(), 1);

  // Further refreshes are rejected up front with a retry-after hint...
  const Status rejected = engine->ApplyDelta(delta.get());
  ASSERT_TRUE(rejected.IsStorageFull()) << rejected.ToString();
  EXPECT_NE(rejected.ToString().find("retry"), std::string::npos)
      << rejected.ToString();

  // ...while queries keep serving the published epoch, answers intact.
  {
    obs::QueryProfile profile;
    ASSERT_OK_AND_ASSIGN(auto result, engine->Execute(query, &profile));
    result.SortRows();
    EXPECT_TRUE(result.SameRowsAs(base_expected))
        << "degraded mode changed query answers";
  }

  // Space frees up: the next refresh admission probes, recovers, and the
  // refresh goes through; the scrubber resumes repairing.
  FaultInjector::Instance().DisarmAll();
  ASSERT_OK(engine->ApplyDelta(delta.get()));
  EXPECT_FALSE(engine->degraded()->read_only());
  EXPECT_FALSE(scrubber.repair_paused());
  EXPECT_EQ(gauge->value(), 0);
  ASSERT_OK(delta->Destroy());

  std::vector<FactTuple> all_facts = base_facts;
  all_facts.insert(all_facts.end(), delta_facts.begin(), delta_facts.end());
  const QueryResult merged_expected = GroupByPartkey(all_facts);
  {
    obs::QueryProfile profile;
    ASSERT_OK_AND_ASSIGN(auto result, engine->Execute(query, &profile));
    result.SortRows();
    EXPECT_TRUE(result.SameRowsAs(merged_expected))
        << "post-recovery refresh lost rows";
  }
}

}  // namespace
}  // namespace cubetree
