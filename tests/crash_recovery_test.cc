// Deterministic crash-recovery harness for the Cubetree write pipeline.
//
// The sweep tests enumerate EVERY registered failpoint and interrupt a
// forest write at each one — with a real process crash (_Exit in a forked
// child), with the in-process throw action (sanitizer-friendly) and with
// an injected error — once for the initial load, once for a merge-pack
// refresh and once for a partial (delta-tree) refresh followed by a
// compaction.
// After each interrupted refresh the forest is reopened through Recover
// and must come back checker-clean, holding exactly the pre-refresh or the
// post-refresh contents — never a hybrid — with all orphaned files
// collected and a second Recover finding nothing left to do. An
// interrupted load must have committed, or left nothing a fresh load and
// one Recover do not clear.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "cubetree/forest.h"
#include "engine/warehouse.h"
#include "fault/fault_injector.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"
#include "tests/forest_fixture.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

/// The workloads the sweeps interrupt: the standard load into an empty
/// directory, and two refreshes of the loaded base forest. Both refreshes
/// apply the standard delta, so either one ends at the reference "after"
/// contents.
enum class Workload { kLoad, kMerge, kPartialThenCompact };
constexpr Workload kWorkloads[] = {Workload::kLoad, Workload::kMerge,
                                   Workload::kPartialThenCompact};

std::string WorkloadName(Workload workload) {
  return workload == Workload::kLoad    ? "load"
         : workload == Workload::kMerge ? "merge"
                                        : "partial+compact";
}

/// Prepares `dir` for `workload`: the refreshes start from the base
/// forest, the load from an empty directory.
void PrepareDir(const std::string& dir, Workload workload) {
  if (workload != Workload::kLoad) BuildBaseForest(dir);
}

/// Runs `workload` over `dir`: the standard load, or the forest reopened
/// and refreshed with the standard delta — one merge-pack refresh, or a
/// partial refresh then a compaction. Returns the first failing status.
Status RunWorkload(const std::string& dir,
                   Workload workload = Workload::kMerge) {
  if (workload == Workload::kLoad) return LoadBaseForest(dir);
  BufferPool pool(256);
  auto forest_result = CubetreeForest::Open(ForestOptions(dir), &pool);
  if (!forest_result.ok()) return forest_result.status();
  auto forest = std::move(forest_result).value();
  VectorViewProvider delta;
  FillDelta(&delta, PaperViews());
  if (workload == Workload::kMerge) return forest->ApplyDelta(&delta);
  CT_RETURN_NOT_OK(forest->ApplyDeltaPartial(&delta));
  return forest->Compact();
}

/// The post-interruption invariant of `workload`; `crashed` when the write
/// died without running its abort sweep.
void ExpectConsistent(const std::string& dir, Workload workload,
                      bool crashed, const std::string& at) {
  if (workload == Workload::kLoad) {
    ExpectLoadCommittedOrGone(dir, crashed, at);
  } else {
    ExpectRecoversToOldOrNew(dir, at);
  }
}

/// Each workload must actually cross most of the registry — a sweep where
/// nothing fires would silently test nothing.
void ExpectFired(Workload workload, const std::set<std::string>& fired) {
  if (workload == Workload::kLoad) {
    ExpectLoadSweepFired(fired);
    return;
  }
  EXPECT_GE(fired.size(), 15u) << WorkloadName(workload) << ": only "
                               << fired.size() << " failpoints fired";
}

/// Forked child: arm `failpoint` with the crash action and run `workload`.
/// Exits 0 when the workload completes (the failpoint was not on its
/// path), kCrashExitCode on the simulated crash, and a distinct code on any
/// unexpected error.
int RunCrashChild(const std::string& dir, const char* failpoint,
                  Workload workload) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (!FaultInjector::Instance().Arm(failpoint, "crash").ok()) {
      std::_Exit(11);
    }
    const Status status = RunWorkload(dir, workload);
    std::_Exit(status.ok() ? 0 : 12);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  if (!WIFEXITED(wstatus)) return -1;
  return WEXITSTATUS(wstatus);
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    PageManager::SetReadRetryPolicy(4, 0);
  }
};

// --- The sweeps ---------------------------------------------------------

TEST_F(CrashRecoveryTest, CrashAtEveryFailpoint) {
  const auto& points = FaultInjector::RegisteredPoints();
  ASSERT_GE(points.size(), 20u);
  for (Workload workload : kWorkloads) {
    std::set<std::string> fired;
    for (size_t i = 0; i < points.size(); ++i) {
      const std::string at = WorkloadName(workload) + ":" + points[i].name;
      const std::string dir =
          MakeTestDir("crash_fork_" + std::to_string(i));
      PrepareDir(dir, workload);
      const int code = RunCrashChild(dir, points[i].name, workload);
      ASSERT_TRUE(code == 0 || code == FaultInjector::kCrashExitCode)
          << at << ": child exited " << code;
      if (code != 0) fired.insert(points[i].name);
      ExpectConsistent(dir, workload, /*crashed=*/code != 0, at);
    }
    ExpectFired(workload, fired);
  }
}

TEST_F(CrashRecoveryTest, ThrowAtEveryFailpoint) {
  for (Workload workload : kWorkloads) {
    std::set<std::string> fired;
    for (const auto& point : FaultInjector::RegisteredPoints()) {
      const std::string dir = MakeTestDir(std::string("crash_throw_") +
                                          point.name);
      PrepareDir(dir, workload);
      ASSERT_OK(FaultInjector::Instance().Arm(point.name, "throw"));
      bool crashed = false;
      try {
        const Status status = RunWorkload(dir, workload);
        ASSERT_OK(status);  // Throw-armed points never return an error.
      } catch (const SimulatedCrash& crash) {
        crashed = true;
        fired.insert(point.name);
        EXPECT_EQ(crash.failpoint(), point.name);
      }
      FaultInjector::Instance().DisarmAll();
      ExpectConsistent(dir, workload, crashed,
                       "throw:" + WorkloadName(workload) + ":" + point.name);
    }
    ExpectFired(workload, fired);
  }
}

TEST_F(CrashRecoveryTest, ErrorAtEveryFailpoint) {
  for (Workload workload : kWorkloads) {
    std::set<std::string> fired;
    for (const auto& point : FaultInjector::RegisteredPoints()) {
      const std::string dir = MakeTestDir(std::string("crash_error_") +
                                          point.name);
      PrepareDir(dir, workload);
      PageManager::SetReadRetryPolicy(2, 0);  // Keep read retries cheap.
      const uint64_t hits = FaultInjector::Instance().HitCount(point.name);
      ASSERT_OK(FaultInjector::Instance().Arm(point.name, "error"));
      // The write either fails with the injected error or succeeds (point
      // off-path, or the protocol absorbs the failure — e.g. post-commit
      // dirsync/gc). Either way the on-disk state must stay two-sided.
      (void)RunWorkload(dir, workload);
      if (FaultInjector::Instance().HitCount(point.name) > hits) {
        fired.insert(point.name);
      }
      FaultInjector::Instance().DisarmAll();
      PageManager::SetReadRetryPolicy(4, 0);
      ExpectConsistent(dir, workload, /*crashed=*/false,
                       "error:" + WorkloadName(workload) + ":" + point.name);
    }
    ExpectFired(workload, fired);
  }
}

// --- Targeted scenarios -------------------------------------------------

TEST_F(CrashRecoveryTest, TransientReadErrorsDoNotAbortRefresh) {
  const std::string dir = MakeTestDir("crash_transient");
  BuildBaseForest(dir);
  PageManager::SetReadRetryPolicy(4, 0);
  // Two read attempts fail, the retry loop absorbs them: the refresh must
  // complete and land on the new generation.
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.read", "error(2)"));
  ASSERT_OK(RunWorkload(dir));
  FaultInjector::Instance().DisarmAll();

  BufferPool pool(256);
  ForestRecoveryReport report;
  ASSERT_OK_AND_ASSIGN(auto forest, CubetreeForest::Recover(
                                        ForestOptions(dir), &pool, nullptr,
                                        &report));
  EXPECT_TRUE(report.quarantined_trees.empty()) << report.ToString();
  EXPECT_EQ(Dump(forest.get()), ReferenceSnapshots().after);
}

TEST_F(CrashRecoveryTest, QuarantineAndRebuildFromBaseData) {
  const std::string dir = MakeTestDir("crash_quarantine");
  BuildBaseForest(dir);

  // Smash a page header (and the entries behind it) in tree 0's file: the
  // tree still opens or fails — either way the deep check must quarantine
  // it. The corruption targets the start of a page because slack bytes
  // past a page's live payload are legitimately unchecked.
  const std::string victim = dir + "/f_t0_g0.ctr";
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << victim;
    f.seekp(2 * kPageSize);
    std::string junk(300, '\xFF');
    f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }

  BufferPool pool(256);
  ForestRecoveryReport report;
  ASSERT_OK_AND_ASSIGN(auto forest, CubetreeForest::Recover(
                                        ForestOptions(dir), &pool, nullptr,
                                        &report));
  ASSERT_EQ(report.quarantined_trees.size(), 1u) << report.ToString();
  EXPECT_EQ(report.quarantined_trees[0], 0u);
  EXPECT_TRUE(forest->AcquireSnapshot().HasQuarantine());
  ASSERT_FALSE(report.quarantined_views.empty());

  // Graceful degradation: quarantined views answer Unavailable, the other
  // tree keeps serving.
  size_t available = 0;
  {
    const ForestSnapshot snap = forest->AcquireSnapshot();
    for (const ViewDef& view : forest->views()) {
      auto tree_result = snap.TreeForView(view.id);
      if (snap.IsViewQuarantined(view.id)) {
        ASSERT_FALSE(tree_result.ok());
        EXPECT_TRUE(tree_result.status().IsUnavailable())
            << tree_result.status().ToString();
      } else {
        ASSERT_TRUE(tree_result.ok()) << tree_result.status().ToString();
        ++available;
      }
    }
  }
  EXPECT_GT(available, 0u);

  // Rebuild from base data restores the original contents exactly.
  VectorViewProvider base;
  FillBase(&base, PaperViews());
  ASSERT_OK(forest->RebuildQuarantined(&base));
  EXPECT_FALSE(forest->AcquireSnapshot().HasQuarantine());
  EXPECT_EQ(Dump(forest.get()), ReferenceSnapshots().before);
  forest.reset();

  // The quarantine files are gone and the store is clean again.
  BufferPool pool2(256);
  ForestRecoveryReport second;
  ASSERT_OK_AND_ASSIGN(auto reopened, CubetreeForest::Recover(
                                          ForestOptions(dir), &pool2,
                                          nullptr, &second));
  EXPECT_TRUE(second.clean()) << second.ToString();
  EXPECT_EQ(Dump(reopened.get()), ReferenceSnapshots().before);
}

TEST_F(CrashRecoveryTest, CrashDuringRecoveryIsIdempotent) {
  const std::string dir = MakeTestDir("crash_in_recovery");
  BuildBaseForest(dir);
  // Crash right after the manifest swap: the new generation is committed
  // but the retired generation-0 files are still on disk.
  ASSERT_OK(FaultInjector::Instance().Arm("forest.refresh.commit", "throw"));
  bool crashed = false;
  try {
    (void)RunWorkload(dir);
  } catch (const SimulatedCrash&) {
    crashed = true;
  }
  FaultInjector::Instance().DisarmAll();
  ASSERT_TRUE(crashed);

  // First recovery attempt crashes while collecting orphans...
  ASSERT_OK(FaultInjector::Instance().Arm("forest.recover.gc", "throw@2"));
  bool recovery_crashed = false;
  try {
    BufferPool pool(256);
    (void)CubetreeForest::Recover(ForestOptions(dir), &pool);
  } catch (const SimulatedCrash&) {
    recovery_crashed = true;
  }
  FaultInjector::Instance().DisarmAll();
  ASSERT_TRUE(recovery_crashed);

  // ...and running it again converges: new-generation contents, clean.
  ExpectRecoversToOldOrNew(dir, "crash-in-recovery");
  BufferPool pool(256);
  ASSERT_OK_AND_ASSIGN(auto forest, CubetreeForest::Recover(
                                        ForestOptions(dir), &pool));
  EXPECT_EQ(Dump(forest.get()), ReferenceSnapshots().after);
}

TEST_F(CrashRecoveryTest, FailedManifestSwapKeepsOldGeneration) {
  const std::string dir = MakeTestDir("crash_manifest_error");
  BuildBaseForest(dir);
  ASSERT_OK(FaultInjector::Instance().Arm("forest.manifest.write", "error"));
  Status status = RunWorkload(dir);
  FaultInjector::Instance().DisarmAll();
  EXPECT_TRUE(status.IsIOError()) << status.ToString();

  BufferPool pool(256);
  ForestRecoveryReport report;
  ASSERT_OK_AND_ASSIGN(auto forest, CubetreeForest::Recover(
                                        ForestOptions(dir), &pool, nullptr,
                                        &report));
  EXPECT_TRUE(report.quarantined_trees.empty()) << report.ToString();
  EXPECT_EQ(Dump(forest.get()), ReferenceSnapshots().before);
}

// --- Warehouse-level recovery -------------------------------------------

TEST_F(CrashRecoveryTest, WarehouseRecoversAndRebuildsFromBase) {
  const std::string dir = MakeTestDir("crash_warehouse");
  WarehouseOptions options;
  options.scale_factor = 0.002;  // ~12k fact rows: fast but non-trivial.
  options.dir = dir;
  uint64_t loaded_bytes = 0;
  {
    ASSERT_OK_AND_ASSIGN(auto warehouse, Warehouse::Create(options));
    ASSERT_OK(warehouse->LoadCubetrees().status());
    loaded_bytes = warehouse->cubetrees()->StorageBytes();
    // Crash the first refresh just before the manifest swap becomes
    // visible: on disk the load-time generation must survive.
    ASSERT_OK(
        FaultInjector::Instance().Arm("forest.manifest.rename", "throw"));
    bool crashed = false;
    try {
      (void)warehouse->UpdateCubetrees(0);
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    FaultInjector::Instance().DisarmAll();
    ASSERT_TRUE(crashed);
  }

  // "Next process": recover instead of reloading from scratch.
  {
    ASSERT_OK_AND_ASSIGN(auto warehouse, Warehouse::Create(options));
    ForestRecoveryReport report;
    ASSERT_OK(warehouse->RecoverCubetrees(0, &report).status());
    EXPECT_FALSE(report.removed_orphans.empty()) << report.ToString();
    EXPECT_FALSE(
        warehouse->cubetrees()->forest()->AcquireSnapshot().HasQuarantine());
    EXPECT_EQ(warehouse->cubetrees()->StorageBytes(), loaded_bytes);
  }

  // Corrupt one tree file (a page header — slack bytes are legitimately
  // unchecked) and recover again: the warehouse must rebuild the
  // quarantined views from recomputed base data.
  {
    std::fstream f(dir + "/cbt_t0_g0.ctr",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(2 * kPageSize);
    std::string junk(300, '\xFF');
    f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  {
    ASSERT_OK_AND_ASSIGN(auto warehouse, Warehouse::Create(options));
    ForestRecoveryReport report;
    ASSERT_OK(warehouse->RecoverCubetrees(0, &report).status());
    EXPECT_FALSE(report.quarantined_trees.empty()) << report.ToString();
    EXPECT_FALSE(
        warehouse->cubetrees()->forest()->AcquireSnapshot().HasQuarantine());
    // A refresh over the recovered store works end to end.
    ASSERT_OK(warehouse->UpdateCubetrees(0).status());
  }
}

}  // namespace
}  // namespace cubetree
