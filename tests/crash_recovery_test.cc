// Deterministic crash-recovery harness for the Cubetree refresh pipeline.
//
// The sweep tests enumerate EVERY registered failpoint and interrupt a
// forest refresh at each one — with a real process crash (_Exit in a
// forked child) and with the in-process throw action (sanitizer-friendly)
// — once for a merge-pack refresh and once for a partial (delta-tree)
// refresh followed by a compaction.
// After each interruption the forest is reopened through Recover and must
// come back checker-clean, holding exactly the pre-refresh or the
// post-refresh contents — never a hybrid — with all orphaned files
// collected and a second Recover finding nothing left to do.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/checkers.h"
#include "check/invariant_checker.h"
#include "cubetree/cubetree.h"
#include "cubetree/forest.h"
#include "cubetree/view_def.h"
#include "engine/warehouse.h"
#include "fault/fault_injector.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

ViewDef MakeView(uint32_t id, std::vector<uint32_t> attrs) {
  ViewDef view;
  view.id = id;
  view.attrs = std::move(attrs);
  return view;
}

/// The paper's running example: V1{partkey,suppkey}, V2{suppkey,custkey},
/// V3{partkey}, V4{} — two trees after SelectMapping.
std::vector<ViewDef> PaperViews() {
  return {MakeView(1, {0, 1}), MakeView(2, {1, 2}), MakeView(3, {0}),
          MakeView(4, {})};
}

/// In-memory ViewDataProvider: per-view vectors of records, sorted into
/// pack order on demand.
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

void FillBase(VectorViewProvider* p, const std::vector<ViewDef>& views) {
  int64_t total = 0;
  for (uint32_t a = 1; a <= 12; ++a) {
    for (uint32_t b = 1; b <= 4; ++b) {
      p->Add(views[0], {a, b}, AggValue{int64_t(a * 100 + b), 1});
      p->Add(views[1], {b, a}, AggValue{int64_t(b * 10 + a), 1});
    }
    p->Add(views[2], {a}, AggValue{int64_t(a), 1});
    total += a;
  }
  p->Add(views[3], {}, AggValue{total, 12});
}

/// Half-overlapping delta: merges with existing groups and adds fresh ones.
void FillDelta(VectorViewProvider* p, const std::vector<ViewDef>& views) {
  for (uint32_t a = 7; a <= 18; ++a) {
    p->Add(views[0], {a, 2}, AggValue{int64_t(a), 1});
    p->Add(views[1], {2, a}, AggValue{int64_t(a * 2), 1});
    p->Add(views[2], {a}, AggValue{int64_t(a * 3), 1});
  }
  p->Add(views[3], {}, AggValue{99, 12});
}

CubetreeForest::Options ForestOptions(const std::string& dir) {
  CubetreeForest::Options options;
  options.dir = dir;
  options.name = "f";
  return options;
}

/// Builds the base forest in `dir` and closes it again.
void BuildBaseForest(const std::string& dir) {
  BufferPool pool(256);
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Create(ForestOptions(dir), &pool));
  const auto views = PaperViews();
  VectorViewProvider provider;
  FillBase(&provider, views);
  ASSERT_OK(forest->Build(views, &provider));
}

/// Forest contents as one sorted list of "view:coords=sum:count" strings,
/// aggregated by group key so main+delta splits compare equal to merged
/// trees. Directory-independent, so snapshots from different dirs compare.
using Contents = std::vector<std::string>;

Contents Dump(CubetreeForest* forest) {
  std::map<std::string, std::pair<int64_t, uint64_t>> groups;
  const ForestSnapshot snap = forest->AcquireSnapshot();
  for (const ViewDef& view : forest->views()) {
    EXPECT_FALSE(snap.IsViewQuarantined(view.id)) << view.id;
    auto tree_result = snap.TreeForView(view.id);
    EXPECT_TRUE(tree_result.ok()) << tree_result.status().ToString();
    if (!tree_result.ok()) continue;
    std::vector<std::optional<Coord>> open(view.arity(), std::nullopt);
    EXPECT_OK(tree_result.value()->QuerySlice(
        view.id, open, [&](const Coord* coords, const AggValue& agg) {
          std::string key = std::to_string(view.id);
          for (size_t i = 0; i < view.arity(); ++i) {
            key += "," + std::to_string(coords[i]);
          }
          auto& group = groups[key];
          group.first += agg.sum;
          group.second += agg.count;
        }));
  }
  Contents out;
  for (const auto& [key, agg] : groups) {
    out.push_back(key + "=" + std::to_string(agg.first) + ":" +
                  std::to_string(agg.second));
  }
  return out;
}

/// Reference snapshots, computed once in a scratch dir with no faults
/// armed: the forest contents before and after the standard refresh.
struct Snapshots {
  Contents before;
  Contents after;
};

const Snapshots& ReferenceSnapshots() {
  static const Snapshots* snapshots = [] {
    // ct-lint: allow(no-naked-new)
    auto* s = new Snapshots();  // Intentionally leaked static snapshot.
    const std::string dir = MakeTestDir("crash_reference");
    BuildBaseForest(dir);
    BufferPool pool(256);
    auto forest =
        std::move(CubetreeForest::Open(ForestOptions(dir), &pool).value());
    s->before = Dump(forest.get());
    VectorViewProvider delta;
    FillDelta(&delta, PaperViews());
    Status applied = forest->ApplyDelta(&delta);
    EXPECT_OK(applied);
    s->after = Dump(forest.get());
    return s;
  }();
  return *snapshots;
}

/// The refresh workloads the sweeps interrupt. Both apply the standard
/// delta, so either one ends at the reference "after" contents.
enum class Workload { kMerge, kPartialThenCompact };
constexpr Workload kWorkloads[] = {Workload::kMerge,
                                   Workload::kPartialThenCompact};

std::string WorkloadName(Workload workload) {
  return workload == Workload::kMerge ? "merge" : "partial+compact";
}

/// Reopens the forest and runs `workload` with the standard delta: one
/// merge-pack refresh, or a partial refresh then a compaction. Returns the
/// first failing status.
Status OpenAndRefresh(const std::string& dir,
                      Workload workload = Workload::kMerge) {
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

/// Forked child: arm `failpoint` with the crash action and run the refresh
/// workload. Exits 0 when the refresh completes (the failpoint was not on
/// this workload's path), kCrashExitCode on the simulated crash, and a
/// distinct code on any unexpected error.
int RunCrashChild(const std::string& dir, const char* failpoint,
                  Workload workload) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (!FaultInjector::Instance().Arm(failpoint, "crash").ok()) {
      std::_Exit(11);
    }
    const Status status = OpenAndRefresh(dir, workload);
    std::_Exit(status.ok() ? 0 : 12);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  if (!WIFEXITED(wstatus)) return -1;
  return WEXITSTATUS(wstatus);
}

/// Post-interruption invariant: Recover succeeds with nothing quarantined,
/// the contents equal exactly the pre- or post-refresh snapshot, the deep
/// forest checker is clean, and a second Recover finds nothing to do.
void ExpectRecoversToOldOrNew(const std::string& dir, const std::string& at) {
  const Snapshots& expected = ReferenceSnapshots();
  {
    BufferPool pool(256);
    ForestRecoveryReport report;
    auto recovered =
        CubetreeForest::Recover(ForestOptions(dir), &pool, nullptr, &report);
    ASSERT_TRUE(recovered.ok()) << at << ": " << recovered.status().ToString();
    EXPECT_TRUE(report.quarantined_trees.empty())
        << at << ": " << report.ToString();
    const Contents contents = Dump(recovered.value().get());
    EXPECT_TRUE(contents == expected.before || contents == expected.after)
        << at << ": recovered contents match neither generation ("
        << contents.size() << " groups vs " << expected.before.size()
        << " before / " << expected.after.size() << " after)";
  }
  {
    BufferPool pool(256);
    CheckOptions check_options;
    check_options.deep = true;
    ForestChecker checker(dir, "f", &pool, check_options);
    CheckReport report;
    ASSERT_OK(checker.Run(&report));
    EXPECT_EQ(report.errors(), 0u) << at << ":\n" << report.ToString();
  }
  {
    BufferPool pool(256);
    ForestRecoveryReport second;
    auto again =
        CubetreeForest::Recover(ForestOptions(dir), &pool, nullptr, &second);
    ASSERT_TRUE(again.ok()) << at << ": " << again.status().ToString();
    EXPECT_TRUE(second.clean())
        << at << ": recovery is not idempotent — " << second.ToString();
  }
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
    int crashed = 0;
    for (size_t i = 0; i < points.size(); ++i) {
      const std::string at = WorkloadName(workload) + ":" + points[i].name;
      const std::string dir =
          MakeTestDir("crash_fork_" + std::to_string(i));
      BuildBaseForest(dir);
      const int code = RunCrashChild(dir, points[i].name, workload);
      ASSERT_TRUE(code == 0 || code == FaultInjector::kCrashExitCode)
          << at << ": child exited " << code;
      if (code == FaultInjector::kCrashExitCode) ++crashed;
      ExpectRecoversToOldOrNew(dir, at);
    }
    // The refresh path must actually cross most of the registry — a sweep
    // where nothing fires would silently test nothing.
    EXPECT_GE(crashed, 15) << WorkloadName(workload) << ": only " << crashed
                           << " failpoints fired";
  }
}

TEST_F(CrashRecoveryTest, ThrowAtEveryFailpoint) {
  for (Workload workload : kWorkloads) {
    for (const auto& point : FaultInjector::RegisteredPoints()) {
      const std::string dir = MakeTestDir(std::string("crash_throw_") +
                                          point.name);
      BuildBaseForest(dir);
      ASSERT_OK(FaultInjector::Instance().Arm(point.name, "throw"));
      bool crashed = false;
      try {
        const Status status = OpenAndRefresh(dir, workload);
        ASSERT_OK(status);  // Throw-armed points never return an error.
      } catch (const SimulatedCrash& crash) {
        crashed = true;
        EXPECT_EQ(crash.failpoint(), point.name);
      }
      FaultInjector::Instance().DisarmAll();
      (void)crashed;
      ExpectRecoversToOldOrNew(
          dir, "throw:" + WorkloadName(workload) + ":" + point.name);
    }
  }
}

TEST_F(CrashRecoveryTest, ErrorAtEveryFailpoint) {
  for (Workload workload : kWorkloads) {
    for (const auto& point : FaultInjector::RegisteredPoints()) {
      const std::string dir = MakeTestDir(std::string("crash_error_") +
                                          point.name);
      BuildBaseForest(dir);
      PageManager::SetReadRetryPolicy(2, 0);  // Keep read retries cheap.
      ASSERT_OK(FaultInjector::Instance().Arm(point.name, "error"));
      // The refresh either fails with the injected error or succeeds (point
      // off-path, or the protocol absorbs the failure — e.g. post-commit
      // dirsync/gc). Either way the on-disk state must stay two-sided.
      (void)OpenAndRefresh(dir, workload);
      FaultInjector::Instance().DisarmAll();
      PageManager::SetReadRetryPolicy(4, 0);
      ExpectRecoversToOldOrNew(
          dir, "error:" + WorkloadName(workload) + ":" + point.name);
    }
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
  ASSERT_OK(OpenAndRefresh(dir));
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
    (void)OpenAndRefresh(dir);
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
  Status status = OpenAndRefresh(dir);
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
