// Online-refresh concurrency suite: generation snapshots, epoch-based file
// reclamation, query deadlines/cancellation — and a multithreaded stress
// harness racing reader threads against a stream of refresh cycles with
// failpoints armed.
//
// The stress tests carry the suite's core invariant: a pinned snapshot is
// a single committed generation, so every view's total count inside one
// snapshot advances in lockstep (the base plus the same number of whole
// refresh cycles). A reader that ever observes views from two different
// generations — or a torn, mid-refresh state — breaks the lockstep and
// fails loudly. Run under TSan via CUBETREE_SANITIZE=thread.

#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "cubetree/cubetree.h"
#include "cubetree/forest.h"
#include "cubetree/view_def.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sort/external_sorter.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

using Clock = std::chrono::steady_clock;

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

/// In-memory ViewDataProvider (same idiom as the crash-recovery suite).
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
    return std::unique_ptr<RecordStream>(
        new MemoryRecordStream(std::move(flat), ViewRecordBytes(arity)));
  }

 private:
  std::map<uint32_t, std::vector<std::vector<char>>> data_;
};

constexpr uint64_t kBaseCount = 12;   // Per-view total count after Build.
constexpr uint64_t kCycleCount = 8;   // Added to every view per cycle.

/// Base load: 12 rows (total count 12) in every view, including the
/// arity-0 view, so the lockstep invariant starts from equal counts.
void FillBase(VectorViewProvider* p, const std::vector<ViewDef>& views) {
  for (uint32_t k = 1; k <= kBaseCount; ++k) {
    p->Add(views[0], {k, 1}, AggValue{int64_t(k), 1});
    p->Add(views[1], {1, k}, AggValue{int64_t(k * 2), 1});
    p->Add(views[2], {k}, AggValue{int64_t(k * 3), 1});
  }
  p->Add(views[3], {}, AggValue{77, kBaseCount});
}

/// Refresh cycle `c` (1-based): 8 rows with cycle-unique keys in every
/// keyed view plus count-8 in the arity-0 view. Keys never collide across
/// cycles or with the base, so each applied cycle raises every view's
/// total count by exactly kCycleCount — the lockstep invariant.
void FillCycle(VectorViewProvider* p, const std::vector<ViewDef>& views,
               uint32_t cycle) {
  for (uint32_t j = 1; j <= kCycleCount; ++j) {
    const Coord key = 1000 + (cycle - 1) * kCycleCount + j;
    p->Add(views[0], {key, 2}, AggValue{int64_t(key), 1});
    p->Add(views[1], {2, key}, AggValue{int64_t(key), 1});
    p->Add(views[2], {key}, AggValue{int64_t(key), 1});
  }
  p->Add(views[3], {}, AggValue{int64_t(cycle), kCycleCount});
}

CubetreeForest::Options ForestOptions(const std::string& dir) {
  CubetreeForest::Options options;
  options.dir = dir;
  options.name = "f";
  return options;
}

/// Total count per view, read strictly through `snap` (never through the
/// forest's live generation).
Status CountAll(const ForestSnapshot& snap, const std::vector<ViewDef>& views,
                std::vector<uint64_t>* out) {
  out->assign(views.size(), 0);
  for (size_t i = 0; i < views.size(); ++i) {
    CT_ASSIGN_OR_RETURN(Cubetree * tree, snap.TreeForView(views[i].id));
    std::vector<std::optional<Coord>> open(views[i].arity(), std::nullopt);
    CT_RETURN_NOT_OK(tree->QuerySlice(
        views[i].id, open, [&](const Coord*, const AggValue& agg) {
          (*out)[i] += agg.count;
        }));
  }
  return Status::OK();
}

/// Tree/delta files of forest "f" present in `dir` (names like f_t0_g1.ctr).
std::vector<std::string> ForestDataFiles(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return files;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind("f_t", 0) == 0 &&
        name.size() > 4 && name.substr(name.size() - 4) == ".ctr") {
      files.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

class OnlineRefreshTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Instance().DisarmAll();
    PageManager::SetReadRetryPolicy(4, 0);
  }
};

// --- Snapshot isolation & epoch-based reclamation -----------------------

TEST_F(OnlineRefreshTest, SnapshotIsolatedFromFullRefresh) {
  const std::string dir = MakeTestDir("online");
  BufferPool pool(256);
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Create(ForestOptions(dir), &pool));
  const auto views = PaperViews();
  VectorViewProvider base;
  FillBase(&base, views);
  ASSERT_OK(forest->Build(views, &base));

  ForestSnapshot old_snap = forest->AcquireSnapshot();
  ASSERT_TRUE(old_snap.valid());
  const uint64_t old_epoch = old_snap.epoch();
  std::vector<uint64_t> counts;
  ASSERT_OK(CountAll(old_snap, views, &counts));
  for (uint64_t c : counts) EXPECT_EQ(c, kBaseCount);

  const auto files_before = ForestDataFiles(dir);
  VectorViewProvider delta;
  FillCycle(&delta, views, 1);
  ASSERT_OK(forest->ApplyDelta(&delta));

  // The new generation serves new totals; the pinned one is unchanged.
  ForestSnapshot new_snap = forest->AcquireSnapshot();
  EXPECT_GT(new_snap.epoch(), old_epoch);
  ASSERT_OK(CountAll(new_snap, views, &counts));
  for (uint64_t c : counts) EXPECT_EQ(c, kBaseCount + kCycleCount);
  ASSERT_OK(CountAll(old_snap, views, &counts));
  for (uint64_t c : counts) EXPECT_EQ(c, kBaseCount);

  // The replaced generation's files are retired but still on disk: the
  // pinned epoch defers their unlink.
  ForestGcStats gc = forest->GcStats();
  EXPECT_EQ(gc.live_epoch, new_snap.epoch());
  EXPECT_EQ(gc.pinned_epochs, 1u);
  EXPECT_EQ(gc.unreclaimed_files, files_before.size());
  EXPECT_EQ(gc.reclaimed_files, 0u);
  auto files_during = ForestDataFiles(dir);
  for (const std::string& f : files_before) {
    EXPECT_TRUE(std::find(files_during.begin(), files_during.end(), f) !=
                files_during.end())
        << f << " deleted while a snapshot pinned its generation";
  }

  // Dropping the last pin reclaims exactly the replaced files.
  new_snap.Release();
  old_snap.Release();
  gc = forest->GcStats();
  EXPECT_EQ(gc.pinned_epochs, 0u);
  EXPECT_EQ(gc.unreclaimed_files, 0u);
  EXPECT_EQ(gc.reclaimed_files, files_before.size());
  auto files_after = ForestDataFiles(dir);
  for (const std::string& f : files_before) {
    EXPECT_TRUE(std::find(files_after.begin(), files_after.end(), f) ==
                files_after.end())
        << f << " still on disk after its last pinning epoch died";
  }
}

TEST_F(OnlineRefreshTest, SnapshotSurvivesManyRefreshCyclesAndCompact) {
  const std::string dir = MakeTestDir("online");
  BufferPool pool(256);
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Create(ForestOptions(dir), &pool));
  const auto views = PaperViews();
  VectorViewProvider base;
  FillBase(&base, views);
  ASSERT_OK(forest->Build(views, &base));

  ForestSnapshot pinned = forest->AcquireSnapshot();
  const size_t num_trees = ForestDataFiles(dir).size();

  for (uint32_t c = 1; c <= 3; ++c) {
    VectorViewProvider delta;
    FillCycle(&delta, views, c);
    ASSERT_OK(forest->ApplyDelta(&delta));
  }
  VectorViewProvider partial;
  FillCycle(&partial, views, 4);
  ASSERT_OK(forest->ApplyDeltaPartial(&partial));
  ASSERT_OK(forest->Compact());

  // The pinned generation still answers with its original totals.
  std::vector<uint64_t> counts;
  ASSERT_OK(CountAll(pinned, views, &counts));
  for (uint64_t c : counts) EXPECT_EQ(c, kBaseCount);
  ForestSnapshot live = forest->AcquireSnapshot();
  ASSERT_OK(CountAll(live, views, &counts));
  for (uint64_t c : counts) EXPECT_EQ(c, kBaseCount + 4 * kCycleCount);
  live.Release();

  // Intermediate generations were never pinned: their files are already
  // reclaimed even while the first snapshot stays alive. Only the pinned
  // generation's files and the live set remain.
  ForestGcStats gc = forest->GcStats();
  EXPECT_EQ(gc.pinned_epochs, 1u);
  EXPECT_EQ(gc.unreclaimed_files, num_trees);
  EXPECT_EQ(ForestDataFiles(dir).size(), 2 * num_trees);

  pinned.Release();
  gc = forest->GcStats();
  EXPECT_EQ(gc.pinned_epochs, 0u);
  EXPECT_EQ(gc.unreclaimed_files, 0u);
  EXPECT_EQ(ForestDataFiles(dir).size(), num_trees);
}

TEST_F(OnlineRefreshTest, PartialRefreshSharesMainTreeFiles) {
  const std::string dir = MakeTestDir("online");
  BufferPool pool(256);
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Create(ForestOptions(dir), &pool));
  const auto views = PaperViews();
  VectorViewProvider base;
  FillBase(&base, views);
  ASSERT_OK(forest->Build(views, &base));

  ForestSnapshot old_snap = forest->AcquireSnapshot();
  VectorViewProvider delta;
  FillCycle(&delta, views, 1);
  ASSERT_OK(forest->ApplyDeltaPartial(&delta));

  // A partial refresh only adds delta trees: the main files are shared
  // between the old and new generations, so nothing is retired.
  ForestGcStats gc = forest->GcStats();
  EXPECT_EQ(gc.pinned_epochs, 1u);
  EXPECT_EQ(gc.unreclaimed_files, 0u);

  std::vector<uint64_t> counts;
  ASSERT_OK(CountAll(old_snap, views, &counts));
  for (uint64_t c : counts) EXPECT_EQ(c, kBaseCount);
  ForestSnapshot new_snap = forest->AcquireSnapshot();
  ASSERT_OK(CountAll(new_snap, views, &counts));
  for (uint64_t c : counts) EXPECT_EQ(c, kBaseCount + kCycleCount);

  old_snap.Release();
  gc = forest->GcStats();
  EXPECT_EQ(gc.reclaimed_files, 0u);  // Shared files must survive.
  ASSERT_OK(CountAll(new_snap, views, &counts));
  for (uint64_t c : counts) EXPECT_EQ(c, kBaseCount + kCycleCount);
}

TEST_F(OnlineRefreshTest, DeltaPathsAreNotReusedWhilePinned) {
  // A retired file's token unlinks it by path when the last epoch pinning
  // it dies, so a delta generation number must stay unused while such an
  // epoch lives — even after a Compact leaves the live delta list empty.
  const std::string dir = MakeTestDir("online");
  {
    BufferPool pool(256);
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Create(ForestOptions(dir), &pool));
    const auto views = PaperViews();
    VectorViewProvider base;
    FillBase(&base, views);
    ASSERT_OK(forest->Build(views, &base));
    VectorViewProvider cycle1;
    FillCycle(&cycle1, views, 1);
    ASSERT_OK(forest->ApplyDeltaPartial(&cycle1));
    ForestSnapshot pinned = forest->AcquireSnapshot();  // Pins the deltas.
    ASSERT_OK(forest->Compact());
    VectorViewProvider cycle2;
    FillCycle(&cycle2, views, 2);
    ASSERT_OK(forest->ApplyDeltaPartial(&cycle2));

    // Dropping the pin unlinks the compacted-away delta files; every file
    // of the live generation must survive it.
    pinned.Release();
    for (const std::string& path : forest->LiveFiles()) {
      EXPECT_TRUE(FileExists(path)) << path << " unlinked while live";
    }
  }
  // The store on disk still holds base + both cycles.
  BufferPool pool(256);
  ASSERT_OK_AND_ASSIGN(auto reopened,
                       CubetreeForest::Open(ForestOptions(dir), &pool));
  std::vector<uint64_t> counts;
  ASSERT_OK(CountAll(reopened->AcquireSnapshot(), PaperViews(), &counts));
  for (uint64_t c : counts) EXPECT_EQ(c, kBaseCount + 2 * kCycleCount);
}

// --- Deadlines & cancellation -------------------------------------------

TEST_F(OnlineRefreshTest, DeadlineBoundsQueryUnderStorageStall) {
  const std::string dir = MakeTestDir("online");
  {
    BufferPool pool(256);
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Create(ForestOptions(dir), &pool));
    const auto views = PaperViews();
    VectorViewProvider base;
    FillBase(&base, views);
    ASSERT_OK(forest->Build(views, &base));
  }
  // Reopen cold so the scan must hit the (now always-failing) read path.
  BufferPool pool(256);
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Open(ForestOptions(dir), &pool));
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.read", "error"));
  PageManager::SetReadRetryPolicy(4, 2000);

  const auto timeout = std::chrono::milliseconds(100);
  QueryContext ctx = QueryContext::WithTimeout(timeout);
  QueryContext::Scope scope(&ctx);
  const auto start = Clock::now();
  ForestSnapshot snap = forest->AcquireSnapshot();
  std::vector<uint64_t> counts;
  const Status status = CountAll(snap, PaperViews(), &counts);
  const auto elapsed = Clock::now() - start;

  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  // Acceptance bound: a deadlined query returns within 2x its deadline
  // even when storage stalls, because the retry loop's backoff is clipped
  // to the remaining time and every page touch re-checks the context.
  EXPECT_LE(elapsed, 2 * timeout)
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count()
      << "ms for a 100ms deadline";
}

TEST_F(OnlineRefreshTest, CancelUnblocksStalledQueryFromAnotherThread) {
  const std::string dir = MakeTestDir("online");
  {
    BufferPool pool(256);
    ASSERT_OK_AND_ASSIGN(auto forest,
                         CubetreeForest::Create(ForestOptions(dir), &pool));
    const auto views = PaperViews();
    VectorViewProvider base;
    FillBase(&base, views);
    ASSERT_OK(forest->Build(views, &base));
  }
  BufferPool pool(256);
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Open(ForestOptions(dir), &pool));
  ASSERT_OK(FaultInjector::Instance().Arm("storage.page.read", "error"));
  // Effectively unbounded retries: only the cancel can end the query.
  PageManager::SetReadRetryPolicy(1000000, 500);

  QueryContext ctx;
  Status status;
  std::thread worker([&] {
    QueryContext::Scope scope(&ctx);
    ForestSnapshot snap = forest->AcquireSnapshot();
    std::vector<uint64_t> counts;
    status = CountAll(snap, PaperViews(), &counts);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto cancel_time = Clock::now();
  ctx.Cancel();
  worker.join();
  const auto latency = Clock::now() - cancel_time;

  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_LE(latency, std::chrono::seconds(2));
}

// --- Metrics under concurrency -------------------------------------------
//
// The obs registry is bumped from query, refresh and buffer-pool threads
// simultaneously; this runs the whole surface (registration, recording,
// snapshotting) under TSan via the suite's `concurrency` label.
TEST_F(OnlineRefreshTest, MetricsRegistryIsThreadSafeUnderLoad) {
  auto& reg = obs::MetricsRegistry::Instance();
  obs::Counter* counter = reg.GetCounter("online_test.metrics_counter");
  obs::Gauge* gauge = reg.GetGauge("online_test.metrics_gauge");
  obs::Histogram* hist = reg.GetHistogram("online_test.metrics_hist");
  counter->Reset();
  gauge->Reset();
  hist->Reset();

  constexpr int kWriters = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      // Also race first-use registration of per-thread names against the
      // established pointers.
      obs::Counter* own = reg.GetCounter("online_test.metrics_counter");
      for (int i = 0; i < kPerThread; ++i) {
        own->Increment();
        gauge->Add(t % 2 == 0 ? 1 : -1);
        hist->Record(static_cast<uint64_t>(i % 1000 + 1));
      }
    });
  }
  // A reader snapshots concurrently — dumps must not tear or crash.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::JsonValue snap = reg.SnapshotJson();
      EXPECT_NE(snap.Find("counters"), nullptr);
      (void)reg.DumpText();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kWriters) * kPerThread);
  EXPECT_EQ(hist->count(), static_cast<uint64_t>(kWriters) * kPerThread);
  EXPECT_EQ(gauge->value(), 0);
  EXPECT_EQ(hist->max(), 1000u);
}

// --- The stress harness --------------------------------------------------

/// >= 8 reader threads race >= 20 refresh cycles (full, partial, compact)
/// with a transient read failpoint re-armed every cycle. Every reader
/// iteration pins one snapshot and checks the lockstep invariant: all four
/// views report base + k whole cycles, for one k, monotonically
/// non-decreasing per reader. Readers alternate plain and deadlined
/// contexts; deadline/cancel/IO outcomes are tolerated, torn states and
/// cross-generation mixes are not.
void RunReadersVsRefreshStress(unsigned refresh_threads) {
  const std::string dir = MakeTestDir("online");
  BufferPool pool(512);
  CubetreeForest::Options forest_options = ForestOptions(dir);
  forest_options.refresh_threads = refresh_threads;
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Create(forest_options, &pool));
  const auto views = PaperViews();
  VectorViewProvider base;
  FillBase(&base, views);
  ASSERT_OK(forest->Build(views, &base));
  const size_t num_trees = ForestDataFiles(dir).size();

  constexpr int kReaders = 8;
  constexpr uint32_t kCycles = 24;
  // Generous retry ceiling so each cycle's 4-shot transient failpoint is
  // always absorbed by the page-read retry loop.
  PageManager::SetReadRetryPolicy(8, 50);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> good_reads{0};
  std::atomic<uint64_t> tolerated_reads{0};
  std::vector<std::string> reader_errors(kReaders);

  auto reader = [&](int r) {
    uint64_t last_k = 0;
    uint64_t iter = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++iter;
      // Every fourth iteration runs under a tight deadline to exercise
      // the context checks on hit and miss paths concurrently.
      std::optional<QueryContext> ctx;
      if (iter % 4 == 0) {
        ctx.emplace(
            QueryContext::WithTimeout(std::chrono::milliseconds(20)));
      }
      QueryContext::Scope scope(ctx.has_value() ? &*ctx : nullptr);
      ForestSnapshot snap = forest->AcquireSnapshot();
      std::vector<uint64_t> counts;
      const Status status = CountAll(snap, views, &counts);
      if (!status.ok()) {
        if (status.IsDeadlineExceeded() || status.IsCancelled() ||
            status.IsRetriable() || status.IsIOError()) {
          tolerated_reads.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (reader_errors[r].empty()) {
          reader_errors[r] = "read failed: " + status.ToString();
        }
        return;
      }
      // Lockstep invariant: one committed generation, never a mix.
      std::string bad;
      for (size_t i = 1; i < counts.size(); ++i) {
        if (counts[i] != counts[0]) bad = "views disagree";
      }
      if (counts[0] < kBaseCount ||
          (counts[0] - kBaseCount) % kCycleCount != 0) {
        bad = "count is not base + whole cycles";
      }
      const uint64_t k = (counts[0] - kBaseCount) / kCycleCount;
      if (bad.empty() && k < last_k) bad = "snapshot went backwards";
      if (bad.empty() && k > kCycles) bad = "more cycles than applied";
      if (!bad.empty()) {
        if (reader_errors[r].empty()) {
          reader_errors[r] = bad + " at epoch " +
                             std::to_string(snap.epoch()) + ": " +
                             std::to_string(counts[0]) + "/" +
                             std::to_string(counts[1]) + "/" +
                             std::to_string(counts[2]) + "/" +
                             std::to_string(counts[3]);
        }
        return;
      }
      last_k = k;
      good_reads.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader, r);

  // The refresh stream: mostly full merge-pack refreshes, a partial every
  // fifth cycle, a compaction after each partial. A fresh 4-shot transient
  // read fault is armed each cycle, so both refresh builds and concurrent
  // reader scans keep tripping (and absorbing) injected errors.
  std::string refresh_error;
  for (uint32_t c = 1; c <= kCycles && refresh_error.empty(); ++c) {
    EXPECT_OK(FaultInjector::Instance().Arm("storage.page.read",
                                            "error(4)@7"));
    VectorViewProvider delta;
    FillCycle(&delta, views, c);
    Status applied;
    if (c % 5 == 0) {
      applied = forest->ApplyDeltaPartial(&delta);
      if (applied.ok()) applied = forest->Compact();
    } else {
      applied = forest->ApplyDelta(&delta);
    }
    if (!applied.ok()) {
      refresh_error =
          "cycle " + std::to_string(c) + ": " + applied.ToString();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  FaultInjector::Instance().DisarmAll();

  EXPECT_TRUE(refresh_error.empty()) << refresh_error;
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(reader_errors[r].empty())
        << "reader " << r << ": " << reader_errors[r];
  }
  EXPECT_GE(good_reads.load(), static_cast<uint64_t>(kReaders));

  // Quiesced end state: the final generation serves base + all cycles...
  ForestSnapshot final_snap = forest->AcquireSnapshot();
  std::vector<uint64_t> counts;
  ASSERT_OK(CountAll(final_snap, views, &counts));
  for (uint64_t c : counts) {
    EXPECT_EQ(c, kBaseCount + kCycles * kCycleCount);
  }
  final_snap.Release();

  // ...every retired epoch died with its readers, and no retired file
  // leaked to disk: exactly the live tree set remains.
  ForestGcStats gc = forest->GcStats();
  EXPECT_EQ(gc.pinned_epochs, 0u);
  EXPECT_EQ(gc.unreclaimed_files, 0u);
  EXPECT_GT(gc.reclaimed_files, 0u);
  EXPECT_EQ(ForestDataFiles(dir).size(), num_trees);
}

TEST_F(OnlineRefreshTest, StressReadersVsRefreshWithFailpoints) {
  RunReadersVsRefreshStress(1);
}

// The same harness with the refresh worker pool on: each cycle's
// merge-packs run on 4 workers while the readers hammer snapshots and the
// transient read failpoint keeps tripping inside the workers. Lockstep,
// cleanup and GC invariants are identical — parallelism must be
// unobservable except in wall time.
TEST_F(OnlineRefreshTest, StressReadersVsParallelRefreshWithFailpoints) {
  RunReadersVsRefreshStress(4);
}

/// Readers holding snapshots across whole refresh cycles (long-running
/// "dashboard" scans): pins outlive several generations and reclamation
/// happens strictly after the last release, never under a reader.
TEST_F(OnlineRefreshTest, StressLongPinsDeferReclamation) {
  const std::string dir = MakeTestDir("online");
  BufferPool pool(512);
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Create(ForestOptions(dir), &pool));
  const auto views = PaperViews();
  VectorViewProvider base;
  FillBase(&base, views);
  ASSERT_OK(forest->Build(views, &base));
  const size_t num_trees = ForestDataFiles(dir).size();

  constexpr int kReaders = 8;
  constexpr uint32_t kCycles = 20;
  std::atomic<bool> stop{false};
  std::vector<std::string> reader_errors(kReaders);

  // Each reader pins a snapshot, re-reads it several times (its totals
  // must never move), releases, and re-pins a fresh one.
  auto reader = [&](int r) {
    while (!stop.load(std::memory_order_relaxed)) {
      ForestSnapshot snap = forest->AcquireSnapshot();
      std::vector<uint64_t> first, again;
      for (int pass = 0; pass < 3; ++pass) {
        std::vector<uint64_t>* out = pass == 0 ? &first : &again;
        const Status status = CountAll(snap, views, out);
        if (!status.ok()) {
          if (reader_errors[r].empty()) {
            reader_errors[r] = status.ToString();
          }
          return;
        }
        if (pass > 0 && again != first) {
          if (reader_errors[r].empty()) {
            reader_errors[r] = "pinned snapshot changed between passes";
          }
          return;
        }
      }
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader, r);

  std::string refresh_error;
  for (uint32_t c = 1; c <= kCycles && refresh_error.empty(); ++c) {
    VectorViewProvider delta;
    FillCycle(&delta, views, c);
    const Status applied = forest->ApplyDelta(&delta);
    if (!applied.ok()) {
      refresh_error =
          "cycle " + std::to_string(c) + ": " + applied.ToString();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_TRUE(refresh_error.empty()) << refresh_error;
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(reader_errors[r].empty())
        << "reader " << r << ": " << reader_errors[r];
  }

  ForestGcStats gc = forest->GcStats();
  EXPECT_EQ(gc.pinned_epochs, 0u);
  EXPECT_EQ(gc.unreclaimed_files, 0u);
  EXPECT_EQ(ForestDataFiles(dir).size(), num_trees);
}

// Regression for the raw-pointer accessor dangle: the forest's direct
// tree accessors used to hand out a Cubetree* into the live generation,
// which a concurrent refresh could retire and destroy mid-query (nothing
// pinned the generation for the caller). Those accessors are gone; tree
// handles come from snapshots, and a snapshot acquired just before a
// refresh keeps its generation's trees alive — and their possibly-unlinked
// files readable — for as long as the caller holds it. Run under TSan via
// CUBETREE_SANITIZE=thread: with the raw accessors this races on freed
// Cubetree state.
TEST_F(OnlineRefreshTest, TreeAccessorHandlesSurviveConcurrentRefresh) {
  const std::string dir = MakeTestDir("online");
  BufferPool pool(512);
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Create(ForestOptions(dir), &pool));
  const auto views = PaperViews();
  VectorViewProvider base;
  FillBase(&base, views);
  ASSERT_OK(forest->Build(views, &base));

  constexpr int kAccessors = 4;
  constexpr uint32_t kCycles = 16;
  std::atomic<bool> stop{false};
  std::vector<std::string> errors(kAccessors);

  auto accessor = [&](int r) {
    uint64_t last_k = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // Hold a handle to every tree across the whole iteration; a refresh
      // may retire their generation at any point in between.
      const ForestSnapshot held_snapshot = forest->AcquireSnapshot();
      std::vector<Cubetree*> held;
      for (size_t t = 0; t < held_snapshot.num_trees(); ++t) {
        held.push_back(held_snapshot.tree(t));
      }
      const ForestSnapshot fresh = forest->AcquireSnapshot();
      auto tree_result = fresh.TreeForView(views[0].id);
      if (!tree_result.ok()) {
        if (errors[r].empty()) errors[r] = tree_result.status().ToString();
        return;
      }
      Cubetree* tree = *tree_result;
      uint64_t count = 0;
      std::vector<std::optional<Coord>> open(views[0].arity(), std::nullopt);
      const Status status = tree->QuerySlice(
          views[0].id, open,
          [&count](const Coord*, const AggValue& agg) { count += agg.count; });
      if (!status.ok()) {
        if (errors[r].empty()) errors[r] = status.ToString();
        return;
      }
      // The handle serves one committed generation: base + whole cycles,
      // never torn, never going backwards across fresh handles.
      std::string bad;
      if (count < kBaseCount || (count - kBaseCount) % kCycleCount != 0) {
        bad = "count is not base + whole cycles: " + std::to_string(count);
      }
      const uint64_t k = (count - kBaseCount) / kCycleCount;
      if (bad.empty() && k < last_k) bad = "fresh handle went backwards";
      if (!bad.empty()) {
        if (errors[r].empty()) errors[r] = bad;
        return;
      }
      last_k = k;
      // Metadata reads through the held handles: with raw pointers these
      // would touch freed memory once the generation is reclaimed.
      uint64_t points = 0;
      for (const auto& h : held) points += h->rtree()->num_points();
      if (points == 0) {
        if (errors[r].empty()) errors[r] = "held handles lost their points";
        return;
      }
    }
  };

  std::vector<std::thread> accessors;
  accessors.reserve(kAccessors);
  for (int r = 0; r < kAccessors; ++r) accessors.emplace_back(accessor, r);

  std::string refresh_error;
  for (uint32_t c = 1; c <= kCycles && refresh_error.empty(); ++c) {
    VectorViewProvider delta;
    FillCycle(&delta, views, c);
    const Status applied = forest->ApplyDelta(&delta);
    if (!applied.ok()) {
      refresh_error = "cycle " + std::to_string(c) + ": " + applied.ToString();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : accessors) t.join();

  EXPECT_TRUE(refresh_error.empty()) << refresh_error;
  for (int r = 0; r < kAccessors; ++r) {
    EXPECT_TRUE(errors[r].empty()) << "accessor " << r << ": " << errors[r];
  }
  // With every handle dropped, all retired generations reclaim fully.
  ForestGcStats gc = forest->GcStats();
  EXPECT_EQ(gc.pinned_epochs, 0u);
  EXPECT_EQ(gc.unreclaimed_files, 0u);
}

// A failing worker inside the parallel merge-pack fan-out must cancel its
// siblings, surface the root cause (never a secondary Cancelled status),
// sweep every partial pack across all workers, and leave the published
// generation serving — so a disarm-and-retry then succeeds cleanly.
TEST_F(OnlineRefreshTest, ParallelRefreshAbortSweepsAllWorkerPartials) {
  const std::string dir = MakeTestDir("online");
  BufferPool pool(256);
  CubetreeForest::Options options = ForestOptions(dir);
  options.refresh_threads = 4;
  ASSERT_OK_AND_ASSIGN(auto forest,
                       CubetreeForest::Create(options, &pool));
  const auto views = PaperViews();
  VectorViewProvider base;
  FillBase(&base, views);
  ASSERT_OK(forest->Build(views, &base));
  const auto files_before = ForestDataFiles(dir);

  ASSERT_OK(FaultInjector::Instance().Arm("forest.refresh.build", "error"));
  VectorViewProvider delta;
  FillCycle(&delta, views, 1);
  const Status failed = forest->ApplyDelta(&delta);
  ASSERT_FALSE(failed.ok());
  EXPECT_FALSE(failed.IsCancelled()) << failed.ToString();
  FaultInjector::Instance().DisarmAll();

  // No partial pack leaked from any worker; the old generation serves.
  EXPECT_EQ(ForestDataFiles(dir), files_before);
  ForestSnapshot snap = forest->AcquireSnapshot();
  std::vector<uint64_t> counts;
  ASSERT_OK(CountAll(snap, views, &counts));
  for (uint64_t c : counts) EXPECT_EQ(c, kBaseCount);
  snap.Release();

  // The failure was transient: the same delta applies on retry.
  ASSERT_OK(forest->ApplyDelta(&delta));
  snap = forest->AcquireSnapshot();
  ASSERT_OK(CountAll(snap, views, &counts));
  for (uint64_t c : counts) EXPECT_EQ(c, kBaseCount + kCycleCount);
  snap.Release();
}

// ---------------------------------------------------------------------------
// Concurrent tracing stress: many threads build and publish span trees
// into the bounded ring while readers export concurrently, with the
// slow-trace log's CAS rate limiter armed. Run under TSan via
// CUBETREE_SANITIZE=thread to prove Publish/LastTrace/AllTraces and
// MaybeLogSlowTrace are race-free.

TEST(TraceConcurrencyTest, ManyThreadsTraceAndExportConcurrently) {
  constexpr int kWriters = 8;
  constexpr int kTracesPerWriter = 64;

  obs::Tracer& tracer = obs::Tracer::Instance();
  tracer.Clear();
  tracer.Enable(true);
  // Arm the slow-trace path so every publish exercises the rate-limiter
  // CAS; the sink only counts, contention is the point.
  std::atomic<uint64_t> slow_lines{0};
  tracer.SetSlowTraceSinkForTest(
      [&slow_lines](const std::string&) {
        slow_lines.fetch_add(1, std::memory_order_relaxed);
      });
  tracer.SetSlowTraceThresholdMicros(0);
  tracer.SetSlowTraceLogIntervalMillis(0);

  std::atomic<bool> stop{false};
  std::thread exporter([&] {
    // Keep snapshotting the ring while writers publish into it.
    while (!stop.load(std::memory_order_relaxed)) {
      auto last = tracer.LastTrace();
      if (last != nullptr) {
        EXPECT_FALSE(last->spans().empty());
        (void)last->TraceEventsJson();
      }
      (void)tracer.ExportAllJson();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (int i = 0; i < kTracesPerWriter; ++i) {
        obs::TraceScope root("stress.query");
        ASSERT_TRUE(root.active());
        root.Annotate("writer", static_cast<uint64_t>(w));
        {
          obs::Span descent("rtree.descent");
          obs::NotePageRead();
          {
            obs::Span scan("rtree.scan");
            obs::NotePageRead();
            obs::NotePoolHit();
            scan.Annotate("points", static_cast<uint64_t>(i));
          }
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  exporter.join();

  // 512 publishes into a 128-slot ring: full, newest-first retention.
  auto all = tracer.AllTraces();
  EXPECT_EQ(all.size(), tracer.capacity());
  for (const auto& trace : all) {
    ASSERT_EQ(trace->spans().size(), 3u);
    EXPECT_EQ(trace->spans()[0].name, "stress.query");
    EXPECT_EQ(trace->spans()[0].parent, -1);
    EXPECT_EQ(trace->spans()[1].parent, 0);
    EXPECT_EQ(trace->spans()[2].parent, 1);
    // Attribution went to the innermost open span, one read each on
    // descent and scan, never double-counted.
    EXPECT_EQ(trace->spans()[1].pages_read, 1u);
    EXPECT_EQ(trace->spans()[2].pages_read, 1u);
    EXPECT_EQ(trace->spans()[2].pool_hits, 1u);
  }
  // Rate limiter let at least one line through and lost none to races:
  // every publish either emitted or was suppressed (interval 0 means the
  // only suppressions come from same-microsecond collisions).
  EXPECT_GE(slow_lines.load(), 1u);

  tracer.SetSlowTraceThresholdMicros(-1);
  tracer.SetSlowTraceSinkForTest(nullptr);
  tracer.Enable(false);
  tracer.Clear();
}

}  // namespace
}  // namespace cubetree
