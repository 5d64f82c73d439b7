#include "scrub/scrubber.h"

#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "cubetree/cubetree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page.h"
#include "storage/page_manager.h"

namespace cubetree {

namespace {

struct ScrubMetrics {
  obs::Counter* passes;
  obs::Counter* pages_scrubbed;
  obs::Counter* corruptions_found;
  obs::Counter* corruptions_repaired;
  obs::Counter* corruptions_unrepairable;

  static const ScrubMetrics& Get() {
    static const ScrubMetrics m = {
        obs::MetricsRegistry::Instance().GetCounter("scrub.passes"),
        obs::MetricsRegistry::Instance().GetCounter("scrub.pages_scrubbed"),
        obs::MetricsRegistry::Instance().GetCounter("scrub.corruptions_found"),
        obs::MetricsRegistry::Instance().GetCounter(
            "scrub.corruptions_repaired"),
        obs::MetricsRegistry::Instance().GetCounter(
            "scrub.corruptions_unrepairable"),
    };
    return m;
  }
};

}  // namespace

ScrubOptions ScrubOptions::FromEnv() {
  ScrubOptions options;
  options.enabled = EnvUint64("CUBETREE_SCRUB_ENABLE", 0) != 0;
  options.pages_per_second = EnvUint64("CUBETREE_SCRUB_RATE", 0);
  options.interval_ms = EnvUint64("CUBETREE_SCRUB_INTERVAL_MS", 60000);
  return options;
}

Scrubber::Scrubber(CubetreeForest* forest, ScrubOptions options,
                   RepairFn repair)
    : forest_(forest),
      options_(options),
      repair_(std::move(repair)) {}

Scrubber::~Scrubber() { Stop(); }

std::unique_ptr<Scrubber> Scrubber::CreateFromEnv(CubetreeForest* forest,
                                                  RepairFn repair) {
  ScrubOptions options = ScrubOptions::FromEnv();
  if (!options.enabled) return nullptr;
  return std::make_unique<Scrubber>(forest, options, std::move(repair));
}

void Scrubber::RepairAndCount(std::optional<uint32_t> view_id,
                              ScrubPassStats* stats) {
  bool repaired = false;
  if (repair_) {
    // A refused repair (StorageFull from the preflight on a full volume)
    // leaves the tree quarantined: wrong answers stay off the wire.
    const Status status = repair_();
    const ForestSnapshot after = forest_->AcquireSnapshot();
    repaired = status.ok() && !(view_id.has_value()
                                    ? after.IsViewQuarantined(*view_id)
                                    : after.HasQuarantine());
    if (repaired) {
      CT_LOG(Info) << "scrub: repair put the quarantined tree back in service";
    } else {
      CT_LOG(Warn) << "scrub: repair failed, the tree stays quarantined: "
                   << status.ToString();
    }
  }
  const ScrubMetrics& m = ScrubMetrics::Get();
  ++(repaired ? stats->corruptions_repaired : stats->corruptions_unrepairable);
  (repaired ? m.corruptions_repaired : m.corruptions_unrepairable)
      ->Increment();
}

void Scrubber::ScrubFile(const std::string& path, uint32_t first_view_id,
                         ScrubPassStats* stats) {
  const ScrubMetrics& m = ScrubMetrics::Get();
  auto pm = PageManager::Open(path);
  if (!pm.ok()) {
    // The file vanishing or failing to open mid-pass is not corruption from
    // the scrubber's point of view (a refresh may have retired it between
    // the snapshot pin and here is impossible — the pin keeps it alive —
    // but transient I/O errors are real). Log and move on.
    CT_LOG(Warn) << "scrub: cannot open " << path << ": "
                 << pm.status().ToString();
    return;
  }
  std::unique_ptr<PageManager> file = std::move(pm).value();
  if (Status cs = file->LoadChecksums(); !cs.ok()) {
    // Every tree has a sidecar, so a missing or invalid one is itself
    // corruption of the tree's on-disk state: quarantine just like a page
    // mismatch.
    ++stats->corruptions_found;
    m.corruptions_found->Increment();
    CT_LOG(Warn) << "scrub: bad checksum sidecar for " << path << ": "
                 << cs.ToString();
    auto q = forest_->QuarantineForCorruption(first_view_id, path, cs);
    if (q.ok() && q.value()) RepairAndCount(first_view_id, stats);
    return;
  }

  ++stats->files_scanned;
  const PageId pages = file->NumPages();
  using Clock = std::chrono::steady_clock;
  Clock::time_point next_read = Clock::now();
  const auto per_page_budget =
      options_.pages_per_second == 0
          ? std::chrono::nanoseconds(0)
          : std::chrono::nanoseconds(1000000000ull / options_.pages_per_second);

  Page page;
  for (PageId id = 0; id < pages; ++id) {
    if (options_.pages_per_second != 0) {
      {
        // Abort the file promptly on Stop() instead of sleeping out the
        // throttle budget.
        MutexLock lock(mu_);
        if (stop_) return;
        cv_.WaitUntil(lock, next_read);
        if (stop_) return;
      }
      next_read += per_page_budget;
    }
    Status read = file->ReadPage(id, &page);
    ++stats->pages_scrubbed;
    m.pages_scrubbed->Increment();
    if (read.ok()) continue;
    if (!read.IsCorruption()) {
      // Transient I/O trouble (after the storage layer's own retries):
      // not a checksum finding; skip the rest of the file.
      CT_LOG(Warn) << "scrub: read error on " << path << ": "
                   << read.ToString();
      return;
    }
    ++stats->corruptions_found;
    m.corruptions_found->Increment();
    CT_LOG(Warn) << "scrub: corruption in " << path << ": " << read.ToString();
    // Quarantine only if this exact file is still the live one — a refresh
    // that replaced it since the snapshot pin already made the corruption
    // moot, and quarantining the fresh tree would be wrong.
    auto q = forest_->QuarantineForCorruption(first_view_id, path, read);
    if (!q.ok()) {
      CT_LOG(Warn) << "scrub: quarantine failed: " << q.status().ToString();
      return;
    }
    if (q.value()) RepairAndCount(first_view_id, stats);
    // One finding quarantines the whole tree; scanning the rest of the
    // file adds nothing.
    return;
  }
}

Status Scrubber::ScrubOnce(ScrubPassStats* stats) {
  obs::Span pass_span("scrub.pass");
  ScrubPassStats local;
  if (stats == nullptr) stats = &local;
  *stats = ScrubPassStats();

  // Pin the serving generation: epoch-based reclamation keeps every file
  // below alive for the whole pass, even across concurrent refreshes.
  ForestSnapshot snapshot = forest_->AcquireSnapshot();
  if (!snapshot.valid()) {
    return Status::Unavailable("scrub: forest has no published state");
  }
  // A tree still quarantined (its repair refused on a full volume, or its
  // damage found by a query or recovery) gets one repair before the scan.
  if (repair_ && snapshot.HasQuarantine()) {
    snapshot.Release();
    RepairAndCount(std::nullopt, stats);
    snapshot = forest_->AcquireSnapshot();
  }

  for (size_t t = 0; t < snapshot.num_trees(); ++t) {
    // A quarantined tree (nullptr) has no live files worth scanning.
    Cubetree* tree = snapshot.tree(t);
    if (tree == nullptr || tree->views().empty()) continue;
    const uint32_t view_id = tree->views()[0].id;
    for (PackedRTree* rtree : tree->main_and_deltas()) {
      ScrubFile(rtree->path(), view_id, stats);
    }
    {
      MutexLock lock(mu_);
      if (stop_) break;
    }
  }

  passes_.fetch_add(1, std::memory_order_relaxed);
  ScrubMetrics::Get().passes->Increment();
  return Status::OK();
}

void Scrubber::Run() {
  for (;;) {
    {
      MutexLock lock(mu_);
      if (stop_) return;
    }
    ScrubPassStats stats;
    Status s = ScrubOnce(&stats);
    if (!s.ok() && !s.IsUnavailable()) {
      CT_LOG(Warn) << "scrub: pass failed: " << s.ToString();
    }
    if (stats.corruptions_found > 0) {
      CT_LOG(Warn) << "scrub: pass found " << stats.corruptions_found
                   << " corruption(s), repaired " << stats.corruptions_repaired
                   << ", unrepairable " << stats.corruptions_unrepairable;
    }
    MutexLock lock(mu_);
    cv_.WaitFor(lock, std::chrono::milliseconds(options_.interval_ms));
    if (stop_) return;
  }
}

void Scrubber::Start() {
  MutexLock lock(mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Run(); });
}

void Scrubber::Stop() {
  std::thread joinable;
  {
    MutexLock lock(mu_);
    if (!running_) return;
    stop_ = true;
    cv_.NotifyAll();
    joinable = std::move(thread_);
    running_ = false;
  }
  if (joinable.joinable()) joinable.join();
}

}  // namespace cubetree
