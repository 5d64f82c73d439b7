#include "scrub/scrubber.h"

#include <chrono>
#include <optional>
#include <utility>
#include <vector>

#include "check/check.h"
#include "common/logging.h"
#include "cubetree/cubetree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/page.h"

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

void Scrubber::ScrubFile(const PackedRTree& rtree,
                         const ViewArityFn& view_arity,
                         uint32_t first_view_id, ScrubPassStats* stats) {
  const ScrubMetrics& m = ScrubMetrics::Get();
  const std::string& path = rtree.path();
  const uint64_t pages = rtree.FileSizeBytes() / kPageSize;
  ++stats->files_scanned;
  // A finding can be transient (a bit flipped in flight), so the file
  // leaves service only when a second pass over it finds damage again.
  Status why;
  for (int pass = 0; pass < 2; ++pass) {
    CheckReport report;
    const Status checked = CheckTree(path, view_arity, &report);
    if (!checked.ok()) {
      // I/O trouble (after the storage layer's own retries) is not a
      // finding; the next scrub pass reads the file again.
      CT_LOG(Warn) << "scrub: cannot check " << path << ": "
                   << checked.ToString();
      return;
    }
    stats->pages_scrubbed += pages;
    m.pages_scrubbed->Increment(pages);
    if (report.clean()) return;
    why = report.FirstError();
  }
  ++stats->corruptions_found;
  m.corruptions_found->Increment();
  CT_LOG(Warn) << "scrub: corruption in " << path << ": " << why.ToString();
  // Quarantine only if this exact file is still the live one — a refresh
  // that replaced it since the snapshot pin already made the corruption
  // moot, and quarantining the fresh tree would be wrong.
  auto q = forest_->QuarantineForCorruption(first_view_id, path, why);
  if (!q.ok()) {
    CT_LOG(Warn) << "scrub: quarantine failed: " << q.status().ToString();
    return;
  }
  if (q.value()) RepairAndCount(first_view_id, stats);
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

  // The throttle paces whole files: each is read at full speed, and the
  // next one starts once the pages already read have used their budget.
  using Clock = std::chrono::steady_clock;
  const auto per_page =
      options_.pages_per_second == 0
          ? std::chrono::nanoseconds(0)
          : std::chrono::nanoseconds(1000000000ull / options_.pages_per_second);
  Clock::time_point next_file = Clock::now();
  for (size_t t = 0; t < snapshot.num_trees(); ++t) {
    // A quarantined tree (nullptr) has no live files worth scanning.
    Cubetree* tree = snapshot.tree(t);
    if (tree == nullptr || tree->views().empty()) continue;
    const ViewArityFn view_arity = ViewArityOf(tree->views());
    for (PackedRTree* rtree : tree->main_and_deltas()) {
      {
        // Stop() ends the wait and the pass promptly.
        MutexLock lock(mu_);
        while (!stop_ && Clock::now() < next_file) {
          cv_.WaitUntil(lock, next_file);
        }
        if (stop_) break;
      }
      next_file += per_page * (rtree->FileSizeBytes() / kPageSize);
      ScrubFile(*rtree, view_arity, tree->views()[0].id, stats);
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
