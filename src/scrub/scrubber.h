#ifndef CUBETREE_SCRUB_SCRUBBER_H_
#define CUBETREE_SCRUB_SCRUBBER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "cubetree/forest.h"

namespace cubetree {

/// Scrubber configuration, settable in code or through the environment:
///   CUBETREE_SCRUB_ENABLE=1       start the background thread
///   CUBETREE_SCRUB_RATE=N         throttle to N pages/second (0 = none)
///   CUBETREE_SCRUB_INTERVAL_MS=N  pause between passes (default 60000)
struct ScrubOptions {
  bool enabled = false;
  /// Pages per second on average, paced between files; 0 scrubs
  /// unthrottled.
  uint64_t pages_per_second = 0;
  /// Sleep between the end of one pass and the start of the next.
  uint64_t interval_ms = 60000;

  static ScrubOptions FromEnv();
};

/// Counters of one scrub pass.
struct ScrubPassStats {
  uint64_t files_scanned = 0;
  uint64_t pages_scrubbed = 0;
  uint64_t corruptions_found = 0;
  /// Outcomes of the repairs the pass ran: one per corruption it found and
  /// quarantined, and one for the trees quarantined before it began.
  uint64_t corruptions_repaired = 0;
  uint64_t corruptions_unrepairable = 0;
};

/// Background integrity scrubber: periodically runs CheckTree, the pass
/// Open and Recover judge a tree file by, over every file of the live
/// forest generation, so latent damage — a CRC mismatch or a structural
/// fault under a valid sidecar — surfaces before a query ever touches it.
/// Each pass pins a ForestSnapshot, so epoch-based reclamation keeps every
/// scanned file alive even while refreshes retire it, and the scrubber
/// never blocks mutators (it takes no forest lock).
///
/// A file whose check reports an error is checked again, and only when
/// the second check also reports one is the tree quarantined — through
/// CubetreeForest::QuarantineForCorruption, passing the exact file path,
/// so a tree that a refresh already replaced is left alone — and the
/// optional repair callback (typically CubetreeEngine::Repair) is invoked
/// to rebuild it. A corruption that remains quarantined after the callback
/// counts as unrepairable — among them a repair the forest's disk-space
/// preflight refused because the volume cannot take the new generation.
/// Detection and quarantine need no space, so reads stay safe on a full
/// volume, and a pass that starts with a quarantined tree runs the
/// callback once before it scans (counted the same way), so a refused
/// repair is retried every pass until space returns.
///
/// The check reads each file through its own page file, bypassing the
/// buffer pool: the point is to exercise the bytes on disk, not the cache,
/// and pool hit-rate metrics stay untouched.
class Scrubber {
 public:
  /// Invoked after a corrupt tree is quarantined; returns OK when every
  /// quarantined tree was rebuilt.
  using RepairFn = std::function<Status()>;

  Scrubber(CubetreeForest* forest, ScrubOptions options,
           RepairFn repair = nullptr);
  ~Scrubber();

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// Builds a scrubber from the CUBETREE_SCRUB_* environment, or nullptr
  /// when CUBETREE_SCRUB_ENABLE is unset/0. The caller owns starting it.
  static std::unique_ptr<Scrubber> CreateFromEnv(CubetreeForest* forest,
                                                 RepairFn repair = nullptr);

  /// Runs one full pass synchronously (tests, ctfsck). Returns OK even
  /// when corruption was found — findings are in `*stats` and the metrics;
  /// a non-OK status means the pass itself could not run.
  Status ScrubOnce(ScrubPassStats* stats = nullptr);

  /// Starts the background thread (idempotent).
  void Start();
  /// Stops and joins the background thread (idempotent; the destructor
  /// also calls it).
  void Stop();

  uint64_t passes_completed() const {
    return passes_.load(std::memory_order_relaxed);
  }

 private:
  void Run();
  /// Runs the repair callback, if any, and counts it in `*stats` and the
  /// metrics as repaired when the tree holding `view_id` (every tree, for
  /// nullopt) is back in service, else as unrepairable.
  void RepairAndCount(std::optional<uint32_t> view_id, ScrubPassStats* stats);
  /// Checks one file of a tree holding views of `view_arity`, a second
  /// time when the first pass finds an error, and quarantines the tree
  /// (`first_view_id` names it) when both do. Updates `*stats` in place.
  void ScrubFile(const PackedRTree& rtree, const ViewArityFn& view_arity,
                 uint32_t first_view_id, ScrubPassStats* stats);

  CubetreeForest* forest_;
  ScrubOptions options_;
  RepairFn repair_;
  std::atomic<uint64_t> passes_{0};

  Mutex mu_;
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
  bool running_ GUARDED_BY(mu_) = false;
  std::thread thread_ GUARDED_BY(mu_);
};

}  // namespace cubetree

#endif  // CUBETREE_SCRUB_SCRUBBER_H_
