#ifndef CUBETREE_ENGINE_DEGRADED_H_
#define CUBETREE_ENGINE_DEGRADED_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/disk_space.h"

namespace cubetree {

/// Disk-full circuit breaker for the serving engine. A write that surfaces
/// StorageFull flips the engine into degraded read-only mode: queries keep
/// serving off the published epoch, refreshes are rejected up front with a
/// retry-after hint instead of failing halfway through, and the scrubber's
/// repair callback is paused (rebuilding a tree writes a fresh generation,
/// which a full volume cannot take). Every admission attempt in degraded
/// mode re-probes the volume, so the engine recovers automatically — no
/// restart — as soon as space frees up.
///
/// The `degraded.read_only` gauge mirrors the mode (1 = read-only) for
/// operators; `degraded.entered` / `degraded.recovered` count transitions
/// and `degraded.refreshes_rejected` counts the writes turned away.
class DegradedModeController {
 public:
  struct Options {
    /// Directory whose volume the recovery probe examines.
    std::string dir = ".";
    /// Same reserve the refresh preflight honors.
    uint64_t reserve_bytes = DiskSpaceManager::ReserveBytesFromEnv();
  };

  explicit DegradedModeController(Options options)
      : disk_(DiskSpaceManager::Options{std::move(options.dir),
                                        options.reserve_bytes}) {}

  /// Write-path feedback: a StorageFull status enters degraded read-only
  /// mode (idempotent, recording the cause); anything else is ignored.
  void OnWriteStatus(const Status& status);

  /// Gate for mutating operations. OK in normal mode. In degraded mode the
  /// volume is probed first — room for `estimated_bytes` (or the recovery
  /// headroom when 0) recovers the engine and admits the write — otherwise
  /// the write is rejected with a typed StorageFull naming the original
  /// cause and a retry-after hint. Queries never pass through here.
  Status AdmitWrite(uint64_t estimated_bytes);

  /// The periodic recovery probe alone, with no write to admit. Returns
  /// true when the engine is in normal mode after the probe.
  bool ProbeAndMaybeRecover();

  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  /// Invoked (outside any lock) on every mode transition with the new
  /// read_only value — the hook that pauses and resumes the scrubber's
  /// repair callback. Set once at wiring time, before writes can fail.
  void SetOnModeChange(std::function<void(bool read_only)> hook) {
    on_mode_change_ = std::move(hook);
  }

 private:
  void Enter(const Status& cause) EXCLUDES(mu_);
  void Recover() EXCLUDES(mu_);

  DiskSpaceManager disk_;
  std::atomic<bool> read_only_{false};
  std::function<void(bool)> on_mode_change_;
  mutable Mutex mu_;
  /// Human-readable cause of the current degraded episode.
  std::string cause_ GUARDED_BY(mu_);
};

}  // namespace cubetree

#endif  // CUBETREE_ENGINE_DEGRADED_H_
