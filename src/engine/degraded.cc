#include "engine/degraded.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace cubetree {

namespace {

/// Seconds the rejection message tells callers to wait before retrying.
constexpr uint64_t kRetryAfterSeconds = 30;
/// Usable bytes the recovery probe requires before leaving read-only mode
/// when the caller supplies no size estimate of its own: a hysteresis
/// margin so a few freed kilobytes do not flap the mode.
constexpr uint64_t kRecoveryHeadroomBytes = 4ull << 20;

struct DegradedMetrics {
  obs::Gauge* read_only;
  obs::Counter* entered;
  obs::Counter* recovered;
  obs::Counter* refreshes_rejected;

  static const DegradedMetrics& Get() {
    static const DegradedMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return DegradedMetrics{reg.GetGauge("degraded.read_only"),
                             reg.GetCounter("degraded.entered"),
                             reg.GetCounter("degraded.recovered"),
                             reg.GetCounter("degraded.refreshes_rejected")};
    }();
    return m;
  }
};

}  // namespace

void DegradedModeController::OnWriteStatus(const Status& status) {
  if (!status.IsStorageFull()) return;
  Enter(status);
}

void DegradedModeController::Enter(const Status& cause) {
  {
    MutexLock lock(mu_);
    if (read_only_.load(std::memory_order_relaxed)) return;
    cause_ = cause.ToString();
    read_only_.store(true, std::memory_order_release);
  }
  DegradedMetrics::Get().read_only->Set(1);
  DegradedMetrics::Get().entered->Increment();
  CT_LOG(Warn) << "engine: entering degraded read-only mode: "
               << cause.ToString();
  if (on_mode_change_) on_mode_change_(true);
}

void DegradedModeController::Recover() {
  {
    MutexLock lock(mu_);
    if (!read_only_.load(std::memory_order_relaxed)) return;
    cause_.clear();
    read_only_.store(false, std::memory_order_release);
  }
  DegradedMetrics::Get().read_only->Set(0);
  DegradedMetrics::Get().recovered->Increment();
  CT_LOG(Info) << "engine: disk space recovered, leaving degraded "
                  "read-only mode";
  if (on_mode_change_) on_mode_change_(false);
}

Status DegradedModeController::AdmitWrite(uint64_t estimated_bytes) {
  if (!read_only()) return Status::OK();
  const uint64_t needed =
      estimated_bytes != 0 ? estimated_bytes : kRecoveryHeadroomBytes;
  if (disk_.Preflight(needed).ok()) {
    Recover();
    return Status::OK();
  }
  DegradedMetrics::Get().refreshes_rejected->Increment();
  std::string cause;
  {
    MutexLock lock(mu_);
    cause = cause_;
  }
  return Status::StorageFull(
      "engine is in degraded read-only mode (" + cause +
      "); queries keep serving, retry the refresh after " +
      std::to_string(kRetryAfterSeconds) + "s");
}

bool DegradedModeController::ProbeAndMaybeRecover() {
  if (!read_only()) return true;
  if (disk_.Preflight(kRecoveryHeadroomBytes).ok()) {
    Recover();
    return true;
  }
  return false;
}

}  // namespace cubetree
