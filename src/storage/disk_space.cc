#include "storage/disk_space.h"

#include <sys/statvfs.h>

#include <cerrno>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/page_manager.h"

namespace cubetree {

namespace {

/// Headroom left on the volume when CUBETREE_DISK_RESERVE_BYTES is unset:
/// enough for manifests, journals and operator tooling, small enough not
/// to matter on any volume a store would actually run on.
constexpr uint64_t kDefaultReserveBytes = 16ull << 20;

struct DiskMetrics {
  obs::Gauge* free_bytes;
  obs::Counter* preflight_refusals;

  static const DiskMetrics& Get() {
    static const DiskMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return DiskMetrics{reg.GetGauge("disk.free_bytes"),
                         reg.GetCounter("disk.preflight_refusals")};
    }();
    return m;
  }
};

}  // namespace

uint64_t DiskSpaceManager::ReserveBytesFromEnv() {
  return EnvUint64("CUBETREE_DISK_RESERVE_BYTES", kDefaultReserveBytes);
}

Result<DiskSpaceInfo> DiskSpaceManager::Probe() const {
  if (FaultInjector::AnyArmed()) {
    CT_RETURN_NOT_OK(FaultInjector::Instance().MaybeFail("disk.probe"));
  }
  struct statvfs vfs;
  if (::statvfs(options_.dir.c_str(), &vfs) != 0) {
    return ErrnoToStatus(errno, "statvfs " + options_.dir);
  }
  DiskSpaceInfo info;
  // f_bavail is what an unprivileged writer can actually use; f_frsize is
  // the fragment size those counts are denominated in (f_bsize on
  // filesystems that do not distinguish the two).
  const uint64_t unit =
      vfs.f_frsize != 0 ? vfs.f_frsize : static_cast<uint64_t>(vfs.f_bsize);
  info.free_bytes = static_cast<uint64_t>(vfs.f_bavail) * unit;
  info.reserve_bytes = options_.reserve_bytes;
  DiskMetrics::Get().free_bytes->Set(static_cast<int64_t>(info.free_bytes));
  return info;
}

Status DiskSpaceManager::Preflight(uint64_t estimated_bytes) const {
  // The failpoint makes "a volume with no room" reproducible on a test
  // machine with terabytes free; an injected refusal is indistinguishable
  // from a real one to every caller.
  if (FaultInjector::AnyArmed()) {
    FaultOutcome outcome = FaultInjector::Instance().Check("disk.preflight");
    if (outcome.fail) {
      return Status::StorageFull(
          "refresh needs an estimated " + std::to_string(estimated_bytes) +
          " bytes but the volume under " + options_.dir +
          " has no usable space (injected at disk.preflight); need " +
          std::to_string(estimated_bytes) + " more bytes");
    }
  }
  CT_ASSIGN_OR_RETURN(DiskSpaceInfo info, Probe());
  if (estimated_bytes <= info.usable_bytes()) return Status::OK();
  DiskMetrics::Get().preflight_refusals->Increment();
  const uint64_t shortfall = estimated_bytes - info.usable_bytes();
  return Status::StorageFull(
      "refresh needs an estimated " + std::to_string(estimated_bytes) +
      " bytes but the volume under " + options_.dir + " has only " +
      std::to_string(info.usable_bytes()) + " usable (" +
      std::to_string(info.free_bytes) + " free minus " +
      std::to_string(info.reserve_bytes) + " reserve); need " +
      std::to_string(shortfall) + " more bytes");
}

uint64_t EstimateRefreshBytes(uint64_t live_tree_bytes,
                              uint64_t delta_input_bytes,
                              unsigned concurrent_packs) {
  const uint64_t packed = live_tree_bytes + delta_input_bytes;
  const uint64_t packed_pages = (packed + kPageSize - 1) / kPageSize;
  const uint64_t sidecars = packed_pages * 4 + 1024;
  const uint64_t runs = 2 * delta_input_bytes;
  const uint64_t packs = concurrent_packs > 1 ? concurrent_packs : 1;
  const uint64_t slack = (packs - 1) * kRefreshPackerSlackBytes;
  return packed + sidecars + runs + slack;
}

}  // namespace cubetree
