#include "storage/disk_space.h"

#include <sys/statvfs.h>

#include <cerrno>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "storage/page_manager.h"

namespace cubetree {

namespace {

/// Headroom left on the volume when CUBETREE_DISK_RESERVE_BYTES is unset:
/// enough for manifests, journals and operator tooling, small enough not
/// to matter on any volume a store would actually run on.
constexpr uint64_t kDefaultReserveBytes = 16ull << 20;

}  // namespace

uint64_t DiskSpaceManager::ReserveBytesFromEnv() {
  return EnvUint64("CUBETREE_DISK_RESERVE_BYTES", kDefaultReserveBytes);
}

Result<DiskSpaceInfo> DiskSpaceManager::Probe() const {
  if (FaultInjector::AnyArmed()) {
    CT_RETURN_NOT_OK(FaultInjector::Instance().MaybeFail("disk.probe"));
  }
  struct statvfs vfs;
  if (::statvfs(dir_.c_str(), &vfs) != 0) {
    return ErrnoToStatus(errno, "statvfs " + dir_);
  }
  DiskSpaceInfo info;
  // f_bavail is what an unprivileged writer can actually use; f_frsize is
  // the fragment size those counts are denominated in (f_bsize on
  // filesystems that do not distinguish the two).
  const uint64_t unit =
      vfs.f_frsize != 0 ? vfs.f_frsize : static_cast<uint64_t>(vfs.f_bsize);
  info.free_bytes = static_cast<uint64_t>(vfs.f_bavail) * unit;
  info.reserve_bytes = reserve_bytes_;
  static obs::Gauge* const free_bytes =
      obs::MetricsRegistry::Instance().GetGauge("disk.free_bytes");
  free_bytes->Set(static_cast<int64_t>(info.free_bytes));
  return info;
}

Status DiskSpaceManager::Preflight(const std::string& what,
                                   uint64_t estimated_bytes) const {
  const std::string needs = what + " needs an estimated " +
                            std::to_string(estimated_bytes) +
                            " bytes but the volume under " + dir_;
  // The failpoint makes "a volume with no room" reproducible on a test
  // machine with terabytes free; an injected refusal is indistinguishable
  // from a real one to every caller.
  if (FaultInjector::AnyArmed()) {
    FaultOutcome outcome = FaultInjector::Instance().Check("disk.preflight");
    if (outcome.fail) {
      return Status::StorageFull(
          needs + " has no usable space (injected at disk.preflight); need " +
          std::to_string(estimated_bytes) + " more bytes");
    }
  }
  CT_ASSIGN_OR_RETURN(DiskSpaceInfo info, Probe());
  if (estimated_bytes <= info.usable_bytes()) return Status::OK();
  const uint64_t shortfall = estimated_bytes - info.usable_bytes();
  return Status::StorageFull(
      needs + " has only " + std::to_string(info.usable_bytes()) +
      " usable (" + std::to_string(info.free_bytes) + " free minus " +
      std::to_string(info.reserve_bytes) + " reserve); need " +
      std::to_string(shortfall) + " more bytes");
}

}  // namespace cubetree
