#ifndef CUBETREE_STORAGE_DISK_SPACE_H_
#define CUBETREE_STORAGE_DISK_SPACE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace cubetree {

/// One observation of the volume backing a directory.
struct DiskSpaceInfo {
  /// Bytes available to unprivileged writers (statvfs f_bavail * f_frsize).
  uint64_t free_bytes = 0;
  /// Configured reserve the store refuses to dip into.
  uint64_t reserve_bytes = 0;
  /// Free space the store may actually consume.
  uint64_t usable_bytes() const {
    return free_bytes > reserve_bytes ? free_bytes - reserve_bytes : 0;
  }
};

/// Space accounting for writes. A bulk-incremental refresh transiently
/// needs the old AND the new generation on disk; running into ENOSPC
/// halfway through wastes the whole merge-pack and stresses every error
/// path at once. The forest's refresh transaction preflights each write
/// through this manager instead: probe the volume, subtract a reserve
/// (CUBETREE_DISK_RESERVE_BYTES), and refuse with a typed StorageFull —
/// naming the bytes still needed — while the old generation keeps serving.
class DiskSpaceManager {
 public:
  /// Parses CUBETREE_DISK_RESERVE_BYTES; 16 MiB when unset or malformed.
  static uint64_t ReserveBytesFromEnv();

  /// Accounts for the volume backing `dir`, leaving ReserveBytesFromEnv()
  /// bytes of it untouched: headroom for logs, manifests and the
  /// operator's own tooling once the store backs off.
  explicit DiskSpaceManager(std::string dir)
      : dir_(std::move(dir)), reserve_bytes_(ReserveBytesFromEnv()) {}

  /// Current free space on the volume backing `dir`. Consults the
  /// `disk.probe` failpoint so harnesses can fail the probe itself.
  Result<DiskSpaceInfo> Probe() const;

  /// OK when the `estimated_bytes` a write names `what` (e.g. "load")
  /// needs fit into the usable (free minus reserve) space, else
  /// StorageFull naming the write, the estimate, the usable space and the
  /// shortfall. Consults the `disk.preflight` failpoint first, so tests can
  /// force a refusal on a volume with plenty of room.
  Status Preflight(const std::string& what, uint64_t estimated_bytes) const;

 private:
  std::string dir_;
  uint64_t reserve_bytes_;
};

}  // namespace cubetree

#endif  // CUBETREE_STORAGE_DISK_SPACE_H_
