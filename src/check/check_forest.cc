#include <sys/stat.h>

#include "check/check.h"
#include "cubetree/forest.h"
#include "storage/checksum.h"
#include "storage/disk_space.h"

namespace cubetree {

namespace {

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

}  // namespace

Status CheckForest(const std::string& dir, const std::string& name,
                   BufferPool* pool, CheckReport* report) {
  CubetreeForest::Options options;
  options.dir = dir;
  options.name = name;
  auto opened = CubetreeForest::Open(options, pool, nullptr, report);
  if (!opened.ok()) {
    // A manifest that exists but does not load is a finding, not a "could
    // not run": the store is there and it is broken.
    if (!opened.status().IsCorruption()) return opened.status();
    report->AddError("forest", "manifest-corrupt", opened.status().ToString(),
                     dir + "/" + name);
    return Status::OK();
  }
  const std::unique_ptr<CubetreeForest> forest = std::move(opened).value();

  // The files Recover would sweep: retired files a crashed process never
  // reclaimed, or an interrupted refresh's debris.
  CT_ASSIGN_OR_RETURN(std::vector<std::string> orphans,
                      forest->OrphanFiles());
  for (const std::string& path : orphans) {
    report->AddWarning("forest", "unreferenced-file",
                       "not referenced by the live generation (unreclaimed "
                       "retired file or crash debris; Recover will sweep it)",
                       path);
  }

  // The live footprint against the volume's free space, so an operator
  // sees how close the next refresh is to a StorageFull refusal (a
  // compaction's preflight needs roughly the live tree bytes again).
  uint64_t tree_bytes = 0;
  uint64_t live_bytes = 0;
  for (const std::string& path : forest->LiveFiles()) {
    tree_bytes += FileBytes(path);
    live_bytes += FileBytes(ChecksumSidecarPath(path));
  }
  live_bytes += tree_bytes;
  const uint64_t compaction_bytes =
      EstimateRefreshBytes(RTreeOptions{}, tree_bytes, 0,
                           forest->plan().trees.size(),
                           forest->views().size());
  auto space = DiskSpaceManager(dir).Probe();
  if (space.ok()) {
    report->AddInfo(
        "forest", "disk-space",
        std::to_string(live_bytes) + " live byte(s) (trees + sidecars); " +
            "volume has " + std::to_string(space->free_bytes) + " free, " +
            std::to_string(space->usable_bytes()) + " usable after the " +
            std::to_string(space->reserve_bytes) +
            "-byte reserve; a compaction preflights ~" +
            std::to_string(compaction_bytes) + " bytes",
        dir);
  } else {
    report->AddWarning("forest", "disk-space",
                       "free-space probe failed: " + space.status().ToString(),
                       dir);
  }
  return Status::OK();
}

}  // namespace cubetree
