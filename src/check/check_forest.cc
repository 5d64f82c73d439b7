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
  const std::string forest_ctx = dir + "/" + name;
  CubetreeForest::Options options;
  options.dir = dir;
  options.name = name;
  auto opened = CubetreeForest::Open(options, pool);
  if (!opened.ok()) {
    // A manifest that exists but does not load is a finding, not a "could
    // not run": the store is there and it is broken.
    if (!opened.status().IsCorruption()) return opened.status();
    report->AddError("forest", "manifest-corrupt", opened.status().ToString(),
                     forest_ctx);
    return Status::OK();
  }
  const std::unique_ptr<CubetreeForest> forest = std::move(opened).value();

  // Every file of the published generation, each against its tree's own
  // views.
  const ForestSnapshot snapshot = forest->AcquireSnapshot();
  for (size_t t = 0; t < snapshot.num_trees(); ++t) {
    Cubetree* tree = snapshot.tree(t);
    const ViewArityFn view_arity = tree->ViewArity();
    for (PackedRTree* rtree : tree->main_and_deltas()) {
      CT_RETURN_NOT_OK(CheckTree(rtree->path(), view_arity, report));
    }
  }

  // The snapshot layer, and the files Recover would sweep: retired files a
  // crashed process never reclaimed, or an interrupted refresh's debris.
  const ForestGcStats gc = forest->GcStats();
  const std::vector<std::string> live_files = forest->LiveFiles();
  report->AddInfo("forest", "snapshot-state",
                  "live generation epoch " + std::to_string(gc.live_epoch) +
                      ", " + std::to_string(gc.pinned_epochs) +
                      " pinned retired generation(s), " +
                      std::to_string(gc.unreclaimed_files) +
                      " retired file(s) awaiting reclaim, " +
                      std::to_string(live_files.size()) +
                      " file(s) in the live set",
                  forest_ctx);
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
  for (const std::string& path : live_files) {
    tree_bytes += FileBytes(path);
    live_bytes += FileBytes(ChecksumSidecarPath(path));
  }
  live_bytes += tree_bytes;
  const uint64_t compaction_bytes =
      EstimateRefreshBytes(RTreeOptions{}, tree_bytes, 0,
                           snapshot.num_trees(), forest->views().size());
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
