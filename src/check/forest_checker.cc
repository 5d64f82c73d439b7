#include <dirent.h>
#include <sys/stat.h>

#include <map>
#include <set>
#include <utility>

#include "check/checkers.h"
#include "cubetree/forest.h"
#include "storage/disk_space.h"

namespace cubetree {

struct ForestChecker::Impl {
  std::string dir;
  std::string forest_name;
  BufferPool* pool;
  CheckOptions options;
};

ForestChecker::ForestChecker(std::string dir, std::string forest_name,
                             BufferPool* pool, CheckOptions options)
    : impl_(new Impl{std::move(dir), std::move(forest_name), pool, options}) {}

ForestChecker::~ForestChecker() = default;

Status ForestChecker::Run(CheckReport* report) {
  CubetreeForest::Options options;
  options.dir = impl_->dir;
  options.name = impl_->forest_name;
  auto forest_result = CubetreeForest::Open(options, impl_->pool);
  if (!forest_result.ok()) {
    const Status& status = forest_result.status();
    if (status.IsCorruption()) {
      // A manifest that exists but does not parse is a finding, not a
      // "could not run": the store is there and it is broken.
      report->AddError("forest", "manifest-corrupt", status.ToString(),
                       impl_->dir + "/" + impl_->forest_name);
      return Status::OK();
    }
    return status;
  }
  auto forest = std::move(forest_result).value();
  const std::string forest_ctx = impl_->dir + "/" + impl_->forest_name;

  // --- SelectMapping invariant + placement consistency ------------------
  const ForestPlan& plan = forest->plan();
  std::map<uint32_t, size_t> seen_views;  // view id -> owning tree.
  for (size_t t = 0; t < plan.trees.size(); ++t) {
    const ForestPlan::TreeSpec& spec = plan.trees[t];
    std::set<uint8_t> arities;
    uint8_t max_arity = 0;
    for (uint32_t vid : spec.view_ids) {
      auto view_result = forest->view(vid);
      if (!view_result.ok()) {
        report->AddError("forest", "unknown-view",
                         "tree " + std::to_string(t) +
                             " references undeclared view " +
                             std::to_string(vid),
                         forest_ctx);
        continue;
      }
      const uint8_t arity = (*view_result)->arity();
      max_arity = std::max(max_arity, arity);
      if (!arities.insert(arity).second) {
        report->AddError("forest", "select-mapping",
                         "tree " + std::to_string(t) +
                             " holds two views of arity " +
                             std::to_string(arity) +
                             " (violates one-view-per-arity-per-tree)",
                         forest_ctx);
      }
      auto [it, inserted] = seen_views.emplace(vid, t);
      if (!inserted) {
        report->AddError("forest", "duplicate-placement",
                         "view " + std::to_string(vid) +
                             " placed in trees " +
                             std::to_string(it->second) + " and " +
                             std::to_string(t),
                         forest_ctx);
      }
    }
    const uint8_t expected_dims = std::max<uint8_t>(1, max_arity);
    if (spec.dims != expected_dims) {
      report->AddError("forest", "tree-dims",
                       "tree " + std::to_string(t) + " has dims " +
                           std::to_string(spec.dims) +
                           " but its views' max arity is " +
                           std::to_string(max_arity),
                       forest_ctx);
    }
  }
  for (const ViewDef& view : forest->views()) {
    if (seen_views.count(view.id) == 0) {
      report->AddError("forest", "unplaced-view",
                       "view " + std::to_string(view.id) +
                           " is declared but placed in no tree",
                       forest_ctx);
    }
  }

  // --- Per-tree scans: membership, contiguity, counts -------------------
  // Every file of the published generation — each tree's main file and its
  // pending delta files — is scanned and counted.
  const ForestSnapshot snapshot = forest->AcquireSnapshot();
  uint64_t scanned_total = 0;
  uint64_t meta_total = 0;
  for (size_t t = 0; t < snapshot.num_trees(); ++t) {
    std::set<uint32_t> planned(plan.trees[t].view_ids.begin(),
                               plan.trees[t].view_ids.end());
    std::set<uint32_t> present;
    for (PackedRTree* rtree : snapshot.tree(t)->main_and_deltas()) {
      uint64_t scanned = 0;
      PackedRTree::Scanner scanner = rtree->ScanAll();
      while (true) {
        const PointRecord* rec = nullptr;
        Status status = scanner.Next(&rec);
        if (!status.ok()) {
          report->AddError("forest", "tree-scan",
                           "scan of tree " + std::to_string(t) +
                               " failed: " + status.ToString(),
                           rtree->path());
          break;
        }
        if (rec == nullptr) break;
        if (present.insert(rec->view_id).second &&
            planned.count(rec->view_id) == 0) {
          report->AddError("forest", "stray-view",
                           "tree " + std::to_string(t) +
                               " stores points of view " +
                               std::to_string(rec->view_id) +
                               " which the plan does not place there",
                           rtree->path());
        }
        ++scanned;
      }
      if (scanned != rtree->num_points()) {
        report->AddError("forest", "point-count",
                         "tree " + std::to_string(t) + " scan found " +
                             std::to_string(scanned) +
                             " points, metadata records " +
                             std::to_string(rtree->num_points()),
                         rtree->path());
      }
      scanned_total += scanned;
      meta_total += rtree->num_points();
    }
    for (uint32_t vid : plan.trees[t].view_ids) {
      if (present.count(vid) == 0) {
        report->AddInfo("forest", "empty-view",
                        "view " + std::to_string(vid) +
                            " has no points in tree " + std::to_string(t),
                        snapshot.tree(t)->rtree()->path());
      }
    }
  }
  if (scanned_total != meta_total || meta_total != snapshot.TotalPoints()) {
    report->AddError("forest", "total-points",
                     "forest point totals disagree (scanned " +
                         std::to_string(scanned_total) + ", metadata " +
                         std::to_string(snapshot.TotalPoints()) + ")",
                     forest_ctx);
  }

  // --- Snapshot / GC state ----------------------------------------------
  // The published generation and its file set, plus anything on disk the
  // generation does not reference: retired files a crashed process never
  // reclaimed (or mid-refresh temporaries). Recover sweeps those; here
  // they are surfaced so an operator sees the pending work.
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
  std::set<std::string> live_names;
  for (const std::string& path : live_files) {
    const size_t slash = path.find_last_of('/');
    live_names.insert(slash == std::string::npos ? path
                                                 : path.substr(slash + 1));
  }
  const std::string file_prefix = impl_->forest_name + "_t";
  if (DIR* d = ::opendir(impl_->dir.c_str())) {
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name.rfind(file_prefix, 0) != 0) continue;
      if (name.size() < 4 || name.substr(name.size() - 4) != ".ctr") {
        continue;  // .quarantine etc. — recovery's concern, not GC's.
      }
      if (live_names.count(name) == 0) {
        report->AddWarning("forest", "unreferenced-file",
                           name +
                               " is not referenced by the live generation "
                               "(unreclaimed retired file or crash orphan; "
                               "Recover will sweep it)",
                           impl_->dir + "/" + name);
      }
    }
    ::closedir(d);
  }

  // --- Disk space -------------------------------------------------------
  // The live file footprint against the volume's free space, so an
  // operator sees how close the next refresh is to a StorageFull refusal
  // (a compaction's preflight needs roughly the live tree bytes again).
  {
    uint64_t tree_bytes = 0;
    uint64_t live_bytes = 0;
    for (const std::string& path : live_files) {
      struct stat st;
      if (::stat(path.c_str(), &st) == 0) {
        tree_bytes += static_cast<uint64_t>(st.st_size);
      }
      if (::stat((path + ".crc").c_str(), &st) == 0) {
        live_bytes += static_cast<uint64_t>(st.st_size);
      }
    }
    live_bytes += tree_bytes;
    const uint64_t compaction_bytes =
        EstimateRefreshBytes(RTreeOptions{}, tree_bytes, 0,
                             snapshot.num_trees(), forest->views().size());
    DiskSpaceManager disk(impl_->dir);
    auto space = disk.Probe();
    if (space.ok()) {
      report->AddInfo(
          "forest", "disk-space",
          std::to_string(live_bytes) + " live byte(s) (trees + sidecars); " +
              "volume has " + std::to_string(space->free_bytes) +
              " free, " + std::to_string(space->usable_bytes()) +
              " usable after the " + std::to_string(space->reserve_bytes) +
              "-byte reserve; a compaction preflights ~" +
              std::to_string(compaction_bytes) + " bytes",
          impl_->dir);
    } else {
      report->AddWarning("forest", "disk-space",
                         "free-space probe failed: " +
                             space.status().ToString(),
                         impl_->dir);
    }
  }

  // --- Deep per-file validation -----------------------------------------
  // --checksums alone also walks every tree file: RTreeChecker performs
  // the sidecar verification (its structural depth still honors `deep`).
  if (impl_->options.deep || impl_->options.checksums) {
    auto arity_of = [&forest](uint32_t view_id) -> uint8_t {
      auto view = forest->view(view_id);
      return view.ok() ? (*view)->arity() : 0;
    };
    for (size_t t = 0; t < snapshot.num_trees(); ++t) {
      for (PackedRTree* rtree : snapshot.tree(t)->main_and_deltas()) {
        RTreeChecker checker(rtree->path(), impl_->options, arity_of);
        CT_RETURN_NOT_OK(checker.Run(report));
      }
    }
  }
  return Status::OK();
}

}  // namespace cubetree
