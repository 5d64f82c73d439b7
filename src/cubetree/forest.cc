#include "cubetree/forest.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "check/check.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "cubetree/merge_pack.h"
#include "common/timer.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/node.h"
#include "storage/checksum.h"
#include "storage/disk_space.h"
#include "storage/page_manager.h"

namespace cubetree {

namespace {

/// True when a refresh of `kind` writes tree `slot`: the load and a rebuild
/// fill the empty slots (every slot of an unbuilt forest, the quarantined
/// trees of a built one), the other kinds rewrite the healthy trees.
bool IsRefreshTarget(CubetreeForest::RefreshKind kind,
                     const forest_internal::TreeState& slot) {
  using Kind = CubetreeForest::RefreshKind;
  return (kind == Kind::kLoad || kind == Kind::kRebuild) ==
         (slot.tree == nullptr);
}

/// How a disk-space refusal names a transaction of `kind`.
const char* KindName(CubetreeForest::RefreshKind kind) {
  static constexpr const char* kNames[] = {"load", "merge refresh",
                                           "delta refresh", "rebuild"};
  return kNames[static_cast<size_t>(kind)];
}

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

}  // namespace

uint64_t EstimateRefreshBytes(const RTreeOptions& rtree,
                              uint64_t live_tree_bytes, uint64_t input_bytes,
                              uint64_t trees, uint64_t views) {
  // The same caps PackedRTree::Build applies, at their tightest over every
  // arity and dimensionality. A leaf storing entries of `arity` holds
  // records of that arity — or, without leaf compression, of any lower one.
  uint64_t leaf_payload = kPageSize;
  for (uint8_t arity = 0; arity <= kMaxDims; ++arity) {
    uint64_t entries = RLeafCapacity(arity);
    if (rtree.max_leaf_entries > 0) {
      entries = std::min<uint64_t>(entries, rtree.max_leaf_entries);
    }
    const uint64_t record =
        ViewRecordBytes(rtree.compress_leaves ? arity : 0);
    leaf_payload = std::min(leaf_payload, entries * record);
  }
  uint64_t fanout = std::max<uint64_t>(2, RInternalCapacity(kMaxDims));
  if (rtree.max_internal_entries > 1) {
    fanout = std::min<uint64_t>(fanout, rtree.max_internal_entries);
  }
  const uint64_t leaves = CeilDiv(live_tree_bytes, kPageSize) +
                          CeilDiv(input_bytes, leaf_payload) + views;
  uint64_t levels = 0;
  for (uint64_t span = 1; span < leaves; span *= fanout) ++levels;
  const uint64_t internal = CeilDiv(leaves, fanout - 1) + trees * levels;
  const uint64_t pages = leaves + internal + trees;
  return pages * (kPageSize + kChecksumBytesPerPage) +
         trees * kChecksumSidecarHeaderBytes;
}

namespace forest_internal {

namespace {

/// Depth of the deferred-unlink backlog: files retired from a published
/// generation but still pinned by in-flight readers.
obs::Gauge* GcBacklogGauge() {
  static obs::Gauge* const gauge =
      obs::MetricsRegistry::Instance().GetGauge("forest.gc_deferred_unlinks");
  return gauge;
}

}  // namespace

TrackedFile::TrackedFile(std::string path, std::shared_ptr<GcShared> gc)
    : path_(std::move(path)), gc_(std::move(gc)) {
  MutexLock lock(gc_->mu);
  gc_->tracked_paths.insert(path_);
}

void TrackedFile::Retire() {
  if (retired_.exchange(true, std::memory_order_relaxed)) return;
  {
    MutexLock lock(gc_->mu);
    ++gc_->unreclaimed_files;
  }
  GcBacklogGauge()->Add(1);
  // The GC failpoint is consulted here, at the retirement decision, rather
  // than in the destructor: throw/crash actions must fire in a normal call
  // context (inside the refresh), never during unwinding.
  if (FaultInjector::AnyArmed()) {
    FaultOutcome outcome = FaultInjector::Instance().Check("forest.refresh.gc");
    if (outcome.fail) {
      CT_LOG(Warn) << "forest: refresh GC skipped " << path_ << ": "
                   << outcome.ToStatus().ToString();
      // Leave the file for recovery's orphan sweep.
      leaked_.store(true, std::memory_order_relaxed);
    }
  }
}

TrackedFile::~TrackedFile() {
  {
    // The token is dying on every path below, so the path loses its
    // protection from the online reclaim sweep either way: a leaked file
    // becomes sweepable (that is how it is reclaimed without a restart),
    // an unlinked one is gone, an unretired one is still in the live set.
    MutexLock lock(gc_->mu);
    gc_->tracked_paths.erase(path_);
  }
  // Unretired: the file is live and the forest is shutting down — keep it.
  if (!retired_.load(std::memory_order_relaxed) ||
      leaked_.load(std::memory_order_relaxed)) {
    return;
  }
  // Raw unlink, not RemoveFileIfExists: this destructor may run on a reader
  // thread releasing the last snapshot, and must not throw (failpoints on
  // the shared remove helper may).
  if (::unlink(path_.c_str()) != 0 && errno != ENOENT) {
    CT_LOG(Warn) << "forest: refresh GC: unlink " << path_ << ": "
                 << std::strerror(errno);
    return;
  }
  // The checksum sidecar shadows its data file through reclamation. A
  // failure only leaves an orphan for recovery's sweep.
  const std::string sidecar = ChecksumSidecarPath(path_);
  if (::unlink(sidecar.c_str()) != 0 && errno != ENOENT) {
    CT_LOG(Warn) << "forest: refresh GC: unlink " << sidecar << ": "
                 << std::strerror(errno);
  }
  {
    MutexLock lock(gc_->mu);
    --gc_->unreclaimed_files;
    ++gc_->reclaimed_files;
  }
  GcBacklogGauge()->Add(-1);
}

EpochState::~EpochState() {
  if (gc == nullptr || !retired.load(std::memory_order_relaxed)) return;
  MutexLock lock(gc->mu);
  gc->pinned_retired_epochs.erase(epoch);
}

}  // namespace forest_internal

bool ForestSnapshot::IsViewQuarantined(uint32_t view_id) const {
  auto it = state_->view_to_tree.find(view_id);
  return it != state_->view_to_tree.end() &&
         state_->trees[it->second].tree == nullptr;
}

bool ForestSnapshot::HasQuarantine() const {
  for (const auto& slot : state_->trees) {
    if (slot.tree == nullptr) return true;
  }
  return false;
}

Result<Cubetree*> ForestSnapshot::TreeForView(uint32_t view_id) const {
  auto it = state_->view_to_tree.find(view_id);
  if (it == state_->view_to_tree.end()) {
    return Status::NotFound("forest: view not materialized");
  }
  Cubetree* tree = state_->trees[it->second].tree.get();
  if (tree == nullptr) {
    return Status::Unavailable("forest: view " + std::to_string(view_id) +
                               " is quarantined awaiting rebuild");
  }
  return tree;
}

std::string ForestRecoveryReport::ToString() const {
  std::ostringstream out;
  out << "recovery: orphans_removed=" << removed_orphans.size()
      << " quarantined_trees=" << quarantined_trees.size();
  for (const std::string& note : notes) out << "\n  " << note;
  return out.str();
}

Result<std::unique_ptr<CubetreeForest>> CubetreeForest::Create(
    Options options, BufferPool* pool, std::shared_ptr<IoStats> io_stats) {
  if (pool == nullptr) {
    return Status::InvalidArgument("forest: buffer pool required");
  }
  return std::unique_ptr<CubetreeForest>(
      new CubetreeForest(std::move(options), pool, std::move(io_stats)));
}

std::string CubetreeForest::TreePath(size_t tree_index,
                                     uint32_t generation) const {
  return options_.dir + "/" + options_.name + "_t" +
         std::to_string(tree_index) + "_g" + std::to_string(generation) +
         ".ctr";
}

std::string CubetreeForest::DeltaPath(size_t tree_index,
                                      uint32_t generation) const {
  return options_.dir + "/" + options_.name + "_t" +
         std::to_string(tree_index) + "_d" + std::to_string(generation) +
         ".ctr";
}

std::string CubetreeForest::ManifestPath() const {
  return options_.dir + "/" + options_.name + ".manifest";
}

std::vector<std::string> CubetreeForest::TreeFiles(
    size_t t, const TreeState& slot) const {
  std::vector<std::string> paths = {TreePath(t, slot.generation)};
  for (uint32_t g : slot.delta_generations) paths.push_back(DeltaPath(t, g));
  return paths;
}

std::string CubetreeForest::SerializeManifest(const EpochState& state) const {
  std::ostringstream out;
  // Every tree file a manifest names has a checksum sidecar; the loader
  // refuses any other version or `checksums` value.
  out << "cubetree-forest-manifest v2\n";
  out << "checksums 1\n";
  out << "views " << views_.size() << "\n";
  for (const ViewDef& v : views_) {
    out << "view " << v.id << " " << static_cast<int>(v.arity());
    for (uint32_t a : v.attrs) out << " " << a;
    out << "\n";
  }
  out << "trees " << plan_.trees.size() << "\n";
  for (size_t t = 0; t < plan_.trees.size(); ++t) {
    out << "tree " << static_cast<int>(plan_.trees[t].dims) << " "
        << state.trees[t].generation;
    for (uint32_t vid : plan_.trees[t].view_ids) out << " " << vid;
    out << "\n";
  }
  for (size_t t = 0; t < state.trees.size(); ++t) {
    for (uint32_t generation : state.trees[t].delta_generations) {
      out << "delta " << t << " " << generation << "\n";
    }
  }
  return out.str();
}

Status CubetreeForest::SaveManifestDurable(const EpochState& state) const {
  // The manifest names tree files, so those files must be durable before
  // the manifest can point at them (PackedRTree::Build fsyncs). The swap
  // itself: write tmp -> fsync(tmp) -> fsync(dir) -> rename -> fsync(dir).
  // A crash anywhere before the rename leaves the old manifest in effect;
  // after it, the new one. There is no in-between.
  const std::string data = SerializeManifest(state);
  const std::string tmp = ManifestPath() + ".tmp";
  CT_FAULT("forest.manifest.create");
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("create " + tmp + ": " + std::strerror(errno));
  }
  Status status;
  if (FaultInjector::AnyArmed()) {
    status = FaultInjector::Instance().MaybeFail("forest.manifest.write");
  }
  if (status.ok()) status = PwriteFully(fd, data.data(), data.size(), 0, tmp);
  if (status.ok() && FaultInjector::AnyArmed()) {
    status = FaultInjector::Instance().MaybeFail("forest.manifest.sync");
  }
  if (status.ok()) status = SyncFd(fd, tmp);
  ::close(fd);
  if (status.ok()) status = SyncDir(options_.dir);
  if (status.ok() && FaultInjector::AnyArmed()) {
    status = FaultInjector::Instance().MaybeFail("forest.manifest.rename");
  }
  if (!status.ok()) return status;
  if (std::rename(tmp.c_str(), ManifestPath().c_str()) != 0) {
    return Status::IOError("rename " + tmp + ": " + std::strerror(errno));
  }
  // Commit point. The rename is visible; failing the caller now would make
  // it believe the old state is still in effect, so later problems are
  // logged instead of returned. (A real power cut before this directory
  // sync lands is equivalent to crashing before the rename — recovery
  // handles either generation.)
  if (FaultInjector::AnyArmed()) {
    FaultOutcome outcome =
        FaultInjector::Instance().Check("forest.manifest.dirsync");
    if (outcome.fail) {
      CT_LOG(Warn) << "forest: manifest dirsync skipped: "
                   << outcome.ToStatus().ToString();
      return Status::OK();
    }
  }
  Status synced = SyncDir(options_.dir);
  if (!synced.ok()) {
    CT_LOG(Warn) << "forest: manifest dirsync: " << synced.ToString();
  }
  return Status::OK();
}

Status CubetreeForest::LoadManifest(EpochState* state) {
  std::ifstream in(ManifestPath());
  if (!in) {
    return Status::NotFound("no forest manifest at " + ManifestPath());
  }
  std::string line;
  if (!std::getline(in, line) || line != "cubetree-forest-manifest v2") {
    return Status::Corruption("bad forest manifest header");
  }
  auto malformed = [] { return Status::Corruption("malformed manifest"); };
  std::string word;
  int checksums = 0;
  if (!(in >> word >> checksums) || word != "checksums" || checksums != 1) {
    return malformed();
  }
  size_t num_views = 0;
  if (!(in >> word >> num_views) || word != "views") return malformed();
  for (size_t i = 0; i < num_views; ++i) {
    ViewDef v;
    int arity = 0;
    if (!(in >> word >> v.id >> arity) || word != "view" || arity < 0 ||
        arity > static_cast<int>(kMaxDims)) {
      return malformed();
    }
    for (int a = 0; a < arity; ++a) {
      uint32_t attr;
      if (!(in >> attr)) return malformed();
      v.attrs.push_back(attr);
    }
    views_.push_back(v);
    if (!views_by_id_.emplace(v.id, v).second) return malformed();
  }
  size_t num_trees = 0;
  if (!(in >> word >> num_trees) || word != "trees") return malformed();
  for (size_t t = 0; t < num_trees; ++t) {
    int dims = 0;
    TreeState slot;
    if (!(in >> word >> dims >> slot.generation) || word != "tree" ||
        dims < 0 || dims > static_cast<int>(kMaxDims)) {
      return malformed();
    }
    ForestPlan::TreeSpec spec;
    spec.dims = static_cast<uint8_t>(dims);
    // The rest of the line holds the view ids.
    std::getline(in, line);
    std::istringstream ids(line);
    uint32_t vid;
    while (ids >> vid) {
      if (views_by_id_.count(vid) == 0) return malformed();
      spec.view_ids.push_back(vid);
      plan_.view_to_tree[vid] = t;
    }
    plan_.trees.push_back(std::move(spec));
    state->trees.push_back(std::move(slot));
  }
  if (Status valid = ValidatePlan(plan_, views_); !valid.ok()) {
    return Status::Corruption("forest manifest " + ManifestPath() + ": " +
                              valid.message());
  }
  next_delta_generation_.assign(num_trees, 0);
  quarantine_files_.assign(num_trees, {});
  while (in >> word) {
    if (word != "delta") return malformed();
    size_t t = 0;
    uint32_t generation = 0;
    if (!(in >> t >> generation) || t >= num_trees) return malformed();
    state->trees[t].delta_generations.push_back(generation);
    next_delta_generation_[t] =
        std::max(next_delta_generation_[t], generation + 1);
  }
  return Status::OK();
}

Result<std::shared_ptr<Cubetree>> CubetreeForest::OpenTree(
    size_t t, const TreeState& slot, CheckReport* report,
    std::map<uint32_t, uint64_t>* view_points) const {
  const std::vector<ViewDef> views = TreeViews(t);
  const std::vector<std::string> paths = TreeFiles(t, slot);
  const size_t errors = report->errors();
  const size_t findings = report->findings().size();
  // Every file is checked, past a damaged one too, so the report names all
  // the damage.
  const ViewArityFn view_arity = ViewArityOf(views);
  for (const std::string& path : paths) {
    const Status checked = CheckTree(path, view_arity, report, view_points);
    if (checked.IsNotFound()) {
      const std::string aside = path + ".quarantine";
      report->AddError("forest", "file-missing",
                       FileExists(aside)
                           ? "set aside as " + aside +
                                 " by recovery; Repair rebuilds the tree"
                           : "the manifest names a file that does not exist",
                       path);
    } else if (!checked.ok()) {
      return checked;
    }
  }
  std::shared_ptr<Cubetree> tree;
  for (const std::string& path : paths) {
    if (report->errors() > errors) break;
    auto opened = PackedRTree::Open(path, pool_, io_stats_);
    if (!opened.ok()) {
      // Damage the pass did not see, such as a metadata page that read bad
      // this time, is a finding like any other.
      if (!opened.status().IsCorruption()) return opened.status();
      report->AddError("rtree", "unreadable-page",
                       opened.status().ToString(), path);
      break;
    }
    std::shared_ptr<PackedRTree> rtree = std::move(opened).value();
    if (rtree->dims() != plan_.trees[t].dims) {
      report->AddError("forest", "tree-dims",
                       "file has " + std::to_string(rtree->dims()) +
                           " dimensions, the manifest plans tree " +
                           std::to_string(t) + " with " +
                           std::to_string(plan_.trees[t].dims),
                       path);
    } else if (tree == nullptr) {
      tree = std::make_shared<Cubetree>(views, std::move(rtree));
    } else {
      tree->AddDelta(std::move(rtree));
    }
  }
  if (report->errors() == errors) return tree;
  const Status why = report->FirstError(findings);
  // Every finding of the tree may lie past the report's per-code cap.
  return why.ok() ? Status::Corruption("tree " + std::to_string(t) +
                                       " failed its check")
                  : why;
}

Result<std::unique_ptr<CubetreeForest>> CubetreeForest::OpenChecked(
    Options options, BufferPool* pool, std::shared_ptr<IoStats> io_stats,
    CheckReport* report, ForestRecoveryReport* recovery) {
  CT_ASSIGN_OR_RETURN(auto forest,
                      Create(std::move(options), pool, std::move(io_stats)));
  // The forest is not yet visible to other threads; the lock only lets the
  // guarded state be built under it.
  MutexLock lock(forest->refresh_mu_);
  auto state = std::make_shared<EpochState>();
  CT_RETURN_NOT_OK(forest->LoadManifest(state.get()));
  for (size_t t = 0; t < state->trees.size(); ++t) {
    TreeState& slot = state->trees[t];
    std::map<uint32_t, uint64_t> tree_points;
    auto tree = forest->OpenTree(t, slot, report, &tree_points);
    if (tree.ok()) {
      slot.tree = std::move(tree).value();
      // Each view lives in one tree, so the tallies never collide.
      if (recovery != nullptr) recovery->view_points.merge(tree_points);
      continue;
    }
    // Damage takes the tree out of service; any other error means the
    // check could not run.
    if (!tree.status().IsCorruption()) return tree.status();
    if (recovery != nullptr) {
      recovery->quarantined_trees.push_back(t);
      for (uint32_t vid : forest->plan_.trees[t].view_ids) {
        recovery->quarantined_views.push_back(vid);
      }
      recovery->notes.push_back("quarantined tree " + std::to_string(t) +
                                ": " + tree.status().ToString());
    }
  }
  forest->PublishState(std::move(state));
  return forest;
}

Result<std::unique_ptr<CubetreeForest>> CubetreeForest::Open(
    Options options, BufferPool* pool, std::shared_ptr<IoStats> io_stats,
    CheckReport* report) {
  CheckReport unread;
  return OpenChecked(std::move(options), pool, std::move(io_stats),
                     report != nullptr ? report : &unread, nullptr);
}

void CubetreeForest::SetAside(size_t t, const TreeState& slot) {
  for (const std::string& path : TreeFiles(t, slot)) {
    // The sidecar follows its data file, so a rebuilt generation never
    // pairs with stale checksums.
    for (const std::string& file : {path, ChecksumSidecarPath(path)}) {
      const std::string aside = file + ".quarantine";
      // Not a commit point: best-effort tidying of a file already out of
      // service; a failed rename leaves it for a later recovery pass.
      // ct-lint: allow(fault-pair)
      if (FileExists(file) && std::rename(file.c_str(), aside.c_str()) != 0) {
        CT_LOG(Warn) << "forest: cannot quarantine " << file << ": "
                     << std::strerror(errno);
        continue;
      }
      // Renamed just now, or by an earlier recovery.
      if (FileExists(aside)) quarantine_files_[t].push_back(aside);
    }
  }
}

void CubetreeForest::RemoveOrphan(const std::string& path,
                                  ForestRecoveryReport* report) {
  if (FaultInjector::AnyArmed()) {
    FaultOutcome outcome = FaultInjector::Instance().Check("forest.recover.gc");
    if (outcome.fail) {
      CT_LOG(Warn) << "forest: recovery GC skipped " << path << ": "
                   << outcome.ToStatus().ToString();
      return;
    }
  }
  Status removed = RemoveFileIfExists(path);
  if (!removed.ok()) {
    CT_LOG(Warn) << "forest: recovery GC: " << removed.ToString();
    return;
  }
  if (report != nullptr) report->removed_orphans.push_back(path);
}

Result<std::unique_ptr<CubetreeForest>> CubetreeForest::Recover(
    Options options, BufferPool* pool, std::shared_ptr<IoStats> io_stats,
    ForestRecoveryReport* report) {
  ForestRecoveryReport local_report;
  if (report == nullptr) report = &local_report;
  // 1. Open, which checks every tree file and leaves damaged trees out of
  // service.
  CheckReport checked;
  CT_ASSIGN_OR_RETURN(auto forest,
                      OpenChecked(std::move(options), pool,
                                  std::move(io_stats), &checked, report));
  MutexLock lock(forest->refresh_mu_);

  // 2. Set the out-of-service trees' files aside until they are rebuilt.
  const std::shared_ptr<EpochState> live = forest->Published();
  for (size_t t : report->quarantined_trees) {
    forest->SetAside(t, live->trees[t]);
  }

  // 3. Sweep the directory: any tree-generation file of this forest the
  // manifest does not reference is the debris of an interrupted refresh
  // (either the half-built next generation or the un-reclaimed previous
  // one) — as is a stale manifest tmp. ".quarantine" files are kept for
  // RebuildQuarantined.
  CT_ASSIGN_OR_RETURN(std::vector<std::string> orphans,
                      forest->OrphanFilesLocked());
  for (const std::string& path : orphans) {
    forest->RemoveOrphan(path, report);
  }
  return forest;
}

std::vector<ViewDef> CubetreeForest::TreeViews(size_t t) const {
  std::vector<ViewDef> views;
  for (uint32_t vid : plan_.trees[t].view_ids) {
    views.push_back(views_by_id_.at(vid));
  }
  return views;
}

Result<std::unique_ptr<ViewStreamSource>> CubetreeForest::OpenTreeSource(
    size_t t, ViewDataProvider* provider) const {
  // Ascending arity is pack order across the tree's views: a view of arity
  // a has zeros in every coordinate >= a, so all its points precede every
  // point of any higher-arity view.
  std::vector<ViewDef> views = TreeViews(t);
  std::sort(views.begin(), views.end(),
            [](const ViewDef& a, const ViewDef& b) {
              return a.arity() < b.arity();
            });
  std::vector<ViewStreamSource::ViewStream> streams;
  for (const ViewDef& view : views) {
    CT_ASSIGN_OR_RETURN(auto stream, provider->OpenViewStream(view));
    streams.push_back({view.id, view.arity(), std::move(stream)});
  }
  return std::make_unique<ViewStreamSource>(std::move(streams));
}

Status CubetreeForest::Build(const std::vector<ViewDef>& views,
                             ViewDataProvider* provider) {
  MutexLock refresh_lock(refresh_mu_);
  if (Published() != nullptr) {
    return Status::InvalidArgument("forest: already built");
  }
  // A refused or failed load published nothing, so it is simply planned
  // again.
  views_ = views;
  views_by_id_.clear();
  plan_ = ForestPlan{};
  for (const ViewDef& v : views_) {
    if (!views_by_id_.emplace(v.id, v).second) {
      return Status::InvalidArgument("forest: duplicate view id");
    }
  }
  if (options_.one_tree_per_view) {
    for (const ViewDef& v : views_) {
      ForestPlan::TreeSpec spec;
      spec.dims = std::max<uint8_t>(1, v.arity());
      spec.view_ids = {v.id};
      plan_.view_to_tree[v.id] = plan_.trees.size();
      plan_.trees.push_back(std::move(spec));
    }
  } else {
    plan_ = SelectMapping(views_);
  }
  // Whichever planner ran, the plan must keep the SelectMapping invariant
  // the manifest loader checks it against.
  CT_RETURN_NOT_OK(ValidatePlan(plan_, views_));
  next_delta_generation_.assign(plan_.trees.size(), 0);
  quarantine_files_.assign(plan_.trees.size(), {});
  return RefreshTxn(RefreshKind::kLoad, provider);
}

Status CubetreeForest::ApplyDelta(ViewDataProvider* delta_provider) {
  MutexLock refresh_lock(refresh_mu_);
  return RefreshTxn(RefreshKind::kMerge, delta_provider);
}

Status CubetreeForest::ApplyDeltaPartial(ViewDataProvider* delta_provider) {
  MutexLock refresh_lock(refresh_mu_);
  return RefreshTxn(RefreshKind::kDelta, delta_provider);
}

Status CubetreeForest::Compact() {
  // A merge refresh without an increment folds all pending deltas in.
  MutexLock refresh_lock(refresh_mu_);
  return RefreshTxn(RefreshKind::kMerge, nullptr);
}

Status CubetreeForest::RebuildQuarantined(ViewDataProvider* provider) {
  MutexLock refresh_lock(refresh_mu_);
  return RefreshTxn(RefreshKind::kRebuild, provider);
}

Status CubetreeForest::RefreshTxn(RefreshKind kind,
                                  ViewDataProvider* provider) {
  if (Published() == nullptr && kind != RefreshKind::kLoad) {
    return Status::InvalidArgument("forest: not built yet");
  }
  // The next generation, staged from the published slots. Tasks read their
  // inputs from it; outputs go in only once every pack has succeeded.
  std::shared_ptr<EpochState> next = StageState();

  // One task per tree the transaction writes. Workers touch only their own
  // task: the inputs are prepared serially under refresh_mu_ (providers are
  // not thread-safe), and each worker fills its own output slot.
  struct Task {
    size_t tree = 0;
    /// kMerge folds this tree's main file and pending deltas in.
    std::shared_ptr<Cubetree> folded;
    std::unique_ptr<ViewStreamSource> stream;
    std::string path;
    uint32_t generation = 0;
    std::unique_ptr<PackedRTree> output;
  };
  std::vector<Task> tasks;
  for (size_t t = 0; t < next->trees.size(); ++t) {
    const bool target = IsRefreshTarget(kind, next->trees[t]);
    if (!target && next->trees[t].tree == nullptr) {
      return Status::Unavailable(
          "forest: quarantined trees must be rebuilt before a refresh");
    }
    if (target) tasks.emplace_back().tree = t;
  }
  // The load commits even a forest without trees.
  if (tasks.empty() && kind != RefreshKind::kLoad) return Status::OK();

  // 1. Space preflight: refuse up front with a typed, retriable
  // StorageFull naming the shortfall rather than hit ENOSPC halfway through
  // the pack — the published epoch keeps serving either way.
  uint64_t live_bytes = 0;
  uint64_t views = 0;
  for (const Task& task : tasks) {
    views += plan_.trees[task.tree].view_ids.size();
    if (kind == RefreshKind::kMerge) {
      live_bytes += next->trees[task.tree].tree->TotalSizeBytes();
    }
  }
  CT_RETURN_NOT_OK(PreflightRefreshLocked(
      kind, EstimateRefreshBytes(
                options_.rtree, live_bytes,
                provider == nullptr ? 0 : provider->EstimatedInputBytes(),
                tasks.size(), views)));

  // 2. Serial task preparation. Delta numbers come from the monotonic
  // counter; the load writes generation 0, and every later main file the
  // next generation of the live one.
  Status status;
  for (Task& task : tasks) {
    const TreeState& slot = next->trees[task.tree];
    if (kind == RefreshKind::kDelta) {
      task.generation = next_delta_generation_[task.tree]++;
      task.path = DeltaPath(task.tree, task.generation);
    } else {
      task.generation = kind == RefreshKind::kLoad ? 0 : slot.generation + 1;
      task.path = TreePath(task.tree, task.generation);
    }
    if (kind == RefreshKind::kMerge) task.folded = slot.tree;
    if (provider == nullptr) continue;
    auto stream = OpenTreeSource(task.tree, provider);
    status = stream.status();
    if (!status.ok()) break;
    task.stream = std::move(stream).value();
  }

  // 3. Pack every task's output beside the live files, one worker per
  // tree. The live trees keep serving queries; nothing is mutated yet.
  if (status.ok()) {
    const char* span_name = kind == RefreshKind::kLoad ? "refresh.load_pack"
                            : kind == RefreshKind::kMerge
                                ? "refresh.merge_pack"
                            : kind == RefreshKind::kDelta
                                ? "refresh.delta_pack"
                                : "refresh.rebuild_pack";
    const ViewArityFn arity_fn = ViewArityOf(views_);
    // One worker per tree, at most the refresh width (ParallelFor caps it
    // at the task count). Each worker builds its spans in a private child
    // trace and splices them back under the refresh trace when its task
    // ends.
    obs::TraceHandoff handoff;
    status = ParallelFor(
        tasks.size(), RefreshThreadsFromEnv(),
        [&](size_t i, CancelFlag* cancel) -> Status {
          obs::TraceHandoff::Adopt adopt(handoff);
          Task& task = tasks[i];
          obs::Span pack_span(span_name);
          pack_span.Annotate("tree", static_cast<uint64_t>(task.tree));
          // Inputs in the order equal keys combine: the main tree, the
          // pending deltas oldest first, then the increment.
          std::vector<std::unique_ptr<PackedRTree::LeafRunSource>> leaves;
          std::vector<ViewRunSource*> inputs;
          if (task.folded != nullptr) {
            for (PackedRTree* rtree : task.folded->main_and_deltas()) {
              leaves.push_back(
                  std::make_unique<PackedRTree::LeafRunSource>(rtree, arity_fn));
              inputs.push_back(leaves.back().get());
            }
          }
          if (task.stream != nullptr) inputs.push_back(task.stream.get());
          RTreeOptions tree_options = options_.rtree;
          tree_options.dims = plan_.trees[task.tree].dims;
          CT_ASSIGN_OR_RETURN(
              task.output,
              PackedRTree::Build(task.path, tree_options, pool_, inputs,
                                 arity_fn, io_stats_, cancel));
          pack_span.Annotate("points", task.output->num_points());
          CT_FAULT("forest.refresh.build");
          if (kind == RefreshKind::kDelta && task.output->num_points() == 0) {
            // Nothing in this tree's increment; drop the empty file.
            task.output.reset();
            CT_RETURN_NOT_OK(RemoveFileIfExists(task.path));
            CT_RETURN_NOT_OK(RemoveChecksumSidecar(task.path));
          }
          return Status::OK();
        });
  }

  // 4. Install the outputs in the staged generation: fresh Cubetree objects
  // for the touched trees. The published epoch's objects are never mutated
  // — readers pinned to it keep serving the old files until their
  // snapshots drop.
  if (status.ok()) {
    for (Task& task : tasks) {
      if (task.output == nullptr) continue;
      TreeState& slot = next->trees[task.tree];
      if (kind == RefreshKind::kDelta) {
        auto tree = std::make_shared<Cubetree>(TreeViews(task.tree),
                                               slot.tree->shared_rtree());
        for (const auto& delta : slot.tree->shared_deltas()) {
          tree->AddDelta(delta);
        }
        tree->AddDelta(std::move(task.output));
        slot.tree = std::move(tree);
        slot.delta_generations.push_back(task.generation);
      } else {
        slot.tree = std::make_shared<Cubetree>(TreeViews(task.tree),
                                               std::move(task.output));
        slot.generation = task.generation;
        slot.delta_generations.clear();
      }
    }
    // 5. The durable manifest swap — the commit point.
    obs::Span commit_span("refresh.manifest_commit");
    status = SaveManifestDurable(*next);
  }

  // 6. Clean abort: close and delete every output the transaction wrote
  // (including the partial file of a failed or cancelled worker) and its
  // sidecar, and leave the live state alone. A failed removal only leaves
  // an orphan for the next sweep.
  if (!status.ok()) {
    next.reset();
    for (Task& task : tasks) {
      task.output.reset();
      if (task.path.empty()) continue;
      for (const std::string& path :
           {task.path, ChecksumSidecarPath(task.path)}) {
        Status removed = RemoveFileIfExists(path);
        if (!removed.ok()) {
          CT_LOG(Warn) << "forest: refresh abort: " << removed.ToString();
        }
      }
    }
    return status;
  }

  // 7. Publish. The manifest already names the staged state, so it is
  // published even when the failpoint injects an error; a crash or throw
  // there leaves the replaced files for recovery to sweep.
  Status committed;
  if (FaultInjector::AnyArmed()) {
    committed = FaultInjector::Instance().MaybeFail("forest.refresh.commit");
  }
  PublishState(std::move(next));
  // A rebuilt tree's ".quarantine" files were never epoch-tracked (its slot
  // was empty in every published epoch); remove them directly.
  for (const Task& task : tasks) {
    for (const std::string& path : quarantine_files_[task.tree]) {
      Status removed = RemoveFileIfExists(path);
      if (!removed.ok()) {
        CT_LOG(Warn) << "forest: quarantine cleanup: " << removed.ToString();
      }
    }
    quarantine_files_[task.tree].clear();
  }
  return committed;
}

Result<bool> CubetreeForest::QuarantineForCorruption(
    uint32_t view_id, const std::string& file_path, const Status& why) {
  MutexLock lock(refresh_mu_);
  std::shared_ptr<EpochState> next = StageState();
  auto it = plan_.view_to_tree.find(view_id);
  if (it == plan_.view_to_tree.end() || it->second >= next->trees.size()) {
    return Status::NotFound("forest: unknown view id " +
                            std::to_string(view_id));
  }
  const size_t t = it->second;
  if (next->trees[t].tree == nullptr) return false;
  const std::vector<std::string> files = TreeFiles(t, next->trees[t]);
  // The corrupt file already left the live generation (a refresh replaced
  // it since the caller read from it); its epoch dies with the last
  // snapshot pinning it, so there is nothing left to repair.
  if (!file_path.empty() &&
      std::find(files.begin(), files.end(), file_path) == files.end()) {
    return false;
  }
  CT_LOG(Warn) << "forest: quarantining tree " << t << " for corruption: "
               << why.ToString();
  // Drop the staged reference; the buffer pool drops the file's pages once
  // no published epoch holds the tree either.
  next->trees[t].tree.reset();
  SetAside(t, next->trees[t]);
  // Publish immediately: in-flight queries keep their pinned snapshots,
  // but every re-route from here on skips the quarantined views.
  PublishState(std::move(next));
  static obs::Counter* const quarantines =
      obs::MetricsRegistry::Instance().GetCounter(
          "forest.corruption_quarantines");
  quarantines->Increment();
  return true;
}

Result<const ViewDef*> CubetreeForest::view(uint32_t view_id) const {
  auto it = views_by_id_.find(view_id);
  if (it == views_by_id_.end()) {
    return Status::NotFound("forest: unknown view id");
  }
  return &it->second;
}

Result<std::vector<std::string>> CubetreeForest::OrphanFiles() const {
  MutexLock lock(refresh_mu_);
  return OrphanFilesLocked();
}

Result<std::vector<std::string>> CubetreeForest::OrphanFilesLocked() const {
  // A file with a live TrackedFile token is referenced by some epoch —
  // the published one, or a retired one a reader still pins — and must
  // survive. refresh_mu_ keeps a refresh's not-yet-published outputs out of
  // the directory while this runs.
  std::set<std::string> keep;
  {
    MutexLock gc_lock(gc_->mu);
    keep = gc_->tracked_paths;
  }
  // A quarantined tree's files are named by the manifest: recovery sets
  // them aside, it does not sweep them.
  if (const std::shared_ptr<EpochState> live = Published()) {
    for (size_t t = 0; t < live->trees.size(); ++t) {
      if (live->trees[t].tree != nullptr) continue;
      for (std::string& path : TreeFiles(t, live->trees[t])) {
        keep.insert(std::move(path));
      }
    }
  }
  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) {
    return Status::IOError("opendir " + options_.dir + ": " +
                           std::strerror(errno));
  }
  std::vector<std::string> orphans;
  const std::string& name = options_.name;
  while (struct dirent* entry = ::readdir(dir)) {
    const std::string file = entry->d_name;
    if (!file.starts_with(name)) continue;
    const std::string path = options_.dir + "/" + file;
    const bool tree_file =
        file.starts_with(name + "_t") && file.ends_with(".ctr");
    // A checksum sidecar is live exactly when its data file is: one
    // surviving alone is debris from the same interrupted refresh.
    const bool sidecar_file =
        file.starts_with(name + "_t") && file.ends_with(".ctr.crc");
    const std::string data_path =
        sidecar_file ? path.substr(0, path.size() - 4) : path;
    const bool stale_tmp = file == name + ".manifest.tmp";
    // Stores written before the refresh journal was retired may hold one.
    const bool stale_journal = file == name + ".refresh.wal";
    if (((tree_file || sidecar_file) && keep.count(data_path) == 0) ||
        stale_tmp || stale_journal) {
      orphans.push_back(path);
    }
  }
  ::closedir(dir);
  std::sort(orphans.begin(), orphans.end());  // deterministic sweep order
  return orphans;
}

uint64_t CubetreeForest::ReclaimSpace() {
  MutexLock lock(refresh_mu_);
  return ReclaimSpaceLocked();
}

uint64_t CubetreeForest::ReclaimSpaceLocked() {
  // The GC counters are left alone; they describe the deferred-unlink
  // backlog, not this sweep.
  auto orphans = OrphanFilesLocked();
  if (!orphans.ok()) return 0;
  uint64_t reclaimed = 0;
  for (const std::string& path : *orphans) {
    struct stat st;
    const uint64_t bytes =
        ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
    Status removed = RemoveFileIfExists(path);
    if (!removed.ok()) {
      CT_LOG(Warn) << "forest: space reclaim: " << removed.ToString();
      continue;
    }
    CT_LOG(Info) << "forest: space reclaim: removed " << path << " (" << bytes
                 << " bytes)";
    reclaimed += bytes;
  }
  return reclaimed;
}

Status CubetreeForest::PreflightRefreshLocked(RefreshKind kind,
                                              uint64_t estimated_bytes) {
  DiskSpaceManager disk(options_.dir);
  const char* what = KindName(kind);
  Status space = disk.Preflight(what, estimated_bytes);
  if (space.IsStorageFull()) {
    // Make room before refusing: sweep crash debris and files whose
    // deferred unlink was vetoed or failed, then probe again.
    const uint64_t reclaimed = ReclaimSpaceLocked();
    if (reclaimed > 0) {
      CT_LOG(Info) << "forest: " << what << " preflight reclaimed "
                   << reclaimed << " bytes, re-probing";
      space = disk.Preflight(what, estimated_bytes);
    }
  }
  if (space.IsStorageFull()) {
    static obs::Counter* const refusals =
        obs::MetricsRegistry::Instance().GetCounter("disk.preflight_refusals");
    refusals->Increment();
  }
  return space;
}

std::shared_ptr<forest_internal::EpochState> CubetreeForest::StageState()
    const {
  auto next = std::make_shared<EpochState>();
  if (auto live = Published()) {
    next->trees = live->trees;
  } else {
    next->trees.resize(plan_.trees.size());
  }
  return next;
}

void CubetreeForest::PublishState(std::shared_ptr<EpochState> next) {
  using forest_internal::TrackedFile;
  obs::Span publish_span("refresh.publish");
  Timer publish_timer;
  std::shared_ptr<EpochState> old = Published();
  next->epoch = next_epoch_++;
  next->gc = gc_;
  next->view_to_tree = plan_.view_to_tree;
  // File-reclamation tokens: carry over the token of every file still live
  // (so one file has one token across all epochs that reference it), mint
  // tokens for new files.
  std::map<std::string, std::shared_ptr<TrackedFile>> old_tokens;
  if (old != nullptr) {
    for (const auto& file : old->files) old_tokens[file->path()] = file;
  }
  std::set<std::string> live_paths;
  for (size_t t = 0; t < next->trees.size(); ++t) {
    if (next->trees[t].tree == nullptr) continue;
    for (std::string& path : TreeFiles(t, next->trees[t])) {
      live_paths.insert(std::move(path));
    }
  }
  for (const std::string& path : live_paths) {
    auto it = old_tokens.find(path);
    next->files.push_back(it != old_tokens.end()
                              ? it->second
                              : std::make_shared<TrackedFile>(path, gc_));
  }
  {
    MutexLock lock(gc_->mu);
    gc_->live_epoch = next->epoch;
    if (old != nullptr) gc_->pinned_retired_epochs.insert(old->epoch);
  }
  if (old != nullptr) old->retired.store(true, std::memory_order_relaxed);
  const uint64_t published_epoch = next->epoch;
  // The swap hands back the outgoing state; `old` still holds it.
  SwapPublished(std::move(next));
  // Retire files the new generation dropped — after the swap, so a
  // throw/crash injected at the GC failpoint leaves the commit published
  // (files then leak to recovery, exactly as a crash between commit and GC
  // always has).
  if (old != nullptr) {
    for (const auto& file : old->files) {
      if (live_paths.find(file->path()) == live_paths.end()) file->Retire();
    }
  }
  auto& reg = obs::MetricsRegistry::Instance();
  static obs::Histogram* const publish_latency =
      reg.GetHistogram("forest.publish_latency_us");
  static obs::Gauge* const live_epoch = reg.GetGauge("forest.live_epoch");
  publish_latency->Record(publish_timer.ElapsedMicros());
  live_epoch->Set(static_cast<int64_t>(published_epoch));
}

std::shared_ptr<forest_internal::EpochState> CubetreeForest::Published()
    const {
  MutexLock lock(published_mu_);
  return published_;
}

std::shared_ptr<forest_internal::EpochState> CubetreeForest::SwapPublished(
    std::shared_ptr<EpochState> next) {
  MutexLock lock(published_mu_);
  published_.swap(next);
  return next;
}

ForestSnapshot CubetreeForest::AcquireSnapshot() const {
  return ForestSnapshot(Published());
}

ForestGcStats CubetreeForest::GcStats() const {
  MutexLock lock(gc_->mu);
  ForestGcStats stats;
  stats.live_epoch = gc_->live_epoch;
  stats.pinned_epochs = gc_->pinned_retired_epochs.size();
  stats.unreclaimed_files = gc_->unreclaimed_files;
  stats.reclaimed_files = gc_->reclaimed_files;
  return stats;
}

std::vector<std::string> CubetreeForest::LiveFiles() const {
  std::vector<std::string> paths;
  auto state = Published();
  if (state == nullptr) return paths;
  paths.reserve(state->files.size());
  for (const auto& file : state->files) paths.push_back(file->path());
  return paths;
}

Status CubetreeForest::Destroy() {
  MutexLock refresh_lock(refresh_mu_);
  const std::vector<std::string> paths = LiveFiles();
  // Drop the published epoch first (snapshots must already be released per
  // the API contract), closing its trees; its tokens are unretired, so this
  // deletes nothing — the explicit removal below does. It dies here, after
  // SwapPublished has unlocked: ~EpochState takes gc_->mu.
  std::shared_ptr<EpochState> dropped = SwapPublished(nullptr);
  dropped.reset();
  for (const std::string& path : paths) {
    CT_RETURN_NOT_OK(RemoveFileIfExists(path));
    CT_RETURN_NOT_OK(RemoveChecksumSidecar(path));
  }
  for (const auto& files : quarantine_files_) {
    for (const std::string& path : files) {
      CT_RETURN_NOT_OK(RemoveFileIfExists(path));
    }
  }
  quarantine_files_.clear();
  CT_RETURN_NOT_OK(RemoveFileIfExists(ManifestPath() + ".tmp"));
  return RemoveFileIfExists(ManifestPath());
}

}  // namespace cubetree
