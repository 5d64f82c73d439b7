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

#include "check/checkers.h"
#include "check/invariant_checker.h"
#include "common/assert.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "cubetree/merge_pack.h"
#include "common/timer.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/checksum.h"
#include "storage/disk_space.h"
#include "storage/page_manager.h"

namespace cubetree {

namespace {

/// Concatenates the record streams of several views (ascending arity) into
/// one pack-ordered PointSource. Ascending-arity concatenation IS pack
/// order across views: a view of arity a has zeros in every coordinate
/// >= a, so all its points precede every point of any higher-arity view.
/// Every view's arity must be at most kMaxDims.
class MultiViewPointSource : public PointSource {
 public:
  struct ViewStream {
    ViewDef view;
    std::unique_ptr<RecordStream> stream;
  };

  explicit MultiViewPointSource(std::vector<ViewStream> streams)
      : streams_(std::move(streams)) {
    StartView();
  }

  Status Next(const PointRecord** record) override {
    while (index_ < streams_.size()) {
      const char* raw = nullptr;
      CT_RETURN_NOT_OK(streams_[index_].stream->Next(&raw));
      if (raw != nullptr) {
        decode_(raw, &record_);
        *record = &record_;
        return Status::OK();
      }
      ++index_;
      StartView();
    }
    *record = nullptr;
    return Status::OK();
  }

 private:
  using Decoder = void (*)(const char* raw, PointRecord* out);

  /// Readies record_ for the view at index_: its id, zero coordinates and
  /// the decoder for its arity, which writes only the leading coordinates.
  void StartView() {
    if (index_ == streams_.size()) return;
    const ViewDef& view = streams_[index_].view;
    record_ = PointRecord{};
    record_.view_id = view.id;
    decode_ = DispatchArity(view.arity(), [](auto arity) -> Decoder {
      return [](const char* raw, PointRecord* out) {
        DecodeViewRecord(raw, decltype(arity)::value, out->coords, &out->agg);
      };
    });
  }

  std::vector<ViewStream> streams_;
  size_t index_ = 0;
  PointRecord record_;
  Decoder decode_ = nullptr;
};

/// Wraps a PointSource with cooperative cancellation: when a sibling
/// refresh worker fails, the shared CancelFlag flips and every other
/// worker's merge-pack aborts at its next poll instead of finishing a tree
/// that is about to be thrown away. Polling every 1024 records keeps the
/// per-record cost to a predictable branch.
class CancellablePointSource : public PointSource {
 public:
  CancellablePointSource(PointSource* inner, const CancelFlag* cancel)
      : inner_(inner), cancel_(cancel) {}

  Status Next(const PointRecord** record) override {
    if ((++polls_ & 1023u) == 0 && cancel_->cancelled()) {
      return Status::Cancelled(
          "forest: refresh cancelled by sibling worker failure");
    }
    return inner_->Next(record);
  }

 private:
  PointSource* inner_;
  const CancelFlag* cancel_;
  uint64_t polls_ = 0;
};

/// Owns a chain of pairwise merges over N pack-ordered sources.
class ChainedMergeSource {
 public:
  ChainedMergeSource(std::vector<PointSource*> inputs, uint8_t dims) {
    head_ = inputs.empty() ? nullptr : inputs[0];
    for (size_t i = 1; i < inputs.size(); ++i) {
      merges_.push_back(
          std::make_unique<MergePointSource>(head_, inputs[i], dims));
      head_ = merges_.back().get();
    }
  }

  PointSource* head() { return head_; }

 private:
  std::vector<std::unique_ptr<MergePointSource>> merges_;
  PointSource* head_ = nullptr;
};

/// Sets aside `path` and its checksum sidecar under a ".quarantine"
/// suffix, recording the aside names for the post-rebuild cleanup. The
/// sidecar follows its data file so a rebuilt generation never pairs with
/// stale checksums. Best effort: a rename failure is logged, and the
/// original path is left for a later recovery pass.
void SetAsideWithSidecar(const std::string& path,
                         std::vector<std::string>* aside_files) {
  for (const std::string& file : {path, ChecksumSidecarPath(path)}) {
    if (!FileExists(file)) continue;
    const std::string aside = file + ".quarantine";
    // Not a commit point: best-effort tidying of an already-quarantined
    // file; crash coverage lives at the manifest swap.
    // ct-lint: allow(fault-pair)
    if (std::rename(file.c_str(), aside.c_str()) != 0) {
      CT_LOG(Warn) << "forest: cannot quarantine " << file << ": "
                   << std::strerror(errno);
      continue;
    }
    aside_files->push_back(aside);
  }
}

/// True when a refresh of `kind` writes tree `slot`: a rebuild writes
/// exactly the quarantined trees, every other kind the healthy ones.
bool IsRefreshTarget(CubetreeForest::RefreshKind kind,
                     const forest_internal::TreeState& slot) {
  return (kind == CubetreeForest::RefreshKind::kRebuild) ==
         (slot.tree == nullptr);
}

}  // namespace

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

Result<std::map<uint32_t, uint64_t>> ForestSnapshot::CountPointsPerView()
    const {
  std::map<uint32_t, uint64_t> counts;
  for (const auto& entry : state_->view_to_tree) counts[entry.first] = 0;
  for (const auto& slot : state_->trees) {
    if (slot.tree == nullptr) continue;
    for (PackedRTree* rtree : slot.tree->main_and_deltas()) {
      ScannerPointSource source(rtree);
      const PointRecord* record = nullptr;
      while (true) {
        CT_RETURN_NOT_OK(source.Next(&record));
        if (record == nullptr) break;
        ++counts[record->view_id];
      }
    }
  }
  return counts;
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
  // v2 adds the `checksums` line: every tree file this manifest names was
  // built with a checksum sidecar, and the loader refuses to serve a tree
  // whose sidecar is missing or invalid. v1 manifests (no line) stay
  // loadable with verification off, for files built before checksums.
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

Result<std::shared_ptr<PackedRTree>> CubetreeForest::OpenTreeFile(
    const std::string& path, bool expect_checksums) const {
  CT_ASSIGN_OR_RETURN(std::shared_ptr<PackedRTree> rtree,
                      PackedRTree::Open(path, pool_, io_stats_));
  if (expect_checksums && !rtree->checksums_enabled()) {
    // A v2 manifest promises a sidecar for every file it names; a missing
    // one means the file set was tampered with or torn.
    return Status::Corruption("missing checksum sidecar for " +
                              ChecksumSidecarPath(path));
  }
  return rtree;
}

Status CubetreeForest::LoadManifest(bool tolerant, EpochState* state,
                                    ForestRecoveryReport* report) {
  std::ifstream in(ManifestPath());
  if (!in) {
    return Status::NotFound("no forest manifest at " + ManifestPath());
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Corruption("bad forest manifest header");
  }
  bool expect_checksums = false;
  if (line == "cubetree-forest-manifest v2") {
    expect_checksums = true;
  } else if (line != "cubetree-forest-manifest v1") {
    return Status::Corruption("bad forest manifest header");
  }
  auto malformed = [] { return Status::Corruption("malformed manifest"); };
  std::string word;
  if (expect_checksums) {
    int flag = 0;
    if (!(in >> word >> flag) || word != "checksums") return malformed();
    expect_checksums = flag != 0;
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
    if (!(in >> word >> dims >> slot.generation) || word != "tree") {
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
  // Open every tree: its main file, then its pending deltas.
  for (size_t t = 0; t < num_trees; ++t) {
    TreeState& slot = state->trees[t];
    auto open_tree = [&]() -> Status {
      CT_ASSIGN_OR_RETURN(
          auto main, OpenTreeFile(TreePath(t, slot.generation),
                                  expect_checksums));
      auto tree = std::make_shared<Cubetree>(TreeViews(t), std::move(main));
      for (uint32_t g : slot.delta_generations) {
        CT_ASSIGN_OR_RETURN(auto delta,
                            OpenTreeFile(DeltaPath(t, g), expect_checksums));
        tree->AddDelta(std::move(delta));
      }
      slot.tree = std::move(tree);
      return Status::OK();
    };
    Status opened = open_tree();
    if (opened.ok()) continue;
    if (!tolerant) return opened;
    QuarantineTree(state, t, opened, report);
  }
  return Status::OK();
}

Result<std::unique_ptr<CubetreeForest>> CubetreeForest::Open(
    Options options, BufferPool* pool, std::shared_ptr<IoStats> io_stats) {
  CT_ASSIGN_OR_RETURN(auto forest,
                      Create(std::move(options), pool, std::move(io_stats)));
  MutexLock lock(forest->refresh_mu_);
  auto state = std::make_shared<EpochState>();
  CT_RETURN_NOT_OK(
      forest->LoadManifest(/*tolerant=*/false, state.get(), nullptr));
  forest->PublishState(std::move(state));
  return forest;
}

void CubetreeForest::QuarantineTree(EpochState* state, size_t t,
                                    const Status& why,
                                    ForestRecoveryReport* report) {
  TreeState& slot = state->trees[t];
  const std::vector<std::string> paths = TreeFiles(t, slot);
  // Drop the staged reference before renaming; the buffer pool drops the
  // file's pages once no published epoch holds the tree either.
  slot.tree.reset();
  slot.delta_generations.clear();
  for (const std::string& path : paths) {
    SetAsideWithSidecar(path, &quarantine_files_[t]);
  }
  if (report != nullptr) {
    report->quarantined_trees.push_back(t);
    for (uint32_t vid : plan_.trees[t].view_ids) {
      report->quarantined_views.push_back(vid);
    }
    report->notes.push_back("quarantined tree " + std::to_string(t) + ": " +
                            why.ToString());
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
  CT_ASSIGN_OR_RETURN(auto forest,
                      Create(std::move(options), pool, std::move(io_stats)));
  ForestRecoveryReport local_report;
  if (report == nullptr) report = &local_report;

  // 1. Load the manifest, quarantining any tree that will not open. The
  // forest is not yet visible to other threads; the lock covers the whole
  // recovery so the guarded state is built under it.
  MutexLock lock(forest->refresh_mu_);
  auto state = std::make_shared<EpochState>();
  CT_RETURN_NOT_OK(forest->LoadManifest(/*tolerant=*/true, state.get(),
                                        report));

  // 2. Deep-check the trees that did open; quarantine the ones that fail
  // their invariants (a torn page write can leave an openable but
  // inconsistent file).
  for (size_t t = 0; t < state->trees.size(); ++t) {
    if (state->trees[t].tree == nullptr) continue;
    Status verdict;
    for (const std::string& path : forest->TreeFiles(t, state->trees[t])) {
      RTreeChecker checker(path, CheckOptions{/*deep=*/true},
                           forest->ArityFn());
      CheckReport check_report;
      verdict = checker.Run(&check_report);
      if (verdict.ok() && !check_report.clean()) {
        verdict = Status::Corruption("invariant check failed for " + path);
      }
      if (!verdict.ok()) break;
    }
    if (!verdict.ok()) forest->QuarantineTree(state.get(), t, verdict, report);
  }
  forest->PublishState(std::move(state));

  // 3. Sweep the directory: any tree-generation file of this forest the
  // manifest does not reference is the debris of an interrupted refresh
  // (either the half-built next generation or the un-reclaimed previous
  // one) — as is a stale manifest tmp. ".quarantine" files are kept for
  // RebuildQuarantined.
  CT_ASSIGN_OR_RETURN(std::vector<std::string> orphans,
                      forest->OrphanFiles());
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

Result<std::unique_ptr<PointSource>> CubetreeForest::OpenTreeSource(
    size_t t, ViewDataProvider* provider) const {
  // Ascending arity is pack order across the tree's views (see
  // MultiViewPointSource).
  std::vector<ViewDef> views = TreeViews(t);
  std::sort(views.begin(), views.end(),
            [](const ViewDef& a, const ViewDef& b) {
              return a.arity() < b.arity();
            });
  std::vector<MultiViewPointSource::ViewStream> streams;
  for (ViewDef& view : views) {
    if (view.arity() > kMaxDims) {
      return Status::InvalidArgument(
          "forest: view " + std::to_string(view.id) + " has arity " +
          std::to_string(view.arity()) + " above " + std::to_string(kMaxDims));
    }
    CT_ASSIGN_OR_RETURN(auto stream, provider->OpenViewStream(view));
    streams.push_back({std::move(view), std::move(stream)});
  }
  return std::unique_ptr<PointSource>(
      new MultiViewPointSource(std::move(streams)));
}

std::function<uint8_t(uint32_t)> CubetreeForest::ArityFn() const {
  // Capture a by-value arity map so the callback stays valid.
  std::map<uint32_t, uint8_t> arities;
  for (const auto& [id, view] : views_by_id_) arities[id] = view.arity();
  return [arities](uint32_t view_id) {
    auto it = arities.find(view_id);
    return it == arities.end() ? static_cast<uint8_t>(0) : it->second;
  };
}

Status CubetreeForest::Build(const std::vector<ViewDef>& views,
                             ViewDataProvider* provider) {
  MutexLock refresh_lock(refresh_mu_);
  if (Published() != nullptr) {
    return Status::InvalidArgument("forest: already built");
  }
  views_ = views;
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
  if (CT_DCHECK_IS_ON()) {
    // Whichever planner ran, the SelectMapping invariant must hold: every
    // view placed exactly once, at most one view per arity per tree.
    std::set<uint32_t> placed;
    for (const ForestPlan::TreeSpec& spec : plan_.trees) {
      std::set<uint8_t> arities;
      for (uint32_t vid : spec.view_ids) {
        CT_DCHECK(placed.insert(vid).second)
            << "view " << vid << " placed in two trees";
        CT_DCHECK(arities.insert(views_by_id_.at(vid).arity()).second)
            << "two views of one arity share a tree";
      }
    }
    CT_DCHECK(placed.size() == views_.size()) << "plan left a view unplaced";
  }
  next_delta_generation_.assign(plan_.trees.size(), 0);
  quarantine_files_.assign(plan_.trees.size(), {});

  auto state = std::make_shared<EpochState>();
  for (size_t t = 0; t < plan_.trees.size(); ++t) {
    CT_ASSIGN_OR_RETURN(auto source, OpenTreeSource(t, provider));
    RTreeOptions tree_options = options_.rtree;
    tree_options.dims = plan_.trees[t].dims;
    CT_ASSIGN_OR_RETURN(
        auto rtree,
        PackedRTree::Build(TreePath(t, 0), tree_options, pool_, source.get(),
                           ArityFn(), io_stats_));
    state->trees.push_back(
        {std::make_shared<Cubetree>(TreeViews(t), std::move(rtree)), 0, {}});
  }
  CT_RETURN_NOT_OK(SaveManifestDurable(*state));
  PublishState(std::move(state));
  return Status::OK();
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

uint64_t CubetreeForest::RefreshEstimate(
    RefreshKind kind, const ViewDataProvider* provider) const {
  // The transaction transiently needs the repacked trees' old and new
  // generations (plus sort runs and sidecars) on disk at once, and one
  // packer's slack per concurrent worker.
  uint64_t live_bytes = 0;
  size_t packs = 0;
  if (auto live = Published()) {
    for (const TreeState& slot : live->trees) {
      if (!IsRefreshTarget(kind, slot)) continue;
      ++packs;
      if (kind == RefreshKind::kMerge) {
        live_bytes += slot.tree->TotalSizeBytes();
      }
    }
  }
  return EstimateRefreshBytes(
      live_bytes, provider == nullptr ? 0 : provider->EstimatedInputBytes(),
      ResolvedRefreshThreads(packs));
}

Status CubetreeForest::RefreshTxn(RefreshKind kind,
                                  ViewDataProvider* provider) {
  std::shared_ptr<EpochState> live = Published();
  if (live == nullptr) return Status::InvalidArgument("forest: not built yet");

  // One task per tree the transaction writes. Workers touch only their own
  // task: the inputs are prepared serially under refresh_mu_ (providers are
  // not thread-safe), and each worker fills its own output slot.
  struct Task {
    size_t tree = 0;
    /// kMerge folds this tree's main file and pending deltas in.
    std::shared_ptr<Cubetree> folded;
    std::unique_ptr<PointSource> stream;
    std::string path;
    uint32_t generation = 0;
    std::unique_ptr<PackedRTree> output;
  };
  std::vector<Task> tasks;
  for (size_t t = 0; t < live->trees.size(); ++t) {
    if (kind != RefreshKind::kRebuild && live->trees[t].tree == nullptr) {
      return Status::Unavailable(
          "forest: quarantined trees must be rebuilt before a refresh");
    }
    if (IsRefreshTarget(kind, live->trees[t])) tasks.emplace_back().tree = t;
  }
  if (tasks.empty()) return Status::OK();

  // 1. Space preflight: refuse up front with a typed, retriable
  // StorageFull naming the shortfall rather than hit ENOSPC halfway through
  // the pack — the published epoch keeps serving either way.
  CT_RETURN_NOT_OK(PreflightRefreshLocked(RefreshEstimate(kind, provider)));

  // 2. Serial task preparation. Delta numbers come from the monotonic
  // counter; main files take the next generation of the live one.
  Status status;
  for (Task& task : tasks) {
    const TreeState& slot = live->trees[task.tree];
    if (kind == RefreshKind::kDelta) {
      task.generation = next_delta_generation_[task.tree]++;
      task.path = DeltaPath(task.tree, task.generation);
    } else {
      task.generation = slot.generation + 1;
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
    const char* span_name = kind == RefreshKind::kMerge ? "refresh.merge_pack"
                            : kind == RefreshKind::kDelta
                                ? "refresh.delta_pack"
                                : "refresh.rebuild_pack";
    const auto arity_fn = ArityFn();
    // Each worker builds its spans in a private child trace and splices
    // them back under the refresh trace when its task ends.
    obs::TraceHandoff handoff;
    status = ParallelFor(
        tasks.size(), ResolvedRefreshThreads(tasks.size()),
        [&](size_t i, CancelFlag* cancel) -> Status {
          obs::TraceHandoff::Adopt adopt(handoff);
          Task& task = tasks[i];
          obs::Span pack_span(span_name);
          pack_span.Annotate("tree", static_cast<uint64_t>(task.tree));
          std::vector<std::unique_ptr<ScannerPointSource>> scans;
          std::vector<PointSource*> inputs;
          if (task.folded != nullptr) {
            for (PackedRTree* rtree : task.folded->main_and_deltas()) {
              scans.push_back(std::make_unique<ScannerPointSource>(rtree));
              inputs.push_back(scans.back().get());
            }
          }
          if (task.stream != nullptr) inputs.push_back(task.stream.get());
          RTreeOptions tree_options = options_.rtree;
          tree_options.dims = plan_.trees[task.tree].dims;
          ChainedMergeSource chain(inputs, tree_options.dims);
          CancellablePointSource source(chain.head(), cancel);
          CT_ASSIGN_OR_RETURN(
              task.output,
              PackedRTree::Build(task.path, tree_options, pool_, &source,
                                 arity_fn, io_stats_));
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

  // 4. Stage the next generation: fresh Cubetree objects for the touched
  // trees. The published epoch's objects are never mutated — readers
  // pinned to it keep serving the old files until their snapshots drop.
  std::shared_ptr<EpochState> next;
  if (status.ok()) {
    next = StageState();
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
  QuarantineTree(next.get(), t, why, nullptr);
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
  // A file with a live TrackedFile token is referenced by some epoch —
  // the published one, or a retired one a reader still pins — and must
  // survive. refresh_mu_ keeps a refresh's not-yet-published outputs out of
  // the directory while this runs.
  std::set<std::string> keep;
  {
    MutexLock gc_lock(gc_->mu);
    keep = gc_->tracked_paths;
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
  auto orphans = OrphanFiles();
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

unsigned CubetreeForest::ResolvedRefreshThreads(size_t num_tasks) const {
  const unsigned configured = options_.refresh_threads != 0
                                  ? options_.refresh_threads
                                  : RefreshThreadsFromEnv();
  if (num_tasks == 0) return 1;
  return static_cast<unsigned>(
      std::min<size_t>(std::max(configured, 1u), num_tasks));
}

Status CubetreeForest::PreflightRefreshLocked(uint64_t estimated_bytes) {
  DiskSpaceManager disk(
      DiskSpaceManager::Options{options_.dir, options_.disk_reserve_bytes});
  Status space = disk.Preflight(estimated_bytes);
  if (space.IsStorageFull()) {
    // Make room before refusing: sweep crash debris and files whose
    // deferred unlink was vetoed or failed, then probe again.
    const uint64_t reclaimed = ReclaimSpaceLocked();
    if (reclaimed > 0) {
      CT_LOG(Info) << "forest: refresh preflight reclaimed " << reclaimed
                   << " bytes, re-probing";
      space = disk.Preflight(estimated_bytes);
    }
  }
  return space;
}

std::shared_ptr<forest_internal::EpochState> CubetreeForest::StageState()
    const {
  auto next = std::make_shared<EpochState>();
  if (auto live = Published()) {
    next->trees = live->trees;
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
