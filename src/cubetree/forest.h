#ifndef CUBETREE_CUBETREE_FOREST_H_
#define CUBETREE_CUBETREE_FOREST_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "cubetree/cubetree.h"
#include "cubetree/select_mapping.h"
#include "cubetree/view_def.h"
#include "sort/external_sorter.h"
#include "storage/buffer_pool.h"
#include "storage/disk_space.h"

namespace cubetree {

/// In-process garbage-collection state of the snapshot layer, for ops
/// tooling (ctfsck --json) and the stress harness.
struct ForestGcStats {
  /// Epoch number of the currently published (serving) generation.
  uint64_t live_epoch = 0;
  /// Retired epochs still alive because a snapshot pins them.
  uint64_t pinned_epochs = 0;
  /// Retired tree files whose unlink is deferred until the last pinning
  /// epoch dies (or was skipped by a GC failpoint / unlink error; recovery
  /// sweeps those as orphans).
  uint64_t unreclaimed_files = 0;
  /// Retired tree files unlinked so far.
  uint64_t reclaimed_files = 0;
};

namespace forest_internal {

/// Reclamation bookkeeping shared by the forest and every epoch state it
/// ever published; outlives the forest if snapshots do.
struct GcShared {
  Mutex mu;
  uint64_t live_epoch GUARDED_BY(mu) = 0;
  std::set<uint64_t> pinned_retired_epochs GUARDED_BY(mu);
  uint64_t unreclaimed_files GUARDED_BY(mu) = 0;
  uint64_t reclaimed_files GUARDED_BY(mu) = 0;
  /// Paths with a live TrackedFile token (referenced by some epoch, live or
  /// pinned-retired). The online space-reclaim sweep must never unlink
  /// these: a pinned reader may still be reading them.
  std::set<std::string> tracked_paths GUARDED_BY(mu);
};

/// One on-disk tree file tracked for epoch-based reclamation. Every epoch
/// state whose live set contains the file holds a reference. Retire() arms
/// deletion when the file drops out of the published generation; the
/// destructor — running when the last referencing epoch dies, possibly on
/// a reader thread releasing the final snapshot — unlinks it then. An
/// unretired token (forest shutdown with the file still live) deletes
/// nothing.
class TrackedFile {
 public:
  TrackedFile(std::string path, std::shared_ptr<GcShared> gc);
  ~TrackedFile();

  TrackedFile(const TrackedFile&) = delete;
  TrackedFile& operator=(const TrackedFile&) = delete;

  void Retire();
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::shared_ptr<GcShared> gc_;
  std::atomic<bool> retired_{false};
  /// A GC failpoint vetoed the unlink; the file is left for recovery.
  std::atomic<bool> leaked_{false};
};

/// One tree's slot in a forest generation. Copyable, so a mutator stages
/// the next generation by copying the published slots and editing them.
struct TreeState {
  /// nullptr while the tree is quarantined.
  std::shared_ptr<Cubetree> tree;
  /// Generation number of the main file (`_g<N>.ctr`); kept while the tree
  /// is quarantined so a rebuild writes the next one.
  uint32_t generation = 0;
  /// Generation numbers of the pending delta files (`_d<N>.ctr`), oldest
  /// first.
  std::vector<uint32_t> delta_generations;
};

/// One committed generation of the whole forest: the immutable tree set a
/// snapshot pins, and the forest's only record of its per-tree state.
/// Destroying the state (last reference dropped) releases the Cubetrees and
/// then reclaims any files retired since.
struct EpochState {
  ~EpochState();

  uint64_t epoch = 0;
  std::shared_ptr<GcShared> gc;
  std::atomic<bool> retired{false};
  std::map<uint32_t, size_t> view_to_tree;
  /// Declared before `trees` so the trees (and their open file handles)
  /// are destroyed first, then retired files are unlinked.
  std::vector<std::shared_ptr<TrackedFile>> files;
  std::vector<TreeState> trees;
};

}  // namespace forest_internal

/// A refcounted handle pinning one committed forest generation. Queries run
/// against a snapshot see that generation's trees — never a mix of pre- and
/// post-refresh state — no matter how many refreshes commit while they run.
/// Acquiring copies one shared_ptr under a leaf mutex; releasing the last
/// handle of a retired generation reclaims its replaced tree files.
/// Snapshots may outlive the forest's mutators but must be released before
/// the forest and its BufferPool are destroyed (the trees read through that
/// pool).
class ForestSnapshot {
 public:
  ForestSnapshot() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t epoch() const { return state_->epoch; }
  size_t num_trees() const { return state_->trees.size(); }
  /// nullptr when tree `i` is quarantined in this generation.
  Cubetree* tree(size_t i) const { return state_->trees[i].tree.get(); }
  bool IsViewQuarantined(uint32_t view_id) const;
  bool HasQuarantine() const;
  /// The tree materializing `view_id` in this generation (NotFound for an
  /// unknown view, Unavailable for a quarantined one).
  Result<Cubetree*> TreeForView(uint32_t view_id) const;
  /// Stored points, file bytes and pending delta trees across the
  /// generation's healthy trees (main + deltas).
  uint64_t TotalPoints() const { return Sum(&Cubetree::TotalPoints); }
  uint64_t TotalSizeBytes() const { return Sum(&Cubetree::TotalSizeBytes); }
  size_t TotalDeltas() const { return Sum(&Cubetree::num_deltas); }
  /// Stored points per view id, from a full scan of every healthy tree
  /// (main + deltas); views of quarantined trees count 0. Used to re-derive
  /// router statistics after recovery.
  Result<std::map<uint32_t, uint64_t>> CountPointsPerView() const;

  /// Drops the pin early (the destructor also releases it).
  void Release() { state_.reset(); }

 private:
  friend class CubetreeForest;
  explicit ForestSnapshot(
      std::shared_ptr<const forest_internal::EpochState> state)
      : state_(std::move(state)) {}

  /// Sums `per_tree` over the generation's healthy trees.
  template <typename T>
  uint64_t Sum(T (Cubetree::*per_tree)() const) const {
    uint64_t total = 0;
    for (const auto& slot : state_->trees) {
      if (slot.tree) total += ((*slot.tree).*per_tree)();
    }
    return total;
  }

  std::shared_ptr<const forest_internal::EpochState> state_;
};

/// What CubetreeForest::Recover found and did. Informational: recovery
/// itself either succeeds (possibly with quarantined trees) or returns an
/// error for genuinely unreadable state (e.g. a corrupt manifest).
struct ForestRecoveryReport {
  /// Files recovery deleted: stale manifest tmp, tree generations no
  /// manifest references, and the refresh journal of an older store.
  std::vector<std::string> removed_orphans;
  /// Indices of trees recovery had to take out of service (unopenable or
  /// failed their invariant check); their files were renamed aside with a
  /// ".quarantine" suffix. The forest stays queryable on the remaining
  /// trees; RebuildQuarantined() restores the rest from base data.
  std::vector<size_t> quarantined_trees;
  /// The views those trees materialized (unavailable until rebuilt).
  std::vector<uint32_t> quarantined_views;
  /// Human-readable log of notable recovery events.
  std::vector<std::string> notes;

  bool clean() const {
    return removed_orphans.empty() && quarantined_trees.empty();
  }
  std::string ToString() const;
};

/// A forest of Cubetrees materializing a set of ROLAP views — the complete
/// storage organization the paper proposes. The forest plans view placement
/// with SelectMapping, bulk-builds each tree from sorted per-view aggregate
/// streams, and refreshes all trees by merge-packing sorted deltas.
///
/// Concurrency model: every committed state is published as an immutable
/// generation (EpochState) behind one shared_ptr, and that generation is
/// the forest's only per-tree state. Readers call AcquireSnapshot() — one
/// pointer copy under a leaf mutex that only publishing and other readers
/// take — and query the pinned generation while refreshes build and commit
/// the next one off to the side; mutators
/// (ApplyDelta/ApplyDeltaPartial/Compact/RebuildQuarantined) serialize on
/// an internal mutex. Files replaced by a refresh are retired,
/// not unlinked: reclamation happens when the last epoch referencing them
/// dies (epoch-based reclamation), so a reader pinned three refreshes back
/// still completes against intact files.
class CubetreeForest {
 public:
  struct Options {
    /// Directory for the tree files.
    std::string dir = ".";
    /// File-name prefix (several forests can share a directory).
    std::string name = "forest";
    /// R-tree build options; `dims` is overridden per tree by the plan.
    RTreeOptions rtree;
    /// Ablation switch: place every view in its own tree instead of
    /// running SelectMapping. Costs extra non-leaf/metadata pages and
    /// lowers the buffer hit ratio on the trees' upper levels.
    bool one_tree_per_view = false;
    /// Free space left untouched on the volume by the refresh preflight
    /// (default from CUBETREE_DISK_RESERVE_BYTES; see DiskSpaceManager).
    uint64_t disk_reserve_bytes = DiskSpaceManager::ReserveBytesFromEnv();
    /// Worker-pool width for refresh merge-packing: each Cubetree of the
    /// forest is packed by its own worker (the trees are disjoint by
    /// SelectMapping), capped at the number of trees. 0 resolves from
    /// CUBETREE_REFRESH_THREADS, falling back to hardware_concurrency.
    unsigned refresh_threads = 0;
  };

  /// Supplies, per view, the stream of its aggregate tuples — fixed-width
  /// ViewRecordBytes(arity) records sorted in the view's pack order
  /// (ViewRecordCompare). The cube builder implements this on top of view
  /// spools; tests implement it over vectors.
  ///
  /// Thread contract: the forest calls OpenViewStream serially from the
  /// refreshing thread (providers need not be thread-safe), but during a
  /// parallel refresh the returned streams of *different* trees are
  /// consumed concurrently — each stream is read by exactly one worker, so
  /// streams must not share mutable state with each other.
  class ViewDataProvider {
   public:
    virtual ~ViewDataProvider() = default;
    virtual Result<std::unique_ptr<RecordStream>> OpenViewStream(
        const ViewDef& view) = 0;
    /// Best-effort total byte count of all streams this provider will
    /// supply, for the refresh disk-space preflight. 0 means unknown (the
    /// preflight then only covers repacking the live trees).
    virtual uint64_t EstimatedInputBytes() const { return 0; }
  };

  /// What one refresh transaction writes, per tree:
  ///   kMerge    ApplyDelta/Compact: main + pending deltas + the provider
  ///             stream merge-packed into a new main file.
  ///   kDelta    ApplyDeltaPartial: the provider stream packed into one
  ///             more delta file (empty outputs are dropped).
  ///   kRebuild  RebuildQuarantined: the provider stream packed into a new
  ///             main file, for the quarantined trees only.
  enum class RefreshKind { kMerge, kDelta, kRebuild };

  static Result<std::unique_ptr<CubetreeForest>> Create(
      Options options, BufferPool* pool,
      std::shared_ptr<IoStats> io_stats = nullptr);

  /// Reopens a forest persisted by a previous Build/ApplyDelta in the same
  /// directory (the manifest records views, plan and tree generations; the
  /// manifest is replaced atomically after every change, so a crash during
  /// merge-pack leaves the previous generation intact and reopenable).
  /// Strict: any unopenable tree file is an error. After an unclean
  /// shutdown use Recover() instead.
  static Result<std::unique_ptr<CubetreeForest>> Open(
      Options options, BufferPool* pool,
      std::shared_ptr<IoStats> io_stats = nullptr);

  /// Crash-recovery variant of Open. Quarantines trees that cannot be
  /// opened or fail the deep invariant check — renaming their files aside
  /// with a ".quarantine" suffix so the forest stays queryable on the
  /// surviving trees — then removes the stale manifest tmp and any
  /// tree-generation files the manifest does not reference (the half-built
  /// output of an interrupted refresh, or the un-reclaimed input of a
  /// committed one). Recovery is idempotent: crashing inside Recover and
  /// running it again converges to the same state. Only a missing or
  /// corrupt manifest is an error.
  static Result<std::unique_ptr<CubetreeForest>> Recover(
      Options options, BufferPool* pool,
      std::shared_ptr<IoStats> io_stats = nullptr,
      ForestRecoveryReport* report = nullptr);

  /// Plans placement and bulk-builds every tree, one at a time. Call once.
  Status Build(const std::vector<ViewDef>& views, ViewDataProvider* provider)
      EXCLUDES(refresh_mu_);

  /// Bulk-incremental refresh: merge-packs each tree with the delta streams
  /// (the architecture of the paper's Figure 15). Old tree files are
  /// replaced atomically from the caller's perspective. Any pending delta
  /// trees are folded in as well.
  Status ApplyDelta(ViewDataProvider* delta_provider) EXCLUDES(refresh_mu_);

  /// LSM-style refresh extension: packs the increment into small *delta
  /// trees* attached to each main tree instead of rewriting the mains.
  /// Refresh cost becomes proportional to the increment; queries pay a
  /// small extra search per pending delta until Compact().
  Status ApplyDeltaPartial(ViewDataProvider* delta_provider)
      EXCLUDES(refresh_mu_);

  /// Merge-packs every tree's main + pending deltas into a fresh main
  /// tree and retires the delta files.
  Status Compact() EXCLUDES(refresh_mu_);

  /// Rebuilds every quarantined tree from scratch: `provider` must supply
  /// the full current contents of each affected view (base data, not a
  /// delta). New generations are built beside the quarantined files, the
  /// manifest is swapped durably, and the ".quarantine" files are removed.
  Status RebuildQuarantined(ViewDataProvider* provider)
      EXCLUDES(refresh_mu_);

  /// The disk-space estimate the refresh transaction of `kind` over
  /// `provider` (nullptr: no input, as for Compact) preflights against the
  /// current generation. The engine admits writes with the same number.
  uint64_t RefreshEstimate(RefreshKind kind,
                           const ViewDataProvider* provider) const;

  /// Read-repair entry point: takes the tree currently materializing
  /// `view_id` out of service after a read surfaced Corruption (checksum
  /// mismatch, bad magic, short read) and publishes a new epoch so routing
  /// immediately skips the affected views. When `file_path` is non-empty
  /// the quarantine only proceeds while that exact file is still part of
  /// the live tree — a scrubber working off an older snapshot must not
  /// shoot down a freshly refreshed, healthy replacement. Returns true if
  /// the tree was newly quarantined; false if it was already quarantined
  /// or already replaced. NotFound for an unknown view.
  Result<bool> QuarantineForCorruption(uint32_t view_id,
                                       const std::string& file_path,
                                       const Status& why)
      EXCLUDES(refresh_mu_);

  const ForestPlan& plan() const { return plan_; }
  Result<const ViewDef*> view(uint32_t view_id) const;
  const std::vector<ViewDef>& views() const { return views_; }

  /// Pins the currently published generation. Wait-free; safe to call from
  /// any thread concurrently with refreshes. Returns an invalid snapshot
  /// only before the first Build/Open publishes a generation.
  ForestSnapshot AcquireSnapshot() const;

  /// Snapshot-layer GC counters (epochs pinned, files awaiting reclaim).
  ForestGcStats GcStats() const;

  /// Online counterpart of recovery's orphan sweep: deletes this forest's
  /// on-disk files that are neither part of the live state nor tracked by
  /// any epoch still pinning them — crash debris from an earlier run, or
  /// files whose deferred unlink was vetoed or failed. Safe while queries
  /// serve. Returns the bytes reclaimed. The refresh preflight calls this
  /// automatically before refusing for lack of space.
  uint64_t ReclaimSpace() EXCLUDES(refresh_mu_);

  /// Paths of every file the published generation references (main trees
  /// and pending deltas). Anything else matching the forest's file naming
  /// on disk is retired-but-unreclaimed or crash-orphaned; ctfsck reports
  /// it and Recover sweeps it.
  std::vector<std::string> LiveFiles() const;

  /// Removes all tree files.
  Status Destroy() EXCLUDES(refresh_mu_);

 private:
  using EpochState = forest_internal::EpochState;
  using TreeState = forest_internal::TreeState;

  CubetreeForest(Options options, BufferPool* pool,
                 std::shared_ptr<IoStats> io_stats)
      : options_(std::move(options)),
        pool_(pool),
        io_stats_(std::move(io_stats)) {}

  std::string TreePath(size_t tree_index, uint32_t generation) const;
  std::string DeltaPath(size_t tree_index, uint32_t generation) const;
  std::string ManifestPath() const;
  /// The main file of tree `t` followed by its pending delta files.
  std::vector<std::string> TreeFiles(size_t t, const TreeState& slot) const;
  /// Serializes the manifest naming `state`'s files.
  std::string SerializeManifest(const EpochState& state) const;
  /// Durable manifest swap: write tmp, fsync it, rename into place, fsync
  /// the directory. Once the rename has happened the commit is in effect;
  /// later failures are logged, not returned.
  Status SaveManifestDurable(const EpochState& state) const;
  /// Parses the manifest into `state` and opens every tree. In tolerant
  /// mode an unopenable tree is quarantined instead of failing the load.
  Status LoadManifest(bool tolerant, EpochState* state,
                      ForestRecoveryReport* report) REQUIRES(refresh_mu_);
  /// Opens one tree file the manifest names, enforcing its checksum
  /// sidecar when the manifest promises one.
  Result<std::shared_ptr<PackedRTree>> OpenTreeFile(
      const std::string& path, bool expect_checksums) const;
  /// Takes tree `t` of the staged `state` out of service: drops it,
  /// renames its files aside with a ".quarantine" suffix, and records the
  /// event.
  void QuarantineTree(EpochState* state, size_t t, const Status& why,
                      ForestRecoveryReport* report) REQUIRES(refresh_mu_);
  /// The one refresh transaction behind ApplyDelta, ApplyDeltaPartial,
  /// Compact and RebuildQuarantined: preflight, serial task preparation,
  /// one parallel pack, stage the next EpochState, durable manifest swap,
  /// abort sweep on failure, publish. A nullptr `provider` merges without
  /// an increment (Compact).
  Status RefreshTxn(RefreshKind kind, ViewDataProvider* provider)
      REQUIRES(refresh_mu_);
  /// This forest's files on disk that no live epoch references: tree and
  /// sidecar files without a TrackedFile token, a stale manifest tmp, and
  /// the refresh journal older stores left behind. Sorted.
  Result<std::vector<std::string>> OrphanFiles() const REQUIRES(refresh_mu_);
  /// Deletes files recovery identified as orphans, consulting the
  /// forest.recover.gc failpoint per file.
  void RemoveOrphan(const std::string& path, ForestRecoveryReport* report);
  /// Views of tree `t`, in plan order.
  std::vector<ViewDef> TreeViews(size_t t) const;
  /// The pack-ordered point source over `provider`'s streams of tree `t`.
  Result<std::unique_ptr<PointSource>> OpenTreeSource(
      size_t t, ViewDataProvider* provider) const;
  std::function<uint8_t(uint32_t)> ArityFn() const;
  /// A fresh, unpublished EpochState holding a copy of the published tree
  /// slots, for a mutator to edit.
  std::shared_ptr<EpochState> StageState() const REQUIRES(refresh_mu_);
  /// Publishes `next` as the serving generation: numbers it, carries over
  /// file-reclamation tokens for files still live, retires tokens for
  /// files this generation dropped, and swaps the published pointer.
  void PublishState(std::shared_ptr<EpochState> next) REQUIRES(refresh_mu_);
  /// A reference to the serving generation; nullptr before Build/Recover
  /// and after Destroy.
  std::shared_ptr<EpochState> Published() const EXCLUDES(published_mu_);
  /// Makes `next` the serving generation and hands back the outgoing one,
  /// so that it is dropped outside published_mu_.
  std::shared_ptr<EpochState> SwapPublished(std::shared_ptr<EpochState> next)
      EXCLUDES(published_mu_);
  /// Disk-space preflight for a refresh estimated at `estimated_bytes`:
  /// probe the volume, and when short first run the online reclaim sweep
  /// and re-probe. StorageFull (typed, retriable, naming the shortfall)
  /// refuses the refresh while the published epoch keeps serving.
  Status PreflightRefreshLocked(uint64_t estimated_bytes)
      REQUIRES(refresh_mu_);
  /// Worker count for a refresh over `num_tasks` independent tree packs:
  /// the configured/env-resolved pool width, capped at num_tasks, >= 1.
  unsigned ResolvedRefreshThreads(size_t num_tasks) const;
  uint64_t ReclaimSpaceLocked() REQUIRES(refresh_mu_);

  Options options_;
  BufferPool* pool_;
  std::shared_ptr<IoStats> io_stats_;
  // plan_, views_ and views_by_id_ are written once (Build/LoadManifest,
  // under refresh_mu_) and immutable afterwards, so reads stay unguarded.
  ForestPlan plan_;
  std::vector<ViewDef> views_;
  std::map<uint32_t, ViewDef> views_by_id_;
  /// Per tree: the next delta generation number. Monotonic within the
  /// process, never re-derived from the live delta list: a retired delta's
  /// TrackedFile unlinks by path when its last epoch dies, so a path must
  /// not be reused while that token lives.
  std::vector<uint32_t> next_delta_generation_ GUARDED_BY(refresh_mu_);
  /// Per tree: the ".quarantine" files to delete once the tree is rebuilt.
  std::vector<std::vector<std::string>> quarantine_files_
      GUARDED_BY(refresh_mu_);

  /// Serializes mutators (refresh, compaction, rebuild, destroy) against
  /// each other; snapshot readers never take it (they copy `published_`
  /// under published_mu_). Lock order: refresh_mu_ before gc_->mu, never
  /// the reverse.
  mutable Mutex refresh_mu_;
  std::shared_ptr<forest_internal::GcShared> gc_ =
      std::make_shared<forest_internal::GcShared>();
  /// Guards published_ alone: a leaf under refresh_mu_, held only to copy
  /// or swap the pointer. A plain mutex, not std::atomic<std::shared_ptr>:
  /// libstdc++ unlocks that type's internal spinlock with relaxed
  /// ordering, which ThreadSanitizer reports as a race. No EpochState may
  /// die under it, because ~EpochState takes gc_->mu.
  mutable Mutex published_mu_;
  /// The serving generation; AcquireSnapshot copies it, PublishState swaps
  /// it. Held non-const so PublishState can flag the outgoing state
  /// retired; snapshots only ever see it const.
  std::shared_ptr<forest_internal::EpochState> published_
      GUARDED_BY(published_mu_);
  uint64_t next_epoch_ GUARDED_BY(refresh_mu_) = 1;
};

}  // namespace cubetree

#endif  // CUBETREE_CUBETREE_FOREST_H_
