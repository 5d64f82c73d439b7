#ifndef CUBETREE_ENGINE_CUBETREE_ENGINE_H_
#define CUBETREE_ENGINE_CUBETREE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "cubetree/forest.h"
#include "cubetree/view_def.h"
#include "engine/degraded.h"
#include "engine/view_store.h"
#include "olap/cube_builder.h"
#include "storage/buffer_pool.h"

namespace cubetree {

/// The paper's proposed configuration: all materialized views live in a
/// forest of packed, compressed R-trees planned by SelectMapping. Loading
/// is a sort + sequential pack; refresh is a merge-pack; queries are range
/// boxes over the index space. Sort-order replicas of a view (the
/// Datablade's replication feature) are simply additional ViewDefs with
/// permuted projection lists, routed to like any other view.
class CubetreeEngine : public ViewStore {
 public:
  struct Options {
    std::string dir = ".";
    std::string name = "cbt";
    RTreeOptions rtree;
    /// Ablation: bypass SelectMapping and give every view its own tree.
    bool one_tree_per_view = false;
    std::shared_ptr<IoStats> io_stats;
  };

  static Result<std::unique_ptr<CubetreeEngine>> Create(
      const CubeSchema& schema, Options options, BufferPool* pool);

  /// Reopens a persisted forest after an unclean shutdown via
  /// CubetreeForest::Recover and re-derives the router's per-view row
  /// counts by scanning the surviving trees. Views whose tree was
  /// quarantined are skipped by the router (queries fall back to a
  /// covering superset view when one survives) until RebuildQuarantined
  /// restores them.
  static Result<std::unique_ptr<CubetreeEngine>> Recover(
      const CubeSchema& schema, Options options, BufferPool* pool,
      ForestRecoveryReport* report = nullptr);

  /// Rebuilds every quarantined tree from recomputed view contents (the
  /// same spool set Load consumes) and refreshes the router statistics.
  Status RebuildQuarantined(ComputedViews* data);

  /// Rebuilds every quarantined tree from the surviving healthy views
  /// instead of recomputed base data: each quarantined view is re-derived
  /// by scanning the cheapest healthy covering view (typically its sort
  /// order replica — same tuples, different physical order — or a superset
  /// view re-aggregated down). No access to the fact table is needed, so
  /// this is the fast path after a corruption quarantine. Unavailable when
  /// some quarantined view has no healthy covering source; the forest is
  /// left unchanged in that case and the caller falls back to
  /// RebuildQuarantined with recomputed base data.
  Status RepairFromReplicas();

  /// Plans and bulk-builds the forest from the computed view spools.
  /// `views` must include any replicas, and `data` must have spools for all
  /// of them.
  Status Load(const std::vector<ViewDef>& views, ComputedViews* data);

  /// Bulk-incremental refresh by merge-packing every tree with the sorted
  /// delta spools (pending delta trees are folded in too).
  Status ApplyDelta(ComputedViews* delta);

  /// Fast refresh extension: packs the increment into small delta trees
  /// (refresh cost ~ increment size); queries search them alongside the
  /// mains until Compact() merge-packs everything.
  Status ApplyDeltaPartial(ComputedViews* delta);

  /// Folds all pending delta trees into the main trees.
  Status Compact();

  /// Executes under the ambient QueryContext (QueryContext::Current()), if
  /// any. Safe to call from many threads concurrently with ApplyDelta /
  /// Compact refreshes: each call pins one forest generation snapshot, so
  /// it sees entirely-pre- or entirely-post-refresh state, never a mix.
  Result<QueryResult> Execute(const SliceQuery& query,
                              obs::QueryProfile* profile) override {
    return Execute(query, profile, QueryContext::Current());
  }

  /// Execute under an explicit query session: routes the query to the
  /// cheapest covering view, then searches that view's region of its tree.
  /// `ctx` carries the deadline and cancellation token, checked before
  /// routing and at page-read granularity inside the storage layer; it may
  /// be nullptr. `profile`, when non-null, receives the query's finished
  /// profile whatever the outcome.
  ///
  /// Read-repair: when the search surfaces Corruption (a checksum mismatch
  /// that survived the storage layer's re-reads), the affected tree is
  /// quarantined and the query transparently re-routes to the next-cheapest
  /// healthy covering view — a replica or superset — against a fresh
  /// snapshot. Only when no healthy route remains does the caller see the
  /// typed Corruption; a wrong answer is never returned silently.
  Result<QueryResult> Execute(const SliceQuery& query,
                              obs::QueryProfile* profile,
                              const QueryContext* ctx);

  uint64_t StorageBytes() const override;
  CubetreeForest* forest() { return forest_.get(); }

  /// Disk-full circuit breaker. Every mutator above passes through it:
  /// after a StorageFull the engine serves queries read-only, rejects
  /// refreshes with a retry-after hint, and recovers automatically when a
  /// probe sees usable space again. Wire its SetOnModeChange hook to the
  /// scrubber's SetRepairPaused so repairs pause while read-only.
  DegradedModeController* degraded() { return &degraded_; }

 private:
  CubetreeEngine(const CubeSchema& schema, Options options, BufferPool* pool)
      : schema_(schema),
        options_(std::move(options)),
        pool_(pool),
        degraded_(DegradedModeController::Options{options_.dir}) {}

  /// Shared mutator gate: admit through the degraded-mode controller, run
  /// the refresh, and feed its outcome back (a StorageFull flips the
  /// engine read-only).
  Status GatedWrite(uint64_t estimated_bytes,
                    const std::function<Status()>& write);

  /// The read-repair loop of Execute: routes and searches, quarantining
  /// the routed tree and re-routing after each Corruption.
  Result<QueryResult> ExecuteWithRepair(const SliceQuery& query,
                                        const QueryContext* ctx,
                                        obs::QueryProfile* profile);

  /// One routing + search attempt against a freshly pinned snapshot.
  Result<QueryResult> ExecuteAttempt(const SliceQuery& query,
                                     const QueryContext* ctx,
                                     obs::QueryProfile* profile);

  /// Projects a finished profile into every sink: the outcome metrics, the
  /// caller's copy (`out`, nullable), and the query log record handed to
  /// the query log and the workload profiler.
  void Publish(const SliceQuery& query, const obs::QueryProfile& profile,
               obs::QueryProfile* out) const;

  CubeSchema schema_;
  Options options_;
  BufferPool* pool_;
  DegradedModeController degraded_;
  std::unique_ptr<CubetreeForest> forest_;
  std::map<uint32_t, uint64_t> view_rows_;
};

}  // namespace cubetree

#endif  // CUBETREE_ENGINE_CUBETREE_ENGINE_H_
