#ifndef CUBETREE_ENGINE_CUBETREE_ENGINE_H_
#define CUBETREE_ENGINE_CUBETREE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "cubetree/forest.h"
#include "cubetree/view_def.h"
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
///
/// Every mutator is one forest refresh transaction, and the forest alone
/// decides whether the volume can take it: a write it cannot hold is
/// refused up front with a retriable StorageFull naming the shortfall,
/// after the forest's reclaim sweep, while queries keep serving the
/// published generation. The engine keeps no disk-space state of its own.
///
/// A tree quarantined for corruption (by read-repair, the scrubber or
/// recovery) is out of service until Repair derives its views again,
/// through the cube builder the load uses.
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
  /// CubetreeForest::Recover and seeds the router's per-view row counts
  /// from the points its check tallied in the surviving trees. Views whose
  /// tree was quarantined are skipped by the router (queries fall back to a
  /// covering superset view when one survives) until Repair restores them.
  static Result<std::unique_ptr<CubetreeEngine>> Recover(
      const CubeSchema& schema, Options options, BufferPool* pool,
      ForestRecoveryReport* report = nullptr);

  /// Rebuilds every quarantined tree (OK at once when none is), computing
  /// its views with CubeBuilder::ComputeAll under `build`, the options the
  /// caller loads with. The builder is offered the pinned generation's
  /// healthy views as materialized parents, read by a leaf scan of their
  /// main and delta trees and ranked by the router's row counts, so each
  /// lost view comes from the cheapest covering view — a replica, or a
  /// superset aggregated down — and from `facts` (everything the forest
  /// has absorbed) only when none covers it. With `facts` null that is
  /// Unavailable before any I/O, and the forest is left unchanged. The
  /// rebuilt views' spool record counts become their router rows.
  Status Repair(FactProvider* facts, const CubeBuilder::Options& build);

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

 private:
  CubetreeEngine(const CubeSchema& schema, Options options, BufferPool* pool)
      : schema_(schema), options_(std::move(options)), pool_(pool) {}

  /// InvalidArgument before Load or Recover has opened a forest. The
  /// mutators check it; everything else about admitting a write, disk
  /// space included, is the forest's refresh transaction's decision.
  Status CheckLoaded() const;

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
  std::unique_ptr<CubetreeForest> forest_;
  /// The router's row count per view: keys fixed by Load or Recover,
  /// counts atomic because a repair updates them while queries route.
  std::map<uint32_t, std::atomic<uint64_t>> view_rows_;
  std::atomic<uint64_t> repairs_{0};  // Keeps repairs' spool names apart.
};

}  // namespace cubetree

#endif  // CUBETREE_ENGINE_CUBETREE_ENGINE_H_
