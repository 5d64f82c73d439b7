#include "engine/cubetree_engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "obs/workload.h"
#include "rtree/node.h"
#include "sort/external_sorter.h"

namespace cubetree {

namespace {

struct EngineMetrics {
  /// Success-only end-to-end latency: error outcomes land in their
  /// per-outcome counter below instead of skewing the distribution.
  obs::Histogram* query_latency_us;
  /// Every Execute, once; the per-outcome counters partition it.
  obs::Counter* queries;
  obs::Counter* pages_touched;
  obs::Counter* read_repair_reroutes;
  /// engine.queries.<outcome>, indexed by obs::QueryOutcome.
  std::array<obs::Counter*, obs::kNumQueryOutcomes> outcomes;

  static const EngineMetrics& Get() {
    static const EngineMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      EngineMetrics metrics{reg.GetHistogram("engine.query_latency_us"),
                            reg.GetCounter("engine.queries"),
                            reg.GetCounter("engine.pages_touched"),
                            reg.GetCounter("engine.read_repair_reroutes"),
                            {}};
      for (size_t i = 0; i < obs::kNumQueryOutcomes; ++i) {
        metrics.outcomes[i] = reg.GetCounter(
            std::string("engine.queries.") +
            obs::QueryOutcomeName(static_cast<obs::QueryOutcome>(i)));
      }
      return metrics;
    }();
    return m;
  }
};

/// The typed outcome of a finished Execute. On success a read-repair
/// re-route beats a routed-around quarantine beats plain ok.
obs::QueryOutcome OutcomeOf(const Status& status,
                            const obs::QueryProfile& profile) {
  if (status.ok()) {
    if (profile.reroutes > 0) return obs::QueryOutcome::kCorruptionRerouted;
    if (profile.route.degraded) return obs::QueryOutcome::kDegraded;
    return obs::QueryOutcome::kOk;
  }
  if (status.IsDeadlineExceeded()) return obs::QueryOutcome::kDeadline;
  if (status.IsCancelled()) return obs::QueryOutcome::kCancelled;
  if (status.IsResourceExhausted()) return obs::QueryOutcome::kShed;
  return obs::QueryOutcome::kError;
}

/// The records of one view of a pinned generation, for a repair: the
/// view's leaf run in the main tree and then in each pending delta tree,
/// from the sequential leaf scan. A compressed leaf's entries are served
/// where they lie; an uncompressed leaf's are narrowed to the view's
/// arity. Keys ascend within each tree's run and repeat across the trees.
class ViewLeafStream final : public RecordStream {
 public:
  ViewLeafStream(std::vector<PackedRTree*> trees, const ViewDef& view)
      : trees_(std::move(trees)), view_id_(view.id), arity_(view.arity()) {}

  Status Next(const char** record) override {
    while (tree_ < trees_.size()) {
      if (left_ > 0) {
        --left_;
        *record = entry_;
        if (leaf_arity_ != arity_) {
          std::memcpy(record_, entry_, arity_ * sizeof(Coord));
          std::memcpy(record_ + arity_ * sizeof(Coord),
                      entry_ + leaf_arity_ * sizeof(Coord), kAggValueBytes);
          *record = record_;
        }
        entry_ += ViewRecordBytes(leaf_arity_);
        return Status::OK();
      }
      if (!scanner_.has_value()) scanner_.emplace(trees_[tree_]->ScanAll());
      const char* leaf = nullptr;
      CT_RETURN_NOT_OK(scanner_->NextLeaf(&leaf));
      if (leaf != nullptr && RNodeViewId(leaf) == view_id_) {
        leaf_arity_ = RNodeArity(leaf);
        if (leaf_arity_ < arity_) {
          return Status::Corruption(
              "repair: leaf page " + std::to_string(scanner_->leaf_page()) +
              " of " + trees_[tree_]->path() + " holds view " +
              std::to_string(view_id_) + " at arity " +
              std::to_string(leaf_arity_) + ", below the view's " +
              std::to_string(arity_));
        }
        in_run_ = true;
        entry_ = leaf + kRNodeHeaderSize;
        left_ = RNodeCount(leaf);
        continue;
      }
      if (leaf == nullptr || in_run_) {  // This tree's run is over.
        scanner_.reset();
        in_run_ = false;
        ++tree_;
      }
    }
    *record = nullptr;
    return Status::OK();
  }

 private:
  std::vector<PackedRTree*> trees_;
  uint32_t view_id_;
  uint8_t arity_;
  size_t tree_ = 0;
  std::optional<PackedRTree::Scanner> scanner_;
  bool in_run_ = false;
  /// The unserved entries of the current leaf, stored at leaf_arity_.
  const char* entry_ = nullptr;
  uint16_t left_ = 0;
  uint8_t leaf_arity_ = 0;
  char record_[ViewRecordBytes(kMaxDims)];
};

/// The forest options Load and Recover open the forest with.
CubetreeForest::Options ForestOptions(const CubetreeEngine::Options& options) {
  CubetreeForest::Options forest_options;
  forest_options.dir = options.dir;
  forest_options.name = options.name;
  forest_options.rtree = options.rtree;
  forest_options.one_tree_per_view = options.one_tree_per_view;
  return forest_options;
}

}  // namespace

Result<std::unique_ptr<CubetreeEngine>> CubetreeEngine::Create(
    const CubeSchema& schema, Options options, BufferPool* pool) {
  if (pool == nullptr) {
    return Status::InvalidArgument("cubetree engine: pool required");
  }
  return std::unique_ptr<CubetreeEngine>(
      new CubetreeEngine(schema, std::move(options), pool));
}

Result<std::unique_ptr<CubetreeEngine>> CubetreeEngine::Recover(
    const CubeSchema& schema, Options options, BufferPool* pool,
    ForestRecoveryReport* report) {
  CT_ASSIGN_OR_RETURN(auto engine, Create(schema, std::move(options), pool));
  ForestRecoveryReport local_report;
  if (report == nullptr) report = &local_report;
  CT_ASSIGN_OR_RETURN(
      engine->forest_,
      CubetreeForest::Recover(ForestOptions(engine->options_), engine->pool_,
                              engine->options_.io_stats, report));
  // The load took its row counts from the spools, which are gone after a
  // restart; recovery's check tallied the trees' points as it read them.
  // A quarantined tree's views count 0.
  for (const ViewDef& view : engine->forest_->views()) {
    const auto it = report->view_points.find(view.id);
    engine->view_rows_[view.id] =
        it == report->view_points.end() ? 0 : it->second;
  }
  return engine;
}

Status CubetreeEngine::Repair(FactProvider* facts,
                              const CubeBuilder::Options& build) {
  CT_RETURN_NOT_OK(CheckLoaded());
  ForestSnapshot snapshot = forest_->AcquireSnapshot();
  if (!snapshot.valid() || !snapshot.HasQuarantine()) return Status::OK();
  obs::Span repair_span("repair");
  std::vector<ViewDef> lost;
  std::vector<MaterializedView> healthy;
  for (const ViewDef& view : forest_->views()) {
    if (snapshot.IsViewQuarantined(view.id)) {
      lost.push_back(view);
      continue;
    }
    // The snapshot pins the tree until the rebuild's input is computed.
    CT_ASSIGN_OR_RETURN(Cubetree * tree, snapshot.TreeForView(view.id));
    healthy.push_back(MaterializedView{
        view, view_rows_.at(view.id).load(),
        [tree, view]() -> Result<std::unique_ptr<RecordStream>> {
          return std::unique_ptr<RecordStream>(
              std::make_unique<ViewLeafStream>(tree->main_and_deltas(), view));
        }});
  }
  CubeBuilder builder(schema_, build);
  CT_ASSIGN_OR_RETURN(
      auto computed,
      builder.ComputeAll(lost, facts, "repair" + std::to_string(repairs_++),
                         healthy));
  if (repair_span.active()) {
    repair_span.Annotate("views", static_cast<uint64_t>(lost.size()));
    repair_span.Annotate("fact_views", builder.fact_views());
  }
  // Drop the pin before the rebuild publishes new generations, so the
  // quarantined files it retires can be reclaimed promptly.
  snapshot.Release();
  CT_RETURN_NOT_OK(forest_->RebuildQuarantined(computed.get()));
  for (const ViewDef& view : lost) {
    CT_ASSIGN_OR_RETURN(const uint64_t rows, computed->row_count(view.id));
    view_rows_.at(view.id) = rows;
  }
  if (builder.fact_views() == 0) {  // From replicas and supersets alone.
    obs::MetricsRegistry::Instance()
        .GetCounter("engine.replica_repairs")
        ->Increment();
  }
  return Status::OK();
}

Status CubetreeEngine::Load(const std::vector<ViewDef>& views,
                            ComputedViews* data) {
  CT_ASSIGN_OR_RETURN(forest_, CubetreeForest::Create(ForestOptions(options_),
                                                      pool_, options_.io_stats));
  CT_RETURN_NOT_OK(forest_->Build(views, data));
  view_rows_.clear();
  for (const ViewDef& view : views) {
    CT_ASSIGN_OR_RETURN(uint64_t rows, data->row_count(view.id));
    view_rows_[view.id] = rows;
  }
  return Status::OK();
}

Status CubetreeEngine::CheckLoaded() const {
  if (forest_ == nullptr) {
    return Status::InvalidArgument("cubetree engine: not loaded");
  }
  return Status::OK();
}

Status CubetreeEngine::ApplyDelta(ComputedViews* delta) {
  // Per-view row counts are not tracked inside the trees after a merge;
  // the stale counts only influence the routing heuristic, which stays
  // stable under proportional growth.
  CT_RETURN_NOT_OK(CheckLoaded());
  return forest_->ApplyDelta(delta);
}

Status CubetreeEngine::ApplyDeltaPartial(ComputedViews* delta) {
  CT_RETURN_NOT_OK(CheckLoaded());
  return forest_->ApplyDeltaPartial(delta);
}

Status CubetreeEngine::Compact() {
  CT_RETURN_NOT_OK(CheckLoaded());
  return forest_->Compact();
}

namespace {

/// Estimated tuples touched answering `query` from `view`: the router's
/// cost model (obs::PackOrderCost) seeded with the view's row count.
double EstimateCost(const CubeSchema& schema, const ViewDef& view,
                    const SliceQuery& query, uint64_t rows) {
  // Selectivity of the query's constraint on the view's attr at `pos`
  // (1 = unconstrained).
  auto selectivity = [&](size_t pos) -> double {
    const uint32_t attr = view.attrs[pos];
    for (size_t qi = 0; qi < query.attrs.size(); ++qi) {
      if (query.attrs[qi] != attr || !query.AttrConstrained(qi)) continue;
      const auto [lo, hi] = query.AttrInterval(qi);
      const double domain = std::max<double>(1.0, schema.attr_domains[attr]);
      const double span =
          std::min<double>(domain, static_cast<double>(hi) - lo + 1);
      return span / domain;
    }
    return 1.0;
  };
  const double cost =
      obs::PackOrderCost(static_cast<double>(std::max<uint64_t>(rows, 1)),
                         view.attrs.size(), selectivity);
  return std::max(cost, 1.0);
}

}  // namespace

Result<QueryResult> CubetreeEngine::Execute(const SliceQuery& query,
                                            obs::QueryProfile* out,
                                            const QueryContext* ctx) {
  Timer query_timer;
  obs::TraceScope trace("query", options_.io_stats.get());
  trace.Annotate("engine", "cubetree");
  if (ctx != nullptr && trace.active()) ctx->set_trace_id(trace.trace_id());
  // The query's one record, ambient for the storage hooks and the R-tree
  // (two thread-local stores, no allocation). Every exit goes to Publish.
  obs::QueryProfile profile;
  obs::QueryProfile::Scope profile_scope(&profile);
  Result<QueryResult> result = ExecuteWithRepair(query, ctx, &profile);
  profile.outcome = OutcomeOf(result.status(), profile);
  profile.latency_us = query_timer.ElapsedMicros();
  profile.trace_id = trace.trace_id();
  Publish(query, profile, out);
  return result;
}

Result<QueryResult> CubetreeEngine::ExecuteWithRepair(
    const SliceQuery& query, const QueryContext* ctx,
    obs::QueryProfile* profile) {
  if (forest_ == nullptr) {
    return Status::InvalidArgument("cubetree engine: not loaded");
  }
  if (ctx != nullptr) CT_RETURN_NOT_OK(ctx->Check());
  // Each attempt routes against a freshly pinned snapshot; a Corruption
  // from the search quarantines the routed tree (publishing a new epoch, so
  // the next attempt's routing skips it) and re-runs against the
  // next-cheapest healthy covering view. Every retry quarantines one more
  // tree, so the number of views bounds the loop.
  Status first_corruption;
  const size_t max_attempts = forest_->views().size() + 1;
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    Result<QueryResult> result = ExecuteAttempt(query, ctx, profile);
    if (!result.status().IsCorruption()) {
      // Routing ran dry because corruption quarantined the only covering
      // views: surface the typed root cause, not "no view".
      if (result.status().IsNotFound() && !first_corruption.ok()) {
        return first_corruption;
      }
      return result;
    }
    if (first_corruption.ok()) first_corruption = result.status();
    ++profile->reroutes;
    // Empty file_path: the engine saw the corruption through the routed
    // tree itself, no staleness to guard against. Re-route also when the
    // tree was already quarantined.
    auto quarantined = forest_->QuarantineForCorruption(
        profile->route.view_id, "", result.status());
    if (!quarantined.ok()) return result;
  }
  return first_corruption;  // Every attempt hit corruption.
}

void CubetreeEngine::Publish(const SliceQuery& query,
                             const obs::QueryProfile& profile,
                             obs::QueryProfile* out) const {
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.queries->Increment();
  metrics.outcomes[static_cast<size_t>(profile.outcome)]->Increment();
  if (profile.outcome <= obs::QueryOutcome::kCorruptionRerouted) {
    metrics.query_latency_us->Record(profile.latency_us);  // Answered.
  }
  metrics.pages_touched->Increment(profile.internal_pages +
                                   profile.leaf_pages);
  if (profile.reroutes > 0) {
    metrics.read_repair_reroutes->Increment(profile.reroutes);
  }

  // The sinks below build strings, so they are gated on a consumer: with no
  // out-parameter, query log or profiler this is three pointer checks.
  obs::QueryLog* log = obs::QueryLog::Default();
  obs::WorkloadProfiler* profiler = obs::WorkloadProfiler::Default();
  if (out == nullptr && log == nullptr && profiler == nullptr) return;
  const ViewDef* view = nullptr;
  if (profile.route.view_id != obs::QueryProfile::kNoView) {
    Result<const ViewDef*> routed = forest_->view(profile.route.view_id);
    if (routed.ok()) view = *routed;
  }
  if (out != nullptr) {
    *out = profile;
    if (view != nullptr) {
      out->plan = std::string(profile.route.reaggregated ? "cubetree agg "
                                                         : "cubetree slice ") +
                  view->Name(schema_);
    }
  }
  if (log == nullptr && profiler == nullptr) return;

  obs::QueryLogRecord record;
  record.ts_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  record.outcome = obs::QueryOutcomeName(profile.outcome);
  record.route = profile.route.kind;
  if (view != nullptr) {
    record.view = view->Name(schema_);
    record.order.reserve(view->attrs.size());
    for (uint32_t attr : view->attrs) {
      record.order.push_back(schema_.attr_names[attr]);
    }
  }
  record.attrs.reserve(query.attrs.size());
  for (size_t qi = 0; qi < query.attrs.size(); ++qi) {
    const uint32_t attr = query.attrs[qi];
    obs::QueryLogAttr shape;
    shape.name = schema_.attr_names[attr];
    shape.domain = schema_.attr_domains[attr];
    const auto [lo, hi] = query.AttrInterval(qi);
    shape.lo = lo;
    shape.hi = std::min<uint64_t>(hi, shape.domain);
    shape.bound = query.bindings[qi].has_value();
    shape.grouped = query.IsGrouped(qi);
    record.attrs.push_back(std::move(shape));
  }
  record.latency_us = profile.latency_us;
  record.pages_read = profile.pages_read;
  record.pool_hits = profile.pool_hits;
  record.points_examined = profile.points_examined;
  record.rows = profile.rows;
  record.trace_id = profile.trace_id;
  if (profiler != nullptr) profiler->Observe(record);
  if (log != nullptr) log->Append(std::move(record));
}

Result<QueryResult> CubetreeEngine::ExecuteAttempt(
    const SliceQuery& query, const QueryContext* ctx,
    obs::QueryProfile* profile) {
  // The route describes this attempt only; work counters keep summing.
  obs::QueryProfile::Route& route = profile->route;
  route = {};
  // Pin one committed generation for the whole attempt. Concurrent
  // refreshes publish new generations; this one stays intact (retired
  // files included) until the snapshot is released on return.
  ForestSnapshot snapshot = forest_->AcquireSnapshot();
  if (!snapshot.valid()) {
    return Status::InvalidArgument("cubetree engine: not loaded");
  }
  // Route: cheapest covering view (replicas compete here too). Routing to a
  // same-set view other than the family primary (lowest id) is a replica.
  const ViewDef* best = nullptr;
  uint32_t exact_family_primary = UINT32_MAX;
  {
    obs::Span route_span("route");
    for (const ViewDef& view : forest_->views()) {
      if (!view.Covers(query.node_mask)) continue;
      // Graceful degradation after recovery: a quarantined view is out of
      // service, but a covering superset view (or replica) can still answer.
      if (snapshot.IsViewQuarantined(view.id)) {
        route.degraded = true;
        continue;
      }
      if (view.AttrMask() == query.node_mask) {
        exact_family_primary = std::min(exact_family_primary, view.id);
      }
      auto it = view_rows_.find(view.id);
      const uint64_t rows = it == view_rows_.end() ? 1 : it->second.load();
      const double cost = EstimateCost(schema_, view, query, rows);
      if (best == nullptr || cost < route.estimated_cost) {
        best = &view;
        route.estimated_cost = cost;
      }
    }
    if (best != nullptr && route_span.active()) {
      route_span.Annotate("view", best->Name(schema_));
      route_span.Annotate("estimated_cost", route.estimated_cost);
    }
  }
  if (best == nullptr) {
    return Status::NotFound("no materialized view answers this query");
  }
  route.view_id = best->id;
  if (best->AttrMask() != query.node_mask) {
    route.kind = "superset";
  } else {
    route.kind = best->id == exact_family_primary ? "exact" : "replica";
  }

  // Install the ambient context so BufferPool::Fetch / PageManager::ReadPage
  // check deadline + cancellation at page granularity for the whole scan.
  QueryContext::Scope context_scope(ctx);

  // Per-attribute intervals in the chosen view's projection order
  // (equality = degenerate interval, range = band, open = full).
  std::vector<std::pair<Coord, Coord>> intervals(
      best->arity(), {1, kCoordMax});
  for (size_t qi = 0; qi < query.attrs.size(); ++qi) {
    for (size_t vi = 0; vi < best->attrs.size(); ++vi) {
      if (best->attrs[vi] == query.attrs[qi]) {
        intervals[vi] = query.AttrInterval(qi);
      }
    }
  }

  QueryResult result;
  for (size_t i = 0; i < query.attrs.size(); ++i) {
    if (query.IsGrouped(i)) {
      result.group_attrs.push_back(query.attrs[i]);
    }
  }
  // Positions (within the view) of the query's unbound attrs, in query
  // order, to build group keys.
  std::vector<size_t> group_positions;
  for (size_t qi = 0; qi < query.attrs.size(); ++qi) {
    if (!query.IsGrouped(qi)) continue;
    for (size_t vi = 0; vi < best->attrs.size(); ++vi) {
      if (best->attrs[vi] == query.attrs[qi]) {
        group_positions.push_back(vi);
        break;
      }
    }
  }

  CT_ASSIGN_OR_RETURN(Cubetree * tree, snapshot.TreeForView(best->id));
  bool exact = best->AttrMask() == query.node_mask && !tree->HasDeltas();
  for (size_t qi = 0; qi < query.attrs.size(); ++qi) {
    // A collapsed (ungrouped) attr without an equality binding folds
    // several points into one group: the direct path no longer applies.
    if (!query.IsGrouped(qi) && !query.bindings[qi].has_value()) {
      exact = false;
    }
  }
  route.reaggregated = !exact;
  {
    obs::Span search_span("search");
    const uint64_t examined_before = profile->points_examined;
    if (exact) {
      // Every qualifying point is exactly one result group.
      CT_RETURN_NOT_OK(tree->QueryBox(
          best->id, intervals,
          [&](uint32_t, uint8_t arity, const char* entry) {
            ResultRow row;
            row.group.reserve(group_positions.size());
            for (size_t pos : group_positions) {
              row.group.push_back(ViewRecordCoord(entry, pos));
            }
            row.agg = ViewRecordAgg(entry, arity);
            result.rows.push_back(std::move(row));
          }));
    } else {
      // Superset view: re-aggregate over the extra attributes on the fly
      // (the paper's "additional aggregate step").
      std::map<std::vector<Coord>, AggValue> groups;
      std::vector<Coord> key;
      Status merged;
      CT_RETURN_NOT_OK(tree->QueryBox(
          best->id, intervals,
          [&](uint32_t, uint8_t arity, const char* entry) {
            key.clear();
            for (size_t pos : group_positions) {
              key.push_back(ViewRecordCoord(entry, pos));
            }
            if (merged.ok()) {
              merged = MergeViewAggregate(
                  best->id, ViewRecordAgg(entry, arity), &groups[key]);
            }
          }));
      CT_RETURN_NOT_OK(merged);
      for (auto& [key2, agg] : groups) {
        result.rows.push_back(ResultRow{key2, agg});
      }
    }
    if (search_span.active()) {
      search_span.Annotate("plan", exact ? "slice" : "reaggregate");
      search_span.Annotate("tuples",
                           profile->points_examined - examined_before);
      search_span.Annotate("rows", static_cast<uint64_t>(result.rows.size()));
    }
  }
  profile->rows = result.rows.size();
  return result;
}

uint64_t CubetreeEngine::StorageBytes() const {
  if (forest_ == nullptr) return 0;
  const ForestSnapshot snapshot = forest_->AcquireSnapshot();
  return snapshot.valid() ? snapshot.TotalSizeBytes() : 0;
}

}  // namespace cubetree
