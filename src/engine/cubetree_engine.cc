#include "engine/cubetree_engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "obs/workload.h"
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

/// ViewDataProvider over per-view record buffers derived in memory ahead of
/// the rebuild (from healthy replicas / superset views), already sorted in
/// pack order.
class ReplicaRepairProvider : public CubetreeForest::ViewDataProvider {
 public:
  void Add(uint32_t view_id, std::vector<char> buffer, size_t record_size) {
    buffers_[view_id] = {std::move(buffer), record_size};
  }

  Result<std::unique_ptr<RecordStream>> OpenViewStream(
      const ViewDef& view) override {
    auto it = buffers_.find(view.id);
    if (it == buffers_.end()) {
      return Status::NotFound("replica repair: no derived data for view " +
                              std::to_string(view.id));
    }
    return std::unique_ptr<RecordStream>(std::make_unique<MemoryRecordStream>(
        it->second.first, it->second.second));
  }

 private:
  std::map<uint32_t, std::pair<std::vector<char>, size_t>> buffers_;
};

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
  CubetreeForest::Options forest_options;
  forest_options.dir = engine->options_.dir;
  forest_options.name = engine->options_.name;
  forest_options.rtree = engine->options_.rtree;
  forest_options.one_tree_per_view = engine->options_.one_tree_per_view;
  CT_ASSIGN_OR_RETURN(
      engine->forest_,
      CubetreeForest::Recover(forest_options, engine->pool_,
                              engine->options_.io_stats, report));
  // Row counts were derived from the spools at load time; after a crash
  // the spools are gone, so re-derive them from the trees themselves.
  CT_ASSIGN_OR_RETURN(
      engine->view_rows_,
      engine->forest_->AcquireSnapshot().CountPointsPerView());
  return engine;
}

Status CubetreeEngine::RebuildQuarantined(ComputedViews* data) {
  if (forest_ == nullptr) {
    return Status::InvalidArgument("cubetree engine: not loaded");
  }
  CT_RETURN_NOT_OK(GatedWrite(
      forest_->RefreshEstimate(CubetreeForest::RefreshKind::kRebuild, data),
      [&] { return forest_->RebuildQuarantined(data); }));
  CT_ASSIGN_OR_RETURN(view_rows_,
                      forest_->AcquireSnapshot().CountPointsPerView());
  return Status::OK();
}

Status CubetreeEngine::RepairFromReplicas() {
  if (forest_ == nullptr) {
    return Status::InvalidArgument("cubetree engine: not loaded");
  }
  ForestSnapshot snapshot = forest_->AcquireSnapshot();
  if (!snapshot.valid() || !snapshot.HasQuarantine()) return Status::OK();
  obs::Span repair_span("repair.replicas");
  const std::vector<ViewDef>& views = forest_->views();
  ReplicaRepairProvider provider;
  size_t repaired_views = 0;
  for (const ViewDef& view : views) {
    if (!snapshot.IsViewQuarantined(view.id)) continue;
    // Source selection mirrors routing: the cheapest healthy view whose
    // attribute set covers the lost view's — a same-set replica rebuilds
    // 1:1, a superset re-aggregates down.
    const ViewDef* source = nullptr;
    uint64_t source_rows = 0;
    for (const ViewDef& cand : views) {
      if (cand.id == view.id || snapshot.IsViewQuarantined(cand.id)) continue;
      if (!cand.Covers(view.AttrMask())) continue;
      auto it = view_rows_.find(cand.id);
      const uint64_t rows =
          it == view_rows_.end() ? UINT64_MAX : std::max<uint64_t>(it->second, 1);
      if (source == nullptr || rows < source_rows) {
        source = &cand;
        source_rows = rows;
      }
    }
    if (source == nullptr) {
      return Status::Unavailable("replica repair: no healthy view covers " +
                                 view.Name(schema_));
    }
    // Position of each of the lost view's attrs inside the source's
    // projection list, for coordinate remapping.
    std::vector<size_t> pos(view.attrs.size(), 0);
    for (size_t i = 0; i < view.attrs.size(); ++i) {
      for (size_t j = 0; j < source->attrs.size(); ++j) {
        if (source->attrs[j] == view.attrs[i]) {
          pos[i] = j;
          break;
        }
      }
    }
    // Full-box scan of the source, re-aggregated into the lost view's
    // groups. The map's comparator IS pack order (last attr most
    // significant), so iteration yields records already sorted for the
    // bulk rebuild. Merge is required twice over: a superset view folds
    // many source tuples into one group, and QueryBox emits a key once per
    // tree (main + each pending delta).
    const uint8_t arity = view.arity();
    auto pack_less = [arity](const std::vector<Coord>& a,
                             const std::vector<Coord>& b) {
      for (size_t i = arity; i > 0; --i) {
        if (a[i - 1] != b[i - 1]) return a[i - 1] < b[i - 1];
      }
      return false;
    };
    std::map<std::vector<Coord>, AggValue, decltype(pack_less)> groups(
        pack_less);
    std::vector<std::pair<Coord, Coord>> intervals(source->arity(),
                                                   {1, kCoordMax});
    CT_ASSIGN_OR_RETURN(Cubetree * tree, snapshot.TreeForView(source->id));
    std::vector<Coord> key(view.attrs.size());
    Status merged;
    CT_RETURN_NOT_OK(tree->QueryBox(
        source->id, intervals,
        [&](const Coord* coords, const AggValue& agg) {
          for (size_t i = 0; i < pos.size(); ++i) key[i] = coords[pos[i]];
          if (merged.ok()) {
            merged = MergeViewAggregate(view.id, agg, &groups[key]);
          }
        }));
    CT_RETURN_NOT_OK(merged);
    const size_t record_size = ViewRecordBytes(arity);
    std::vector<char> buffer(groups.size() * record_size);
    size_t off = 0;
    for (const auto& [group_key, agg] : groups) {
      EncodeViewRecord(buffer.data() + off, group_key.data(), arity, agg);
      off += record_size;
    }
    provider.Add(view.id, std::move(buffer), record_size);
    ++repaired_views;
  }
  if (repair_span.active()) {
    repair_span.Annotate("views", static_cast<uint64_t>(repaired_views));
  }
  // Drop the pin before the rebuild publishes new generations, so the
  // quarantined files it retires can be reclaimed promptly.
  snapshot.Release();
  CT_RETURN_NOT_OK(GatedWrite(
      forest_->RefreshEstimate(CubetreeForest::RefreshKind::kRebuild,
                               &provider),
      [&] { return forest_->RebuildQuarantined(&provider); }));
  CT_ASSIGN_OR_RETURN(view_rows_,
                      forest_->AcquireSnapshot().CountPointsPerView());
  static obs::Counter* const repairs =
      obs::MetricsRegistry::Instance().GetCounter("engine.replica_repairs");
  repairs->Increment();
  return Status::OK();
}

Status CubetreeEngine::Load(const std::vector<ViewDef>& views,
                            ComputedViews* data) {
  CubetreeForest::Options forest_options;
  forest_options.dir = options_.dir;
  forest_options.name = options_.name;
  forest_options.rtree = options_.rtree;
  forest_options.one_tree_per_view = options_.one_tree_per_view;
  CT_ASSIGN_OR_RETURN(forest_, CubetreeForest::Create(forest_options, pool_,
                                                      options_.io_stats));
  CT_RETURN_NOT_OK(forest_->Build(views, data));
  view_rows_.clear();
  for (const ViewDef& view : views) {
    CT_ASSIGN_OR_RETURN(uint64_t rows, data->row_count(view.id));
    view_rows_[view.id] = rows;
  }
  return Status::OK();
}

Status CubetreeEngine::GatedWrite(uint64_t estimated_bytes,
                                  const std::function<Status()>& write) {
  CT_RETURN_NOT_OK(degraded_.AdmitWrite(estimated_bytes));
  Status status = write();
  // A StorageFull that slipped past the preflight (the volume filled while
  // the refresh ran) flips the engine read-only; queries keep serving the
  // still-published epoch.
  degraded_.OnWriteStatus(status);
  return status;
}

Status CubetreeEngine::ApplyDelta(ComputedViews* delta) {
  if (forest_ == nullptr) {
    return Status::InvalidArgument("cubetree engine: not loaded");
  }
  // Per-view row counts are not tracked inside the trees after a merge;
  // the stale counts only influence the routing heuristic, which stays
  // stable under proportional growth.
  return GatedWrite(
      forest_->RefreshEstimate(CubetreeForest::RefreshKind::kMerge, delta),
      [&] { return forest_->ApplyDelta(delta); });
}

Status CubetreeEngine::ApplyDeltaPartial(ComputedViews* delta) {
  if (forest_ == nullptr) {
    return Status::InvalidArgument("cubetree engine: not loaded");
  }
  return GatedWrite(
      forest_->RefreshEstimate(CubetreeForest::RefreshKind::kDelta, delta),
      [&] { return forest_->ApplyDeltaPartial(delta); });
}

Status CubetreeEngine::Compact() {
  if (forest_ == nullptr) {
    return Status::InvalidArgument("cubetree engine: not loaded");
  }
  return GatedWrite(
      forest_->RefreshEstimate(CubetreeForest::RefreshKind::kMerge, nullptr),
      [&] { return forest_->Compact(); });
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
      const uint64_t rows = it == view_rows_.end() ? 1 : it->second;
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
          [&](const Coord* coords, const AggValue& agg) {
            ResultRow row;
            row.group.reserve(group_positions.size());
            for (size_t pos : group_positions) row.group.push_back(coords[pos]);
            row.agg = agg;
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
          [&](const Coord* coords, const AggValue& agg) {
            key.clear();
            for (size_t pos : group_positions) key.push_back(coords[pos]);
            if (merged.ok()) {
              merged = MergeViewAggregate(best->id, agg, &groups[key]);
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
