#include "engine/cubetree_engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "obs/workload.h"
#include "sort/external_sorter.h"

namespace cubetree {

namespace {

struct EngineMetrics {
  /// Success-only end-to-end latency: error outcomes land in their
  /// per-outcome counter below instead of skewing the distribution.
  obs::Histogram* query_latency_us;
  obs::Histogram* admission_wait_us;
  obs::Counter* queries;
  obs::Counter* pages_touched;
  obs::Counter* read_repair_reroutes;
  /// Typed query outcomes; `ok` + the rest partition engine.queries.
  obs::Counter* ok;
  obs::Counter* deadline;
  obs::Counter* cancelled;
  obs::Counter* shed;
  obs::Counter* degraded;
  obs::Counter* corruption_rerouted;
  obs::Counter* error;

  obs::Counter* ForOutcome(const char* outcome) const {
    if (std::strcmp(outcome, "ok") == 0) return ok;
    if (std::strcmp(outcome, "deadline") == 0) return deadline;
    if (std::strcmp(outcome, "cancelled") == 0) return cancelled;
    if (std::strcmp(outcome, "shed") == 0) return shed;
    if (std::strcmp(outcome, "degraded") == 0) return degraded;
    if (std::strcmp(outcome, "corruption_rerouted") == 0) {
      return corruption_rerouted;
    }
    return error;
  }

  static const EngineMetrics& Get() {
    static const EngineMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return EngineMetrics{
          reg.GetHistogram("engine.query_latency_us"),
          reg.GetHistogram("engine.admission_wait_us"),
          reg.GetCounter("engine.queries"),
          reg.GetCounter("engine.pages_touched"),
          reg.GetCounter("engine.read_repair_reroutes"),
          reg.GetCounter("engine.queries.ok"),
          reg.GetCounter("engine.queries.deadline"),
          reg.GetCounter("engine.queries.cancelled"),
          reg.GetCounter("engine.queries.shed"),
          reg.GetCounter("engine.queries.degraded"),
          reg.GetCounter("engine.queries.corruption_rerouted"),
          reg.GetCounter("engine.queries.error")};
    }();
    return m;
  }
};

/// The typed outcome of a finished Execute. Success precedence:
/// corruption_rerouted (the answer needed a read-repair re-route) beats
/// degraded (a quarantined view was routed around) beats plain ok.
const char* OutcomeName(const Status& status, bool rerouted, bool degraded) {
  if (status.ok()) {
    if (rerouted) return "corruption_rerouted";
    if (degraded) return "degraded";
    return "ok";
  }
  if (status.IsDeadlineExceeded()) return "deadline";
  if (status.IsCancelled()) return "cancelled";
  if (status.IsResourceExhausted()) return "shed";
  return "error";
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
  forest_options.refresh_threads = engine->options_.refresh_threads;
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
    CT_RETURN_NOT_OK(tree->QueryBox(
        source->id, intervals,
        [&](const Coord* coords, const AggValue& agg) {
          for (size_t i = 0; i < pos.size(); ++i) key[i] = coords[pos[i]];
          groups[key].Merge(agg);
        }));
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
  forest_options.refresh_threads = options_.refresh_threads;
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

double CubetreeEngine::EstimateCost(const ViewDef& view,
                                    const SliceQuery& query,
                                    uint64_t rows) const {
  // Selectivity of the query's constraint on `attr` (1 = unconstrained).
  auto selectivity = [&](uint32_t attr) -> double {
    for (size_t qi = 0; qi < query.attrs.size(); ++qi) {
      if (query.attrs[qi] != attr || !query.AttrConstrained(qi)) continue;
      const auto [lo, hi] = query.AttrInterval(qi);
      const double domain =
          std::max<double>(1.0, schema_.attr_domains[attr]);
      const double span =
          std::min<double>(domain, static_cast<double>(hi) - lo + 1);
      return span / domain;
    }
    return 1.0;
  };
  double cost = static_cast<double>(std::max<uint64_t>(rows, 1));
  // Constrained attrs forming a suffix of the projection list are a
  // prefix of the packing sort order: full pruning at their selectivity.
  size_t i = view.attrs.size();
  while (i > 0 && selectivity(view.attrs[i - 1]) < 1.0) {
    cost *= selectivity(view.attrs[i - 1]);
    --i;
  }
  // Remaining constrained attrs still prune via MBR intersection, but
  // only partially; credit a modest constant factor each.
  for (size_t j = 0; j < i; ++j) {
    if (selectivity(view.attrs[j]) < 1.0) cost /= 2.0;
  }
  return std::max(cost, 1.0);
}

Result<QueryResult> CubetreeEngine::Execute(const SliceQuery& query,
                                            QueryExecStats* stats) {
  return Execute(query, stats, QueryContext::Current());
}

namespace {

/// Builds the durable per-query record from the finished Execute. Only
/// runs when a query log or profiler is attached, so none of the string
/// assembly here touches the default hot path.
obs::QueryLogRecord BuildQueryRecord(
    const CubeSchema& schema, const SliceQuery& query, const char* outcome,
    const CubetreeEngine::AttemptInfo& info,
    const obs::trace_internal::QueryCounters& pages, uint64_t latency_us,
    uint64_t trace_id) {
  obs::QueryLogRecord record;
  record.ts_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  record.outcome = outcome;
  record.route = info.route;
  if (info.view != nullptr) {
    record.view = info.view->Name(schema);
    record.order.reserve(info.view->attrs.size());
    for (uint32_t attr : info.view->attrs) {
      record.order.push_back(schema.attr_names[attr]);
    }
  }
  record.attrs.reserve(query.attrs.size());
  for (size_t qi = 0; qi < query.attrs.size(); ++qi) {
    const uint32_t attr = query.attrs[qi];
    obs::QueryLogAttr out;
    out.name = schema.attr_names[attr];
    out.domain = schema.attr_domains[attr];
    const auto [lo, hi] = query.AttrInterval(qi);
    out.lo = lo;
    out.hi = std::min<uint64_t>(hi, out.domain);
    out.bound = query.bindings[qi].has_value();
    out.grouped = query.IsGrouped(qi);
    record.attrs.push_back(std::move(out));
  }
  record.latency_us = latency_us;
  record.admission_wait_us = info.admission_wait_us;
  record.pages_read = pages.pages_read;
  record.pool_hits = pages.pool_hits;
  record.points_examined = info.points_examined;
  record.rows = info.rows;
  record.trace_id = trace_id;
  return record;
}

}  // namespace

Result<QueryResult> CubetreeEngine::Execute(const SliceQuery& query,
                                            QueryExecStats* stats,
                                            const QueryContext* ctx) {
  if (forest_ == nullptr) {
    return Status::InvalidArgument("cubetree engine: not loaded");
  }
  Timer query_timer;
  obs::TraceScope trace("query", options_.io_stats.get());
  trace.Annotate("engine", "cubetree");
  if (ctx != nullptr && trace.active()) ctx->set_trace_id(trace.trace_id());
  if (ctx != nullptr) CT_RETURN_NOT_OK(ctx->Check());

  // Per-query page accounting: a stack counter fed by the same storage
  // hooks as span attribution. Installing it is two thread-local stores —
  // no allocation — so it is unconditional.
  obs::trace_internal::QueryCounters page_counters;
  obs::QueryAccountingScope accounting_scope(&page_counters);

  // Read-repair retry loop. Each attempt routes against a freshly pinned
  // snapshot; a Corruption from the search quarantines the routed tree
  // (publishing a new epoch, so the next attempt's routing skips it) and
  // re-runs against the next-cheapest healthy covering view. Every retry
  // quarantines one more tree, so the number of views bounds the loop.
  Status first_corruption;
  bool rerouted = false;
  AttemptInfo info;
  std::optional<Result<QueryResult>> final_result;
  const size_t max_attempts = forest_->views().size() + 1;
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    info = AttemptInfo();
    Result<QueryResult> result = ExecuteAttempt(query, stats, ctx, &info);
    if (result.ok()) {
      final_result = std::move(result);
      break;
    }
    if (result.status().IsCorruption()) {
      if (first_corruption.ok()) first_corruption = result.status();
      rerouted = true;
      EngineMetrics::Get().read_repair_reroutes->Increment();
      // Empty file_path: the engine saw the corruption through the routed
      // tree itself, no staleness to guard against.
      auto q = forest_->QuarantineForCorruption(info.routed_view, "",
                                               result.status());
      if (q.ok()) continue;  // Re-route (also when already quarantined).
      final_result = std::move(result);
      break;
    }
    if (result.status().IsNotFound() && !first_corruption.ok()) {
      // Routing ran dry because corruption quarantined the only covering
      // views; surface the typed root cause, not "no view".
      final_result = Result<QueryResult>(first_corruption);
      break;
    }
    final_result = std::move(result);
    break;
  }
  if (!final_result.has_value()) {
    // Loop exhausted: every attempt hit corruption; surface the first.
    final_result = Result<QueryResult>(
        first_corruption.ok()
            ? Status::Internal("cubetree engine: retry loop exhausted")
            : first_corruption);
  }

  const uint64_t latency_us = query_timer.ElapsedMicros();
  const char* outcome =
      OutcomeName(final_result->status(), rerouted, info.degraded);
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.ForOutcome(outcome)->Increment();
  if (final_result->ok()) metrics.query_latency_us->Record(latency_us);

  // Record assembly is gated on an attached consumer: with neither a query
  // log nor a profiler, the whole block is two pointer loads.
  obs::QueryLog* log = obs::QueryLog::Default();
  obs::WorkloadProfiler* profiler = obs::WorkloadProfiler::Default();
  if (log != nullptr || profiler != nullptr) {
    obs::QueryLogRecord record =
        BuildQueryRecord(schema_, query, outcome, info, page_counters,
                         latency_us, trace.trace_id());
    if (profiler != nullptr) profiler->Observe(record);
    if (log != nullptr) log->Append(std::move(record));
  }
  return std::move(*final_result);
}

Result<QueryResult> CubetreeEngine::ExecuteAttempt(const SliceQuery& query,
                                                   QueryExecStats* stats,
                                                   const QueryContext* ctx,
                                                   AttemptInfo* info) {
  // Pin one committed generation for the whole attempt. Concurrent
  // refreshes publish new generations; this one stays intact (retired
  // files included) until the snapshot is released on return.
  ForestSnapshot snapshot = forest_->AcquireSnapshot();
  if (!snapshot.valid()) {
    return Status::InvalidArgument("cubetree engine: not loaded");
  }
  // Route: cheapest covering view (replicas compete here too).
  const ViewDef* best = nullptr;
  double best_cost = 0;
  // Routing-family bookkeeping for the accounting record: whether a
  // covering view was quarantined out of contention (degraded service),
  // and the lowest view id sharing the query node's exact attribute set
  // (its family primary — routing to any other same-set member means a
  // replica sort order won).
  bool exact_family_seen = false;
  uint32_t exact_family_primary = 0;
  {
    obs::Span route_span("route");
    for (const ViewDef& view : forest_->views()) {
      if (!view.Covers(query.node_mask)) continue;
      // Graceful degradation after recovery: a quarantined view is out of
      // service, but a covering superset view (or replica) can still answer.
      if (snapshot.IsViewQuarantined(view.id)) {
        info->degraded = true;
        continue;
      }
      if (view.AttrMask() == query.node_mask &&
          (!exact_family_seen || view.id < exact_family_primary)) {
        exact_family_seen = true;
        exact_family_primary = view.id;
      }
      auto it = view_rows_.find(view.id);
      const uint64_t rows = it == view_rows_.end() ? 1 : it->second;
      const double cost = EstimateCost(view, query, rows);
      if (best == nullptr || cost < best_cost) {
        best = &view;
        best_cost = cost;
      }
    }
    if (best != nullptr && route_span.active()) {
      route_span.Annotate("view", best->Name(schema_));
      route_span.Annotate("estimated_cost", best_cost);
    }
  }
  if (best == nullptr) {
    return Status::NotFound("no materialized view answers this query");
  }
  info->routed_view = best->id;
  info->view = best;
  if (best->AttrMask() != query.node_mask) {
    info->route = "superset";
  } else {
    info->route = best->id == exact_family_primary ? "exact" : "replica";
  }

  // The routing estimate doubles as the admission cost hint: under
  // overload, the gate sheds the cheapest (least lost work) queries first.
  AdmissionTicket ticket;
  {
    // The span exists even without a gate so every query trace carries an
    // explicit admission phase (gate=none ≡ nothing to wait on).
    obs::Span admit_span("admission");
    if (options_.admission != nullptr) {
      Timer admit_timer;
      Result<AdmissionTicket> admitted =
          options_.admission->Admit(static_cast<uint64_t>(best_cost), ctx);
      // The wait is recorded whether or not the gate admitted: a shed or
      // deadline-expired query waited too, and hiding that wait from the
      // histogram would understate queueing under exactly the overload the
      // gate exists for.
      const uint64_t wait_us = admit_timer.ElapsedMicros();
      info->admission_wait_us = wait_us;
      EngineMetrics::Get().admission_wait_us->Record(wait_us);
      admit_span.Annotate("wait_us", wait_us);
      if (!admitted.ok()) return admitted.status();
      ticket = std::move(*admitted);
    } else {
      admit_span.Annotate("gate", "none");
    }
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
  SearchStats search_stats;
  {
    obs::Span search_span("search");
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
          },
          &search_stats));
    } else {
      // Superset view: re-aggregate over the extra attributes on the fly
      // (the paper's "additional aggregate step").
      std::map<std::vector<Coord>, AggValue> groups;
      std::vector<Coord> key;
      CT_RETURN_NOT_OK(tree->QueryBox(
          best->id, intervals,
          [&](const Coord* coords, const AggValue& agg) {
            key.clear();
            for (size_t pos : group_positions) key.push_back(coords[pos]);
            groups[key].Merge(agg);
          },
          &search_stats));
      for (auto& [key2, agg] : groups) {
        result.rows.push_back(ResultRow{key2, agg});
      }
    }
    if (search_span.active()) {
      search_span.Annotate("plan", exact ? "slice" : "reaggregate");
      search_span.Annotate("tuples", search_stats.points_examined);
      search_span.Annotate("rows", static_cast<uint64_t>(result.rows.size()));
    }
  }
  if (stats != nullptr) {
    stats->tuples_accessed += search_stats.points_examined;
    stats->pages_accessed +=
        search_stats.internal_pages + search_stats.leaf_pages;
    stats->plan = std::string(exact ? "cubetree slice " : "cubetree agg ") +
                  best->Name(schema_);
  }
  info->points_examined = search_stats.points_examined;
  info->rows = result.rows.size();
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.queries->Increment();
  metrics.pages_touched->Increment(search_stats.internal_pages +
                                   search_stats.leaf_pages);
  return result;
}

uint64_t CubetreeEngine::StorageBytes() const {
  if (forest_ == nullptr) return 0;
  const ForestSnapshot snapshot = forest_->AcquireSnapshot();
  return snapshot.valid() ? snapshot.TotalSizeBytes() : 0;
}

}  // namespace cubetree
