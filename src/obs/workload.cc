#include "obs/workload.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace cubetree {
namespace obs {

namespace {

/// Selectivity of one recorded attribute interval, in (0, 1]. Records
/// carry the effective [lo, hi] (clamped to [1, domain]), so an
/// unconstrained attribute comes out as exactly 1.
double AttrSelectivity(const QueryLogAttr& attr) {
  if (attr.domain == 0 || attr.hi < attr.lo) return 1.0;
  const double width = static_cast<double>(attr.hi - attr.lo + 1);
  const double sel = width / static_cast<double>(attr.domain);
  return sel >= 1.0 ? 1.0 : sel;
}

bool AttrConstrained(const QueryLogAttr& attr) {
  return AttrSelectivity(attr) < 1.0;
}

/// The query-shape grouping key: each attribute of the node in projection
/// order, suffixed with "=" when equality-bound and "~" when
/// range-restricted. E.g. "partkey=,suppkey,custkey~".
std::string ShapeKey(const QueryLogRecord& record) {
  std::string key;
  for (const QueryLogAttr& attr : record.attrs) {
    if (!key.empty()) key.push_back(',');
    key += attr.name;
    if (attr.bound) {
      key.push_back('=');
    } else if (AttrConstrained(attr)) {
      key.push_back('~');
    }
  }
  return key.empty() ? "(apex)" : key;
}

std::string JoinOrder(const std::vector<std::string>& order) {
  std::string out;
  for (const std::string& attr : order) {
    if (!out.empty()) out.push_back(',');
    out += attr;
  }
  return out;
}

JsonValue LatencyJson(uint64_t count, const Histogram& h) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("count", JsonValue(static_cast<int64_t>(count)));
  out.Set("mean_us", JsonValue(h.Mean()));
  out.Set("p50_us", JsonValue(static_cast<int64_t>(h.ValueAtPercentile(50))));
  out.Set("p95_us", JsonValue(static_cast<int64_t>(h.ValueAtPercentile(95))));
  out.Set("p99_us", JsonValue(static_cast<int64_t>(h.ValueAtPercentile(99))));
  out.Set("max_us", JsonValue(static_cast<int64_t>(h.max())));
  return out;
}

std::atomic<WorkloadProfiler*> g_default_profiler{nullptr};

}  // namespace

void SpaceSavingSketch::Observe(const std::string& key) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++it->second.count;
    return;
  }
  if (entries_.size() < capacity_ || capacity_ == 0) {
    entries_.emplace(key, Cell{1, 0});
    return;
  }
  // Evict the minimum-count entry; the newcomer inherits its count as the
  // classic space-saving overestimate.
  auto min_it = entries_.begin();
  for (auto cand = entries_.begin(); cand != entries_.end(); ++cand) {
    if (cand->second.count < min_it->second.count) min_it = cand;
  }
  const uint64_t floor = min_it->second.count;
  entries_.erase(min_it);
  entries_.emplace(key, Cell{floor + 1, floor});
}

std::vector<SpaceSavingSketch::Entry> SpaceSavingSketch::TopK(size_t k) const {
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const auto& [key, cell] : entries_) {
    out.push_back(Entry{key, cell.count, cell.overcount});
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::optional<ReplicaMiss> ScoreReplicaMiss(const QueryLogRecord& record) {
  if (record.view.empty() || record.order.empty()) return std::nullopt;

  // Look attrs up by name so the scorer does not assume record.attrs and
  // record.order agree on ordering.
  auto selectivity_of = [&](const std::string& name) {
    for (const QueryLogAttr& attr : record.attrs) {
      if (attr.name == name) return AttrSelectivity(attr);
    }
    return 1.0;
  };
  auto cost_under = [&](const std::vector<std::string>& order) {
    return PackOrderCost(1.0, order.size(), [&](size_t i) {
      return selectivity_of(order[i]);
    });
  };

  // Recommended permutation: unconstrained attributes first (least
  // significant), constrained ones moved to the suffix, both keeping their
  // relative order — deterministic, so recommendations aggregate.
  std::vector<std::string> recommended;
  for (const bool constrained : {false, true}) {
    for (const std::string& name : record.order) {
      if ((selectivity_of(name) < 1.0) == constrained) {
        recommended.push_back(name);
      }
    }
  }
  const double actual = cost_under(record.order);
  const double best = cost_under(recommended);
  if (best >= actual * (1.0 - 1e-9)) return std::nullopt;  // Already optimal.

  ReplicaMiss miss;
  miss.view = record.view;
  miss.recommended_order = std::move(recommended);
  miss.cost_ratio = best / actual;
  miss.pages_touched = record.pages_read + record.pool_hits;
  miss.est_pages_saved =
      static_cast<double>(miss.pages_touched) * (1.0 - miss.cost_ratio);
  return miss;
}

WorkloadProfiler::WorkloadProfiler(Options options)
    : options_(options), shapes_(options.sketch_capacity) {}

void WorkloadProfiler::Observe(const QueryLogRecord& record) {
  std::optional<ReplicaMiss> miss = ScoreReplicaMiss(record);
  const std::string shape = ShapeKey(record);
  MutexLock lock(mu_);
  ++records_;
  LatencyAgg& outcome = outcomes_[record.outcome.empty() ? "unknown"
                                                         : record.outcome];
  ++outcome.count;
  outcome.latency_us->Record(record.latency_us);
  if (!record.view.empty()) {
    ViewAgg& view = views_[record.view];
    ++view.latency.count;
    view.latency.latency_us->Record(record.latency_us);
    view.pages_read += record.pages_read;
    view.pool_hits += record.pool_hits;
    view.points_examined += record.points_examined;
    ++view.routes[record.route.empty() ? "unknown" : record.route];
  }
  shapes_.Observe(shape);
  if (miss.has_value()) {
    const std::string key =
        miss->view + "|" + JoinOrder(miss->recommended_order);
    MissAgg& agg = misses_[key];
    if (agg.queries == 0) {
      agg.view = miss->view;
      agg.recommended_order = miss->recommended_order;
    }
    ++agg.queries;
    agg.est_pages_saved += miss->est_pages_saved;
    agg.pages_touched += miss->pages_touched;
  }
}

Status WorkloadProfiler::AddLogFile(const std::string& path) {
  QueryLogReadStats stats;
  uint64_t invalid = 0;
  Status status = ForEachLogLine(
      path,
      [&](const std::string& line) {
        Result<JsonValue> doc = JsonValue::Parse(line);
        if (!doc.ok()) {
          ++invalid;
          return;
        }
        Result<QueryLogRecord> record = QueryLogRecord::FromJson(*doc);
        if (!record.ok()) {
          ++invalid;
          return;
        }
        Observe(*record);
      },
      &stats);
  CT_RETURN_NOT_OK(status);
  MutexLock lock(mu_);
  invalid_records_ += invalid;
  torn_lines_ += stats.torn;
  return Status::OK();
}

Status WorkloadProfiler::AddLog(const std::string& path) {
  for (const std::string& segment : QueryLog::Segments(path)) {
    CT_RETURN_NOT_OK(AddLogFile(segment));
  }
  return Status::OK();
}

uint64_t WorkloadProfiler::records() const {
  MutexLock lock(mu_);
  return records_;
}

uint64_t WorkloadProfiler::invalid_records() const {
  MutexLock lock(mu_);
  return invalid_records_;
}

JsonValue WorkloadProfiler::ReportJson() const {
  MutexLock lock(mu_);
  JsonValue out = JsonValue::MakeObject();
  out.Set("schema_version", JsonValue(static_cast<int64_t>(1)));
  out.Set("records", JsonValue(static_cast<int64_t>(records_)));
  out.Set("invalid_records", JsonValue(static_cast<int64_t>(invalid_records_)));
  out.Set("torn_lines", JsonValue(static_cast<int64_t>(torn_lines_)));

  JsonValue outcomes = JsonValue::MakeObject();
  for (const auto& [name, agg] : outcomes_) {
    outcomes.Set(name, LatencyJson(agg.count, *agg.latency_us));
  }
  out.Set("outcomes", std::move(outcomes));

  JsonValue views = JsonValue::MakeObject();
  for (const auto& [name, agg] : views_) {
    JsonValue view = LatencyJson(agg.latency.count, *agg.latency.latency_us);
    view.Set("pages_read", JsonValue(static_cast<int64_t>(agg.pages_read)));
    view.Set("pool_hits", JsonValue(static_cast<int64_t>(agg.pool_hits)));
    view.Set("points_examined",
             JsonValue(static_cast<int64_t>(agg.points_examined)));
    JsonValue routes = JsonValue::MakeObject();
    for (const auto& [route, count] : agg.routes) {
      routes.Set(route, JsonValue(static_cast<int64_t>(count)));
    }
    view.Set("routes", std::move(routes));
    views.Set(name, std::move(view));
  }
  out.Set("views", std::move(views));

  JsonValue shapes = JsonValue::MakeArray();
  for (const SpaceSavingSketch::Entry& entry : shapes_.TopK(options_.top_k)) {
    JsonValue shape = JsonValue::MakeObject();
    shape.Set("shape", JsonValue(entry.key));
    shape.Set("count", JsonValue(static_cast<int64_t>(entry.count)));
    shape.Set("max_overcount",
              JsonValue(static_cast<int64_t>(entry.overcount)));
    shapes.Append(std::move(shape));
  }
  out.Set("top_shapes", std::move(shapes));

  // Misses sorted by estimated pages saved (desc), then key, so the top
  // recommendation is first.
  std::vector<const MissAgg*> misses;
  misses.reserve(misses_.size());
  for (const auto& [key, agg] : misses_) misses.push_back(&agg);
  std::sort(misses.begin(), misses.end(),
            [](const MissAgg* a, const MissAgg* b) {
              if (a->est_pages_saved != b->est_pages_saved) {
                return a->est_pages_saved > b->est_pages_saved;
              }
              if (a->view != b->view) return a->view < b->view;
              return a->recommended_order < b->recommended_order;
            });
  JsonValue miss_json = JsonValue::MakeArray();
  for (const MissAgg* agg : misses) {
    JsonValue miss = JsonValue::MakeObject();
    miss.Set("view", JsonValue(agg->view));
    JsonValue order = JsonValue::MakeArray();
    for (const std::string& attr : agg->recommended_order) {
      order.Append(JsonValue(attr));
    }
    miss.Set("recommended_order", std::move(order));
    miss.Set("queries", JsonValue(static_cast<int64_t>(agg->queries)));
    miss.Set("est_pages_saved", JsonValue(agg->est_pages_saved));
    miss.Set("pages_touched",
             JsonValue(static_cast<int64_t>(agg->pages_touched)));
    miss_json.Append(std::move(miss));
  }
  out.Set("replica_misses", std::move(miss_json));
  return out;
}

std::string WorkloadProfiler::ReportText() const {
  const JsonValue report = ReportJson();
  std::ostringstream out;
  auto i64 = [&](const JsonValue& obj, const char* key) -> int64_t {
    const JsonValue* v = obj.Find(key);
    return v != nullptr && v->is_number() ? static_cast<int64_t>(v->number())
                                          : 0;
  };
  auto f64 = [&](const JsonValue& obj, const char* key) -> double {
    const JsonValue* v = obj.Find(key);
    return v != nullptr && v->is_number() ? v->number() : 0.0;
  };

  out << "workload profile: " << i64(report, "records") << " records";
  if (i64(report, "invalid_records") > 0 || i64(report, "torn_lines") > 0) {
    out << " (" << i64(report, "invalid_records") << " invalid, "
        << i64(report, "torn_lines") << " torn)";
  }
  out << "\n\noutcomes:\n";
  const JsonValue* outcomes = report.Find("outcomes");
  if (outcomes != nullptr) {
    for (const auto& [name, agg] : outcomes->members()) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %-20s %8" PRId64 "  mean %.0fus  p50 %" PRId64
                    "us  p95 %" PRId64 "us  p99 %" PRId64 "us\n",
                    name.c_str(), i64(agg, "count"), f64(agg, "mean_us"),
                    i64(agg, "p50_us"), i64(agg, "p95_us"), i64(agg, "p99_us"));
      out << line;
    }
  }
  out << "\nviews:\n";
  const JsonValue* views = report.Find("views");
  if (views != nullptr) {
    for (const auto& [name, agg] : views->members()) {
      char line[200];
      std::snprintf(line, sizeof(line),
                    "  %-28s %8" PRId64 " queries  p95 %" PRId64
                    "us  pages %" PRId64 " (+%" PRId64 " pool)  points %" PRId64
                    "\n",
                    name.c_str(), i64(agg, "count"), i64(agg, "p95_us"),
                    i64(agg, "pages_read"), i64(agg, "pool_hits"),
                    i64(agg, "points_examined"));
      out << line;
      const JsonValue* routes = agg.Find("routes");
      if (routes != nullptr) {
        out << "    routes:";
        for (const auto& [route, count] : routes->members()) {
          out << " " << route << "="
              << (count.is_number() ? static_cast<int64_t>(count.number())
                                    : 0);
        }
        out << "\n";
      }
    }
  }
  out << "\ntop query shapes ('=' bound, '~' ranged):\n";
  const JsonValue* shapes = report.Find("top_shapes");
  if (shapes != nullptr) {
    for (const JsonValue& shape : shapes->elements()) {
      out << "  " << i64(shape, "count");
      if (i64(shape, "max_overcount") > 0) {
        out << " (±" << i64(shape, "max_overcount") << ")";
      }
      const JsonValue* key = shape.Find("shape");
      out << "  " << (key != nullptr && key->is_string() ? key->str() : "")
          << "\n";
    }
  }
  out << "\nreplica misses (orderings that would have served better):\n";
  const JsonValue* misses = report.Find("replica_misses");
  if (misses == nullptr || misses->elements().empty()) {
    out << "  none — every query was served by an optimal sort order\n";
  } else {
    for (const JsonValue& miss : misses->elements()) {
      const JsonValue* view = miss.Find("view");
      const JsonValue* order = miss.Find("recommended_order");
      std::string order_text;
      if (order != nullptr) {
        for (const JsonValue& attr : order->elements()) {
          if (!order_text.empty()) order_text += ",";
          if (attr.is_string()) order_text += attr.str();
        }
      }
      char line[240];
      std::snprintf(line, sizeof(line),
                    "  view %-24s add order (%s): %" PRId64
                    " queries, est. %.1f pages saved (of %" PRId64
                    " touched)\n",
                    view != nullptr && view->is_string() ? view->str().c_str()
                                                         : "?",
                    order_text.c_str(), i64(miss, "queries"),
                    f64(miss, "est_pages_saved"), i64(miss, "pages_touched"));
      out << line;
    }
  }
  return out.str();
}

WorkloadProfiler* WorkloadProfiler::Default() {
  return g_default_profiler.load(std::memory_order_acquire);
}

void WorkloadProfiler::SetDefault(WorkloadProfiler* profiler) {
  g_default_profiler.store(profiler, std::memory_order_release);
}

}  // namespace obs
}  // namespace cubetree
