#ifndef CUBETREE_OBS_WORKLOAD_H_
#define CUBETREE_OBS_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/query_log.h"

namespace cubetree {
namespace obs {

/// Space-saving heavy-hitter sketch (Metwally et al.): tracks at most
/// `capacity` distinct keys; when a new key arrives at capacity, it
/// inherits (and overestimates by at most) the smallest tracked count,
/// which becomes the entry's error bound. Counts of keys that stayed
/// resident the whole stream are exact.
class SpaceSavingSketch {
 public:
  explicit SpaceSavingSketch(size_t capacity) : capacity_(capacity) {}

  void Observe(const std::string& key);

  struct Entry {
    std::string key;
    uint64_t count = 0;      // Upper bound on the key's true frequency.
    uint64_t overcount = 0;  // count - overcount lower-bounds it.
  };
  /// The k heaviest tracked keys, by count descending (ties by key).
  std::vector<Entry> TopK(size_t k) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Cell {
    uint64_t count = 0;
    uint64_t overcount = 0;
  };
  size_t capacity_;
  std::map<std::string, Cell> entries_;
};

/// The router's cost model, seeded by CubetreeEngine with the view's row
/// count and by ScoreReplicaMiss with 1. A view packs in (last attr, ...,
/// first attr) order, so each constrained attribute in the suffix of its
/// projection list prunes contiguous leaf ranges and multiplies in its
/// selectivity; any other constrained attribute prunes only partially,
/// via MBRs, and halves the cost. `selectivity(i)` is list position i's,
/// in (0, 1] and 1 when unconstrained.
template <typename Selectivity>
double PackOrderCost(double seed, size_t arity,
                     const Selectivity& selectivity) {
  double cost = seed;
  size_t i = arity;
  for (; i > 0 && selectivity(i - 1) < 1.0; --i) cost *= selectivity(i - 1);
  for (size_t j = 0; j < i; ++j) {
    if (selectivity(j) < 1.0) cost /= 2.0;
  }
  return cost;
}

/// A query served by a sort order that could not fully prune its
/// predicates, scored against the best permutation of the same view: the
/// paper's replication feature (extra sort orders instead of secondary
/// indices) applied in reverse — which replica *should* have existed.
struct ReplicaMiss {
  std::string view;                           // The routed view.
  std::vector<std::string> recommended_order;  // Permutation that serves it.
  double cost_ratio = 1.0;  // best/actual estimated tuple cost, < 1 = miss.
  double est_pages_saved = 0;  // pages_touched * (1 - cost_ratio).
  uint64_t pages_touched = 0;  // pages_read + pool_hits of the record.
};

/// Scores one record against the routed view's best same-set sort order,
/// both priced by PackOrderCost. The best permutation moves every
/// constrained attribute into the suffix, so its cost is the full
/// selectivity product — the ratio needs only the record's [lo, hi]
/// intervals and domains, not row counts. Returns nullopt when the routed
/// order was already optimal (or the record carries no routed view).
std::optional<ReplicaMiss> ScoreReplicaMiss(const QueryLogRecord& record);

/// Streaming workload profiler: aggregates per-query records — live (the
/// engine feeds the attached Default() profiler as it logs) and/or from
/// query-log files — into per-view and per-outcome latency distributions,
/// a top-K heavy-hitter sketch of query shapes, and the replica-miss
/// score table. Observe is thread-safe (one short mutex hold; only paid
/// when a profiler is attached).
class WorkloadProfiler {
 public:
  /// Query shapes the heavy-hitter sketch tracks, and how many of them the
  /// report lists.
  static constexpr size_t kSketchCapacity = 64;
  static constexpr size_t kTopShapes = 10;

  WorkloadProfiler() : shapes_(kSketchCapacity) {}
  WorkloadProfiler(const WorkloadProfiler&) = delete;
  WorkloadProfiler& operator=(const WorkloadProfiler&) = delete;

  void Observe(const QueryLogRecord& record) EXCLUDES(mu_);

  /// Parses one JSONL log file, Observing every valid record. Unparseable
  /// lines are counted (invalid_records), a torn final line is skipped;
  /// only file-level failures return an error.
  Status AddLogFile(const std::string& path) EXCLUDES(mu_);
  /// AddLogFile over every on-disk segment of the rotating log at `path`,
  /// oldest first.
  Status AddLog(const std::string& path) EXCLUDES(mu_);

  uint64_t records() const EXCLUDES(mu_);
  uint64_t invalid_records() const EXCLUDES(mu_);

  /// The profiler report: {"schema_version", "records", "invalid_records",
  /// "torn_lines", "outcomes", "views", "top_shapes", "replica_misses"}.
  /// Orderings are deterministic (sorted maps; shapes by count, misses by
  /// estimated pages saved) so reports diff cleanly.
  JsonValue ReportJson() const EXCLUDES(mu_);
  /// Human-readable rendering of the same report (ctstat report, ctsql's
  /// \workload command).
  std::string ReportText() const EXCLUDES(mu_);

  /// The process-wide profiler the engine feeds (nullptr = none attached;
  /// the disabled check is one atomic load). Not env-driven: surfaces that
  /// want live profiling (ctsql, the bench JSON writer) attach one.
  static WorkloadProfiler* Default();
  static void SetDefault(WorkloadProfiler* profiler);

 private:
  struct LatencyAgg {
    uint64_t count = 0;
    std::unique_ptr<Histogram> latency_us = std::make_unique<Histogram>();
  };
  struct ViewAgg {
    LatencyAgg latency;
    uint64_t pages_read = 0;
    uint64_t pool_hits = 0;
    uint64_t points_examined = 0;
    std::map<std::string, uint64_t> routes;  // exact/replica/superset count.
  };
  struct MissAgg {
    std::string view;
    std::vector<std::string> recommended_order;
    uint64_t queries = 0;
    double est_pages_saved = 0;
    uint64_t pages_touched = 0;
  };

  mutable Mutex mu_;
  uint64_t records_ GUARDED_BY(mu_) = 0;
  uint64_t invalid_records_ GUARDED_BY(mu_) = 0;
  uint64_t torn_lines_ GUARDED_BY(mu_) = 0;
  std::map<std::string, LatencyAgg> outcomes_ GUARDED_BY(mu_);
  std::map<std::string, ViewAgg> views_ GUARDED_BY(mu_);
  SpaceSavingSketch shapes_ GUARDED_BY(mu_);
  /// Keyed on "view|order" so recommendations aggregate across queries.
  std::map<std::string, MissAgg> misses_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace cubetree

#endif  // CUBETREE_OBS_WORKLOAD_H_
