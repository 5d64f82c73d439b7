#ifndef CUBETREE_OBS_QUERY_PROFILE_H_
#define CUBETREE_OBS_QUERY_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace cubetree {
namespace obs {

/// How a query ended. The first three returned an answer: `degraded` when
/// a covering view was quarantined out of the routing set, and
/// `corruption_rerouted` after at least one read-repair re-route. `shed`
/// is a ResourceExhausted: the buffer pool had every frame pinned.
enum class QueryOutcome : uint8_t {
  kOk,
  kDegraded,
  kCorruptionRerouted,
  kDeadline,
  kCancelled,
  kShed,
  kError,
};
inline constexpr size_t kNumQueryOutcomes =
    static_cast<size_t>(QueryOutcome::kError) + 1;

/// The outcome's stable name: the `engine.queries.<name>` counter suffix
/// and the query log's `outcome` field.
inline const char* QueryOutcomeName(QueryOutcome outcome) {
  static constexpr const char* kNames[kNumQueryOutcomes] = {
      "ok",        "degraded", "corruption_rerouted", "deadline",
      "cancelled", "shed",     "error"};
  return kNames[static_cast<size_t>(outcome)];
}

/// The one record of one query. Each layer fills its part once: the
/// storage hooks (NotePageRead / NotePoolHit) and PackedRTree::Search add
/// their work to the ambient profile the engine installs with Scope; the
/// engine records the rest, then projects the finished profile into every
/// sink (CubetreeEngine::Publish). Work counters sum over every read-repair
/// attempt; `route` describes the final one.
struct QueryProfile {
  static constexpr uint32_t kNoView = UINT32_MAX;

  uint64_t pages_read = 0;      // Physical page reads (below the pool).
  uint64_t pool_hits = 0;       // Buffer-pool hits.
  uint64_t internal_pages = 0;  // R-tree internal pages descended.
  uint64_t leaf_pages = 0;      // R-tree leaf pages scanned.
  /// Leaf entries scanned; for the conventional engine, view rows or index
  /// entries plus row fetches.
  uint64_t points_examined = 0;
  uint32_t reroutes = 0;  // Read-repair re-routes after a Corruption.

  /// `kind` is `superset` when the view strictly covers the query's node,
  /// `replica` for a same-set view other than the family's primary (its
  /// lowest non-quarantined id), `exact` for the primary, and `none` when
  /// no view was routed (e.g. the context expired before routing).
  struct Route {
    const char* kind = "none";
    uint32_t view_id = kNoView;
    double estimated_cost = 0;  // The router's estimate for that view.
    bool degraded = false;      // A quarantined covering view was skipped.
    bool reaggregated = false;  // Points were folded into result groups.
  } route;

  QueryOutcome outcome = QueryOutcome::kOk;
  uint64_t rows = 0;        // Result rows returned.
  uint64_t latency_us = 0;  // End to end: route, search and any re-route.
  uint64_t trace_id = 0;    // Span-trace id, 0 when untraced.
  /// Access path, e.g. "cubetree slice V{partkey,suppkey}". Filled only in
  /// a caller's copy, so the default path allocates nothing.
  std::string plan;

  /// RAII installer of this thread's ambient profile; nesting restores the
  /// outer one. Out of line, like QueryContext::Scope: the thread-local
  /// slot is private to trace.cc, next to the storage hooks that feed it.
  class Scope {
   public:
    explicit Scope(QueryProfile* profile);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    QueryProfile* saved_;
  };

  /// This thread's ambient profile, or nullptr outside any Scope.
  static QueryProfile* Current();
};

}  // namespace obs
}  // namespace cubetree

#endif  // CUBETREE_OBS_QUERY_PROFILE_H_
