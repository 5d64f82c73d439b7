#ifndef CUBETREE_OBS_QUERY_LOG_H_
#define CUBETREE_OBS_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/json.h"

namespace cubetree {
namespace obs {

class Counter;

/// One attribute of a query's shape: the lattice-node attribute, its key
/// domain, and the effective [lo, hi] interval the query restricts it to
/// (degenerate when equality-bound, [1, domain] when unconstrained). The
/// domain rides along so a log record is self-contained: the profiler's
/// replica-miss scorer recomputes selectivities offline without the schema.
struct QueryLogAttr {
  std::string name;
  uint64_t domain = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool bound = false;    // Equality predicate (lo == hi by construction).
  bool grouped = false;  // Appears in the output grouping.
};

/// The query log's projection of one query's obs::QueryProfile, plus the
/// query's shape and the routed view's name and sort order. Serialized as
/// one JSON line in the durable query log and consumed directly by the
/// in-process workload profiler.
struct QueryLogRecord {
  /// Version 2 dropped a version-1 field no query ever set (a queueing
  /// wait); FromJson reads both versions.
  static constexpr int64_t kSchemaVersion = 2;

  uint64_t ts_us = 0;  // Wall clock, microseconds since the Unix epoch.
  std::string outcome;              // QueryOutcomeName of the outcome.
  std::string route;                // QueryProfile::Route::kind.
  std::string view;                 // Routed view name ("" when route=none).
  std::vector<std::string> order;   // Routed view's projection/sort order.
  std::vector<QueryLogAttr> attrs;  // Query shape over the node's attrs.
  uint64_t latency_us = 0;          // End to end: route, search, re-routes.
  uint64_t pages_read = 0;  // Physical page reads (below the buffer pool).
  uint64_t pool_hits = 0;   // Buffer-pool hits.
  uint64_t points_examined = 0;  // Leaf points scanned (rtree.scan).
  uint64_t rows = 0;             // Result rows returned.
  uint64_t trace_id = 0;         // Span-trace id, 0 when untraced.

  JsonValue ToJson() const;
  /// Strict inverse of ToJson: InvalidArgument on a missing/mistyped field
  /// or an unknown schema_version; a version-1 record's extra field is
  /// ignored. Used by `ctstat check` and the offline profiler, so a
  /// truncated or hand-edited record fails loudly.
  static Result<QueryLogRecord> FromJson(const JsonValue& doc);
};

/// Append-only line file with size-based rotation and bounded retention:
/// when the active file at `path` would exceed `max_bytes`, it is rotated
/// to `path.1` (existing `path.N` shift to `path.N+1`, the oldest beyond
/// `max_segments` is deleted) and a fresh active file is started. Writes
/// are line-buffered (fflush per Append), not fsynced: the log survives a
/// process crash, not a power cut. Not thread-safe; callers serialize
/// (the query log has a single writer thread, the slow-trace sink
/// appends under the tracer's sink mutex).
class RotatingFile {
 public:
  struct Options {
    std::string path;
    uint64_t max_bytes = 64ull << 20;
    int max_segments = 4;  // Retained rotated segments, beyond the active.
  };

  explicit RotatingFile(Options options) : options_(std::move(options)) {}
  ~RotatingFile();
  RotatingFile(const RotatingFile&) = delete;
  RotatingFile& operator=(const RotatingFile&) = delete;

  /// Appends `line` plus a trailing newline, rotating first when the write
  /// would push the active file past max_bytes.
  Status Append(const std::string& line);

  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t rotations() const { return rotations_; }
  const Options& options() const { return options_; }

  /// The on-disk segments of a rotating file, oldest first (highest .N
  /// down to .1, then the active file), existing files only.
  static std::vector<std::string> Segments(const std::string& path,
                                           int max_segments);

 private:
  Status EnsureOpen();
  Status Rotate();

  Options options_;
  std::FILE* file_ = nullptr;
  uint64_t size_ = 0;  // Bytes in the active segment.
  uint64_t bytes_written_ = 0;
  uint64_t rotations_ = 0;
};

/// Durable structured query log: an async JSONL writer with a bounded
/// queue. Append never blocks the query path — it moves the record into
/// the queue under a short mutex hold, or drops it (counted in
/// query_log.dropped) when the writer has fallen `queue_capacity` records
/// behind. A background thread serializes and writes batches through a
/// RotatingFile. Destruction drains the queue, so records appended before
/// a clean exit are on disk.
///
/// Environment (read once, on the first Default() call):
///   CUBETREE_QUERY_LOG=<path>        enable, append to <path>
///   CUBETREE_QUERY_LOG_MAX_BYTES=<n> rotate segments at n bytes (default 64 MiB)
///   CUBETREE_QUERY_LOG_SEGMENTS=<n>  retained rotated segments (default 4)
class QueryLog {
 public:
  struct Options {
    std::string path;
    uint64_t max_bytes = 64ull << 20;
    int max_segments = 4;
    size_t queue_capacity = 4096;
  };

  explicit QueryLog(Options options);
  ~QueryLog();
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Enqueues the record for the writer thread; drops (and counts) when
  /// the queue is full. Never blocks on I/O.
  void Append(QueryLogRecord record) EXCLUDES(mu_);

  /// Blocks until every record appended so far is written and flushed.
  void Flush() EXCLUDES(mu_);

  const Options& options() const { return options_; }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// The process-wide log configured from CUBETREE_QUERY_LOG, or nullptr
  /// when the env var is unset — the disabled path is one static pointer
  /// load, no allocation. The instance is destroyed (drained) at exit.
  static QueryLog* Default();
  /// Test hook: overrides Default() (nullptr restores the env instance).
  static void SetDefaultForTest(QueryLog* log);

  /// The log's on-disk segments, oldest first (see RotatingFile::Segments,
  /// using this log's retention bound).
  static std::vector<std::string> Segments(const std::string& path,
                                           int max_segments = 16);

 private:
  void WriterLoop();

  const Options options_;
  RotatingFile file_;  // Writer-thread only (after construction).
  std::atomic<uint64_t> dropped_{0};

  Mutex mu_;
  CondVar work_cv_;     // Signals the writer: queue non-empty or stopping.
  CondVar drained_cv_;  // Signals Flush(): queue empty and writer idle.
  std::vector<QueryLogRecord> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  bool writer_busy_ GUARDED_BY(mu_) = false;
  std::thread writer_;
};

/// Statistics of one torn-tolerant log read.
struct QueryLogReadStats {
  uint64_t lines = 0;    // Complete ('\n'-terminated) lines seen.
  uint64_t torn = 0;     // Trailing bytes without a newline (0 or 1).
  uint64_t invalid = 0;  // Lines the callback rejected (callers count).
};

/// Reads `path` and invokes `fn` for each complete line (without the
/// newline). A final partial line — the signature of a crash mid-append —
/// is skipped and counted in stats->torn rather than surfaced as an
/// error. Returns NotFound / IOError only for file-level failures.
Status ForEachLogLine(const std::string& path,
                      const std::function<void(const std::string&)>& fn,
                      QueryLogReadStats* stats = nullptr);

}  // namespace obs
}  // namespace cubetree

#endif  // CUBETREE_OBS_QUERY_LOG_H_
