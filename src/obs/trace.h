#ifndef CUBETREE_OBS_TRACE_H_
#define CUBETREE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/json.h"
#include "storage/io_stats.h"

namespace cubetree {
namespace obs {

class Trace;
class Tracer;
class RotatingFile;

namespace trace_internal {

/// The ambient trace of this thread: set by TraceScope, consulted by every
/// Span constructor and by the storage-layer attribution hooks
/// (NotePageRead / NotePoolHit). One thread builds one trace at a time, so
/// no synchronization is needed until the trace is published.
struct AmbientTrace {
  Trace* trace = nullptr;
  int32_t span = -1;  // Index of the innermost open span.
};

extern thread_local AmbientTrace t_ambient;

}  // namespace trace_internal

/// One node of a trace's span tree. Timestamps are steady-clock
/// nanoseconds, so spans of different traces in one process share a
/// timeline (which is what makes the Chrome trace-event export coherent).
struct SpanRecord {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // 0 while the span is still open.
  int32_t parent = -1;  // Index into Trace::spans(); -1 = root.
  std::vector<std::pair<std::string, JsonValue>> annotations;

  /// Storage attribution, self only (not including child spans): physical
  /// page reads (PageManager::ReadPage) and buffer-pool hits
  /// (BufferPool::Fetch) that happened while this span was innermost.
  uint64_t pages_read = 0;
  uint64_t pool_hits = 0;

  /// Delta of the trace's attached IoStats over the span's lifetime
  /// (sequential/random split). Zero when no IoStats was attached. Unlike
  /// pages_read this is process-wide, so concurrent activity on the same
  /// IoStats pollutes it; single-threaded phases (refresh, one query) read
  /// it exactly.
  IoStats io;

  uint64_t DurationMicros() const { return (end_ns - start_ns) / 1000; }
};

/// A completed or in-flight span tree. Built single-threaded by the thread
/// that owns the TraceScope; published to the Tracer as an immutable
/// shared_ptr<const Trace> when the scope closes.
class Trace {
 public:
  Trace(uint64_t id, const IoStats* io) : id_(id), io_(io) {}

  uint64_t id() const { return id_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Name and duration of the root span ("" / 0 before any span opened).
  const std::string& name() const;
  uint64_t DurationMicros() const;

  /// Nested span-tree document: {"trace_id", "name", "duration_us",
  /// "root": {"name", "start_us", "duration_us", "pages_read",
  /// "pool_hits", ["io"], ["annotations"], ["children"]}}. start_us is
  /// relative to the root span.
  JsonValue TreeJson() const;

  /// This trace's spans as an array of Chrome trace-event objects
  /// (ph = "X" complete events; tid = trace id so each trace gets its own
  /// track). Tracer::ChromeTraceJson wraps them in the file envelope.
  JsonValue TraceEventsJson() const;

  /// Indented human-readable rendering for ctsql's \trace command.
  std::string DebugString() const;

  // --- Builder API (used by Span / TraceScope / the attribution hooks;
  // all calls must come from the owning thread). ---
  int32_t OpenSpan(const char* name, int32_t parent);
  void CloseSpan(int32_t index);
  void Annotate(int32_t index, const char* key, JsonValue value);
  /// Counts a page read or pool hit toward span `index`. Index -1 is a
  /// worker's adopted trace before it opens a span: the count waits in the
  /// trace and goes to the attach point when the trace is spliced.
  void AddPageRead(int32_t index) {
    ++(index < 0 ? unspanned_.pages_read : spans_[index].pages_read);
  }
  void AddPoolHit(int32_t index) {
    ++(index < 0 ? unspanned_.pool_hits : spans_[index].pool_hits);
  }

  /// Appends every span of `child` into this trace, re-rooting child roots
  /// (parent < 0) under `attach_parent` and shifting all other parent
  /// indices; the reads and hits `child` counted outside its spans go to
  /// `attach_parent`. Used by TraceHandoff to graft worker-thread span
  /// subtrees back into the coordinator's trace; the caller is responsible
  /// for serializing splices (TraceHandoff holds a mutex) and for making
  /// sure this trace is not concurrently being built on another thread.
  void SpliceChild(const Trace& child, int32_t attach_parent);

 private:
  static uint64_t NowNanos() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  uint64_t id_;
  const IoStats* io_;  // Nullable; snapshotted per span when present.
  std::vector<SpanRecord> spans_;
  std::vector<IoStats> open_io_;  // Per-span IoStats snapshot at open.
  /// Reads and hits counted while no span was open (see AddPageRead).
  struct {
    uint64_t pages_read = 0;
    uint64_t pool_hits = 0;
  } unspanned_;
};

/// RAII span. Construction is a no-op (one thread-local load and a branch)
/// when the thread has no ambient trace, so instrumentation points in hot
/// paths cost nothing while tracing is off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return trace_ != nullptr; }

  void Annotate(const char* key, const std::string& value);
  void Annotate(const char* key, const char* value);
  void Annotate(const char* key, int64_t value);
  void Annotate(const char* key, uint64_t value);
  void Annotate(const char* key, double value);

 private:
  Trace* trace_ = nullptr;
  int32_t index_ = -1;
  int32_t parent_ = -1;
};

/// RAII trace root. If the process tracer is enabled and the thread has no
/// ambient trace, starts a new trace (with `io` attached for per-span
/// IoStats deltas) and publishes it to the tracer's ring on destruction —
/// also feeding the slow-query log. If a trace is already ambient
/// (e.g. a query executed inside a traced refresh), degrades to a plain
/// child span. If the tracer is disabled, a complete no-op.
class TraceScope {
 public:
  explicit TraceScope(const char* name, const IoStats* io = nullptr);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  bool active() const { return trace_ != nullptr; }
  /// Id of the trace this scope writes into (0 when inactive).
  uint64_t trace_id() const;

  void Annotate(const char* key, const std::string& value);
  void Annotate(const char* key, int64_t value);
  void Annotate(const char* key, uint64_t value);

 private:
  std::unique_ptr<Trace> owned_;  // Set only when this scope started the trace.
  Trace* trace_ = nullptr;
  int32_t index_ = -1;
  int32_t parent_ = -1;
};

/// Explicit parent-handoff for spans built on worker threads. Spans use
/// the thread-local ambient, so work moved onto a pool thread would
/// silently detach from the trace that spawned it. The coordinating thread
/// constructs a TraceHandoff while its trace is ambient; each worker
/// enters a TraceHandoff::Adopt scope, which gives the worker a private
/// child trace (so span building stays single-threaded and lock-free) and,
/// when the scope closes, splices the child's spans back under the
/// coordinator's current span — serialized by the handoff's mutex.
///
/// The coordinator must not close the parent span (or destroy the parent
/// trace) until every adopting worker has exited its Adopt scope; in
/// practice it blocks joining the pool, which is exactly that barrier.
/// Page-read / pool-hit attribution on the worker lands in the child spans
/// and survives the splice, and a worker's reads outside any span of its
/// own count toward the coordinator's span; per-span IoStats deltas do not
/// survive (the attached IoStats is process-wide, so a per-worker delta
/// would be noise anyway).
class TraceHandoff {
 public:
  /// Captures the calling thread's ambient trace and innermost span.
  /// Inactive (all Adopts become no-ops) when no trace is ambient.
  TraceHandoff();
  TraceHandoff(const TraceHandoff&) = delete;
  TraceHandoff& operator=(const TraceHandoff&) = delete;

  bool active() const { return parent_trace_ != nullptr; }

  /// RAII adoption of the handoff's trace on the current thread.
  class Adopt {
   public:
    explicit Adopt(TraceHandoff& handoff);
    ~Adopt();
    Adopt(const Adopt&) = delete;
    Adopt& operator=(const Adopt&) = delete;

   private:
    TraceHandoff* handoff_ = nullptr;
    std::unique_ptr<Trace> local_;
    trace_internal::AmbientTrace saved_;
  };

 private:
  Trace* parent_trace_ = nullptr;
  int32_t parent_span_ = -1;
  Mutex splice_mu_;
};

/// Process-wide tracing control: the enable flag, the bounded ring buffer
/// of completed traces, the Chrome trace-event exporter, and the
/// slow-query log.
///
/// The ring holds its slots under a mutex taken only when a whole trace
/// completes (Publish) or is exported — never on the per-span hot path,
/// which stays a thread-local pointer chase. A mutex beats
/// std::atomic<shared_ptr> here: libstdc++'s _Sp_atomic is an internal
/// spinlock anyway (so not lock-free either), and its reader path unlocks
/// with relaxed ordering, which ThreadSanitizer correctly reports as a
/// data race against the writer's pointer swap.
///
/// Environment (read once, when Instance() first runs):
///   CUBETREE_TRACE=1              enable tracing at startup
///   CUBETREE_SLOW_QUERY_US=<n>    arm the slow-query log at n microseconds
///   CUBETREE_SLOW_QUERY_PATH=<p>  write slow-trace lines to a rotating
///                                 file at <p> instead of stderr (same
///                                 rotation policy as the query log)
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 128;

  /// The process-wide tracer. Tests may construct private instances, but
  /// TraceScope always publishes here.
  static Tracer& Instance();

  explicit Tracer(size_t capacity = kDefaultCapacity);
  ~Tracer();

  /// Disabled-tracer overhead is this one relaxed load (plus a branch) per
  /// would-be trace root.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NextTraceId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Inserts a completed trace, evicting the oldest resident once the ring
  /// is full. Safe from any thread; the mutex is held only for the slot
  /// assignment.
  void Publish(std::shared_ptr<const Trace> trace) EXCLUDES(ring_mu_);

  /// The most recently published trace; nullptr when empty.
  std::shared_ptr<const Trace> LastTrace() const EXCLUDES(ring_mu_);

  /// Every resident trace, oldest first.
  std::vector<std::shared_ptr<const Trace>> AllTraces() const
      EXCLUDES(ring_mu_);

  void Clear() EXCLUDES(ring_mu_);
  size_t capacity() const { return capacity_; }

  /// {"displayTimeUnit": "ms", "traceEvents": [...]} over `traces` —
  /// loadable in Perfetto / chrome://tracing.
  static JsonValue ChromeTraceJson(
      const std::vector<std::shared_ptr<const Trace>>& traces);
  /// Convenience: ChromeTraceJson over the current ring contents.
  JsonValue ExportAllJson() const { return ChromeTraceJson(AllTraces()); }

  // --- Slow-query log ---------------------------------------------------
  /// Traces whose root span exceeds `us` microseconds emit one compact
  /// JSON line (the full span tree) to stderr when published. Negative
  /// disables (the default unless CUBETREE_SLOW_QUERY_US is set).
  void SetSlowTraceThresholdMicros(int64_t us) {
    slow_threshold_us_.store(us, std::memory_order_relaxed);
  }
  int64_t slow_trace_threshold_micros() const {
    return slow_threshold_us_.load(std::memory_order_relaxed);
  }
  /// Rate limit: at most one slow-trace line per interval; the next
  /// emitted line carries a "suppressed" count for the dropped ones.
  /// Reconfiguring restarts the current window, so a new interval takes
  /// effect at the next slow trace rather than after the old window.
  void SetSlowTraceLogIntervalMillis(int64_t ms) {
    slow_interval_us_.store(ms * 1000, std::memory_order_relaxed);
    slow_last_emit_us_.store(0, std::memory_order_relaxed);
  }
  /// Test hook: redirect slow-trace lines away from the file/stderr sinks.
  /// Pass nullptr to restore them.
  void SetSlowTraceSinkForTest(std::function<void(const std::string&)> sink);

  /// Routes slow-trace lines to a rotating file at `path` (empty path
  /// restores stderr). Rotation policy matches the query log: segments of
  /// `max_bytes`, `max_segments` rotated files retained.
  void SetSlowTraceFile(const std::string& path,
                        uint64_t max_bytes = 64ull << 20,
                        int max_segments = 4) EXCLUDES(sink_mu_);

  /// Called by ~TraceScope after Publish. Public for tests.
  void MaybeLogSlowTrace(const Trace& trace);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  const size_t capacity_;
  mutable Mutex ring_mu_;
  uint64_t next_slot_ GUARDED_BY(ring_mu_) = 0;
  std::vector<std::shared_ptr<const Trace>> slots_ GUARDED_BY(ring_mu_);

  std::atomic<int64_t> slow_threshold_us_{-1};
  std::atomic<int64_t> slow_interval_us_{1000 * 1000};  // 1s default.
  std::atomic<uint64_t> slow_last_emit_us_{0};
  std::atomic<uint64_t> slow_suppressed_{0};
  Mutex sink_mu_;
  std::function<void(const std::string&)> sink_
      GUARDED_BY(sink_mu_);  // Empty = file sink (if set), else stderr.
  std::unique_ptr<RotatingFile> slow_file_ GUARDED_BY(sink_mu_);
  bool slow_file_warned_ GUARDED_BY(sink_mu_) = false;
};

/// Storage attribution hooks of PageManager::ReadPage (physical read) and
/// the BufferPool::Fetch hit path: each feeds the innermost open span and
/// the thread's ambient QueryProfile, whichever are installed.
void NotePageRead();
void NotePoolHit();

/// The trace this thread is currently building, or nullptr.
inline Trace* CurrentTrace() { return trace_internal::t_ambient.trace; }

}  // namespace obs
}  // namespace cubetree

#endif  // CUBETREE_OBS_TRACE_H_
