#include "obs/trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "obs/query_log.h"
#include "obs/query_profile.h"

namespace cubetree {
namespace obs {

namespace trace_internal {
thread_local AmbientTrace t_ambient;
}  // namespace trace_internal

using trace_internal::t_ambient;

namespace {

thread_local QueryProfile* t_profile = nullptr;

uint64_t SteadyNowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const std::string& EmptyString() {
  static const std::string empty;
  return empty;
}

bool IoStatsNonZero(const IoStats& io) { return io.TotalOps() != 0; }

JsonValue IoStatsJson(const IoStats& io) {
  JsonValue v = JsonValue::MakeObject();
  v.Set("sequential_reads",
        JsonValue(io.sequential_reads.load(std::memory_order_relaxed)));
  v.Set("random_reads",
        JsonValue(io.random_reads.load(std::memory_order_relaxed)));
  v.Set("sequential_writes",
        JsonValue(io.sequential_writes.load(std::memory_order_relaxed)));
  v.Set("random_writes",
        JsonValue(io.random_writes.load(std::memory_order_relaxed)));
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Trace

const std::string& Trace::name() const {
  return spans_.empty() ? EmptyString() : spans_[0].name;
}

uint64_t Trace::DurationMicros() const {
  return spans_.empty() ? 0 : spans_[0].DurationMicros();
}

int32_t Trace::OpenSpan(const char* name, int32_t parent) {
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.emplace_back();
  SpanRecord& span = spans_.back();
  span.name = name;
  span.parent = parent;
  span.start_ns = NowNanos();
  open_io_.emplace_back();
  if (io_ != nullptr) open_io_.back() = *io_;  // Snapshot at open.
  return index;
}

void Trace::CloseSpan(int32_t index) {
  SpanRecord& span = spans_[index];
  span.end_ns = NowNanos();
  if (io_ != nullptr) {
    span.io = *io_ - open_io_[index];
  }
}

void Trace::Annotate(int32_t index, const char* key, JsonValue value) {
  spans_[index].annotations.emplace_back(key, std::move(value));
}

void Trace::SpliceChild(const Trace& child, int32_t attach_parent) {
  const int32_t offset = static_cast<int32_t>(spans_.size());
  spans_.reserve(spans_.size() + child.spans_.size());
  open_io_.reserve(open_io_.size() + child.open_io_.size());
  for (size_t i = 0; i < child.spans_.size(); ++i) {
    spans_.push_back(child.spans_[i]);
    SpanRecord& span = spans_.back();
    span.parent = span.parent < 0 ? attach_parent : span.parent + offset;
    // Keep spans_ and open_io_ index-aligned: CloseSpan and the IoStats
    // delta logic address both by the same span index.
    open_io_.push_back(child.open_io_[i]);
  }
}

namespace {

JsonValue SpanTreeJson(const Trace& trace,
                       const std::vector<std::vector<int32_t>>& children,
                       int32_t index) {
  const SpanRecord& span = trace.spans()[index];
  const uint64_t root_start = trace.spans()[0].start_ns;
  JsonValue node = JsonValue::MakeObject();
  node.Set("name", JsonValue(span.name));
  node.Set("start_us", JsonValue((span.start_ns - root_start) / 1000));
  node.Set("duration_us", JsonValue(span.DurationMicros()));
  if (span.pages_read != 0) node.Set("pages_read", JsonValue(span.pages_read));
  if (span.pool_hits != 0) node.Set("pool_hits", JsonValue(span.pool_hits));
  if (IoStatsNonZero(span.io)) node.Set("io", IoStatsJson(span.io));
  if (!span.annotations.empty()) {
    JsonValue& args = node.Set("annotations", JsonValue::MakeObject());
    for (const auto& [key, value] : span.annotations) args.Set(key, value);
  }
  if (!children[index].empty()) {
    JsonValue& kids = node.Set("children", JsonValue::MakeArray());
    for (int32_t child : children[index]) {
      kids.Append(SpanTreeJson(trace, children, child));
    }
  }
  return node;
}

std::vector<std::vector<int32_t>> ChildIndex(const Trace& trace) {
  std::vector<std::vector<int32_t>> children(trace.spans().size());
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    const int32_t parent = trace.spans()[i].parent;
    if (parent >= 0) children[parent].push_back(static_cast<int32_t>(i));
  }
  return children;
}

}  // namespace

JsonValue Trace::TreeJson() const {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("trace_id", JsonValue(id_));
  doc.Set("name", JsonValue(name()));
  doc.Set("duration_us", JsonValue(DurationMicros()));
  if (!spans_.empty()) {
    doc.Set("root", SpanTreeJson(*this, ChildIndex(*this), 0));
  }
  return doc;
}

JsonValue Trace::TraceEventsJson() const {
  JsonValue events = JsonValue::MakeArray();
  for (const SpanRecord& span : spans_) {
    JsonValue event = JsonValue::MakeObject();
    event.Set("name", JsonValue(span.name));
    event.Set("cat", JsonValue("cubetree"));
    event.Set("ph", JsonValue("X"));
    event.Set("ts", JsonValue(span.start_ns / 1000));
    event.Set("dur", JsonValue(span.DurationMicros()));
    event.Set("pid", JsonValue(static_cast<uint64_t>(1)));
    event.Set("tid", JsonValue(id_));
    JsonValue& args = event.Set("args", JsonValue::MakeObject());
    args.Set("trace_id", JsonValue(id_));
    if (span.pages_read != 0) {
      args.Set("pages_read", JsonValue(span.pages_read));
    }
    if (span.pool_hits != 0) args.Set("pool_hits", JsonValue(span.pool_hits));
    if (IoStatsNonZero(span.io)) {
      args.Set("io_reads", JsonValue(span.io.TotalReads()));
      args.Set("io_writes", JsonValue(span.io.TotalWrites()));
    }
    for (const auto& [key, value] : span.annotations) args.Set(key, value);
    events.Append(std::move(event));
  }
  return events;
}

namespace {

void DebugStringNode(const Trace& trace,
                     const std::vector<std::vector<int32_t>>& children,
                     int32_t index, int depth, std::string* out) {
  const SpanRecord& span = trace.spans()[index];
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(span.name);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  %llu us",
                static_cast<unsigned long long>(span.DurationMicros()));
  out->append(buf);
  if (span.pages_read != 0 || span.pool_hits != 0) {
    std::snprintf(buf, sizeof(buf), "  [reads=%llu hits=%llu]",
                  static_cast<unsigned long long>(span.pages_read),
                  static_cast<unsigned long long>(span.pool_hits));
    out->append(buf);
  }
  for (const auto& [key, value] : span.annotations) {
    out->append("  ");
    out->append(key);
    out->push_back('=');
    out->append(value.is_string() ? value.str() : value.Dump(-1));
  }
  out->push_back('\n');
  for (int32_t child : children[index]) {
    DebugStringNode(trace, children, child, depth + 1, out);
  }
}

}  // namespace

std::string Trace::DebugString() const {
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "trace %llu\n",
                static_cast<unsigned long long>(id_));
  out.append(buf);
  if (!spans_.empty()) {
    DebugStringNode(*this, ChildIndex(*this), 0, 1, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Span

Span::Span(const char* name) {
  Trace* trace = t_ambient.trace;
  if (trace == nullptr) return;
  trace_ = trace;
  parent_ = t_ambient.span;
  index_ = trace->OpenSpan(name, parent_);
  t_ambient.span = index_;
}

Span::~Span() {
  if (trace_ == nullptr) return;
  trace_->CloseSpan(index_);
  t_ambient.span = parent_;
}

void Span::Annotate(const char* key, const std::string& value) {
  if (trace_ != nullptr) trace_->Annotate(index_, key, JsonValue(value));
}
void Span::Annotate(const char* key, const char* value) {
  if (trace_ != nullptr) trace_->Annotate(index_, key, JsonValue(value));
}
void Span::Annotate(const char* key, int64_t value) {
  if (trace_ != nullptr) trace_->Annotate(index_, key, JsonValue(value));
}
void Span::Annotate(const char* key, uint64_t value) {
  if (trace_ != nullptr) trace_->Annotate(index_, key, JsonValue(value));
}
void Span::Annotate(const char* key, double value) {
  if (trace_ != nullptr) trace_->Annotate(index_, key, JsonValue(value));
}

// ---------------------------------------------------------------------------
// Query profile and storage attribution

QueryProfile::Scope::Scope(QueryProfile* profile) : saved_(t_profile) {
  t_profile = profile;
}

QueryProfile::Scope::~Scope() { t_profile = saved_; }

QueryProfile* QueryProfile::Current() { return t_profile; }

void NotePageRead() {
  if (t_ambient.trace != nullptr) t_ambient.trace->AddPageRead(t_ambient.span);
  if (t_profile != nullptr) ++t_profile->pages_read;
}

void NotePoolHit() {
  if (t_ambient.trace != nullptr) t_ambient.trace->AddPoolHit(t_ambient.span);
  if (t_profile != nullptr) ++t_profile->pool_hits;
}

// ---------------------------------------------------------------------------
// TraceScope

TraceScope::TraceScope(const char* name, const IoStats* io) {
  if (t_ambient.trace != nullptr) {
    // Nested inside another traced operation: contribute a child span
    // rather than starting a competing trace.
    trace_ = t_ambient.trace;
    parent_ = t_ambient.span;
    index_ = trace_->OpenSpan(name, parent_);
    t_ambient.span = index_;
    return;
  }
  Tracer& tracer = Tracer::Instance();
  if (!tracer.enabled()) return;
  owned_ = std::make_unique<Trace>(tracer.NextTraceId(), io);
  trace_ = owned_.get();
  parent_ = -1;
  index_ = trace_->OpenSpan(name, -1);
  t_ambient.trace = trace_;
  t_ambient.span = index_;
}

TraceScope::~TraceScope() {
  if (trace_ == nullptr) return;
  trace_->CloseSpan(index_);
  t_ambient.span = parent_;
  if (owned_ == nullptr) return;  // Nested scope: parent trace continues.
  t_ambient.trace = nullptr;
  std::shared_ptr<const Trace> done = std::move(owned_);
  Tracer& tracer = Tracer::Instance();
  tracer.MaybeLogSlowTrace(*done);
  tracer.Publish(std::move(done));
}

uint64_t TraceScope::trace_id() const {
  return trace_ == nullptr ? 0 : trace_->id();
}

void TraceScope::Annotate(const char* key, const std::string& value) {
  if (trace_ != nullptr) trace_->Annotate(index_, key, JsonValue(value));
}
void TraceScope::Annotate(const char* key, int64_t value) {
  if (trace_ != nullptr) trace_->Annotate(index_, key, JsonValue(value));
}
void TraceScope::Annotate(const char* key, uint64_t value) {
  if (trace_ != nullptr) trace_->Annotate(index_, key, JsonValue(value));
}

// ---------------------------------------------------------------------------
// TraceHandoff

TraceHandoff::TraceHandoff()
    : parent_trace_(t_ambient.trace), parent_span_(t_ambient.span) {}

TraceHandoff::Adopt::Adopt(TraceHandoff& handoff) {
  if (!handoff.active()) return;
  handoff_ = &handoff;
  saved_ = t_ambient;
  // The child trace shares the parent's id (it is the same logical trace)
  // but carries no IoStats pointer: the stats object is process-wide, so a
  // per-worker delta would mostly measure the other workers.
  local_ = std::make_unique<Trace>(handoff.parent_trace_->id(), nullptr);
  t_ambient.trace = local_.get();
  t_ambient.span = -1;
}

TraceHandoff::Adopt::~Adopt() {
  if (handoff_ == nullptr) return;
  t_ambient = saved_;
  if (local_->spans().empty()) return;
  // Workers may close their Adopt scopes concurrently; the coordinator is
  // blocked joining them, so the parent trace itself is quiescent and the
  // mutex only has to serialize the splices against each other.
  MutexLock lock(handoff_->splice_mu_);
  handoff_->parent_trace_->SpliceChild(*local_, handoff_->parent_span_);
}

// ---------------------------------------------------------------------------
// Tracer

Tracer& Tracer::Instance() {
  static Tracer* tracer = [] {
    // ct-lint: allow(no-naked-new)
    Tracer* t = new Tracer(kDefaultCapacity);  // Intentionally leaked singleton.
    const char* enable = std::getenv("CUBETREE_TRACE");
    if (enable != nullptr && std::strcmp(enable, "0") != 0 &&
        enable[0] != '\0') {
      t->Enable(true);
    }
    // Unset reads as UINT64_MAX; a threshold past INT64_MAX could never
    // fire either.
    const uint64_t slow_us = EnvUint64("CUBETREE_SLOW_QUERY_US", UINT64_MAX);
    if (slow_us <= static_cast<uint64_t>(INT64_MAX)) {
      t->SetSlowTraceThresholdMicros(static_cast<int64_t>(slow_us));
      t->Enable(true);  // A slow-query log needs traces to log.
    }
    const char* slow_path = std::getenv("CUBETREE_SLOW_QUERY_PATH");
    if (slow_path != nullptr && slow_path[0] != '\0') {
      t->SetSlowTraceFile(slow_path);
    }
    return t;
  }();
  return *tracer;
}

Tracer::Tracer(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), slots_(capacity_) {}

// Out of line so trace.h needs only RotatingFile's forward declaration.
Tracer::~Tracer() = default;

void Tracer::Publish(std::shared_ptr<const Trace> trace) {
  MutexLock lock(ring_mu_);
  slots_[next_slot_++ % capacity_] = std::move(trace);
}

std::shared_ptr<const Trace> Tracer::LastTrace() const {
  MutexLock lock(ring_mu_);
  if (next_slot_ == 0) return nullptr;
  return slots_[(next_slot_ - 1) % capacity_];
}

std::vector<std::shared_ptr<const Trace>> Tracer::AllTraces() const {
  MutexLock lock(ring_mu_);
  const uint64_t count = next_slot_ < capacity_ ? next_slot_ : capacity_;
  std::vector<std::shared_ptr<const Trace>> out;
  out.reserve(count);
  // Oldest resident lives at next_slot_ % capacity_ once the ring wrapped.
  const uint64_t first = next_slot_ < capacity_ ? 0 : next_slot_ - count;
  for (uint64_t i = 0; i < count; ++i) {
    const auto& trace = slots_[(first + i) % capacity_];
    if (trace != nullptr) out.push_back(trace);
  }
  return out;
}

void Tracer::Clear() {
  MutexLock lock(ring_mu_);
  for (auto& slot : slots_) slot = nullptr;
  next_slot_ = 0;
}

JsonValue Tracer::ChromeTraceJson(
    const std::vector<std::shared_ptr<const Trace>>& traces) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("displayTimeUnit", JsonValue("ms"));
  JsonValue& events = doc.Set("traceEvents", JsonValue::MakeArray());
  for (const auto& trace : traces) {
    if (trace == nullptr) continue;
    const JsonValue trace_events = trace->TraceEventsJson();
    for (const JsonValue& event : trace_events.elements()) {
      events.Append(event);
    }
  }
  return doc;
}

void Tracer::SetSlowTraceSinkForTest(
    std::function<void(const std::string&)> sink) {
  MutexLock lock(sink_mu_);
  sink_ = std::move(sink);
}

void Tracer::SetSlowTraceFile(const std::string& path, uint64_t max_bytes,
                              int max_segments) {
  MutexLock lock(sink_mu_);
  if (path.empty()) {
    slow_file_.reset();
    return;
  }
  RotatingFile::Options options;
  options.path = path;
  options.max_bytes = max_bytes;
  options.max_segments = max_segments;
  slow_file_ = std::make_unique<RotatingFile>(std::move(options));
  slow_file_warned_ = false;
}

void Tracer::MaybeLogSlowTrace(const Trace& trace) {
  const int64_t threshold = slow_threshold_us_.load(std::memory_order_relaxed);
  if (threshold < 0) return;
  const uint64_t duration = trace.DurationMicros();
  if (duration < static_cast<uint64_t>(threshold)) return;

  // Rate limit: one emitter wins the CAS per interval; losers are counted
  // and reported by the next winner.
  const uint64_t now = SteadyNowMicros();
  const uint64_t interval = static_cast<uint64_t>(
      slow_interval_us_.load(std::memory_order_relaxed));
  uint64_t last = slow_last_emit_us_.load(std::memory_order_relaxed);
  for (;;) {
    if (last != 0 && now - last < interval) {
      slow_suppressed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (slow_last_emit_us_.compare_exchange_weak(last, now,
                                                 std::memory_order_relaxed)) {
      break;
    }
  }

  JsonValue line = JsonValue::MakeObject();
  line.Set("slow_trace", JsonValue(true));
  line.Set("threshold_us", JsonValue(static_cast<int64_t>(threshold)));
  const uint64_t suppressed =
      slow_suppressed_.exchange(0, std::memory_order_relaxed);
  if (suppressed != 0) line.Set("suppressed", JsonValue(suppressed));
  const JsonValue tree = trace.TreeJson();
  for (const auto& [key, value] : tree.members()) {
    line.Set(key, value);
  }
  const std::string text = line.Dump(-1);

  // Precedence: test sink, then the rotating file, then stderr. The file
  // append happens under sink_mu_ (RotatingFile is not thread-safe); slow
  // traces are rate-limited above, so the hold is rare and short.
  std::function<void(const std::string&)> sink;
  {
    MutexLock lock(sink_mu_);
    sink = sink_;
    if (!sink && slow_file_ != nullptr) {
      const Status status = slow_file_->Append(text);
      if (!status.ok() && !slow_file_warned_) {
        slow_file_warned_ = true;
        CT_LOG(Warn) << "slow-trace file sink: " << status.ToString();
      }
      return;
    }
  }
  if (sink) {
    sink(text);
  } else {
    std::fprintf(stderr, "%s\n", text.c_str());
  }
}

}  // namespace obs
}  // namespace cubetree
