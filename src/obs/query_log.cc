#include "obs/query_log.h"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"

namespace cubetree {
namespace obs {

namespace {

struct QueryLogMetrics {
  Counter* records;
  Counter* dropped;
  Counter* rotations;
  Counter* bytes_written;
  Counter* write_errors;

  static const QueryLogMetrics& Get() {
    static const QueryLogMetrics m = [] {
      auto& reg = MetricsRegistry::Instance();
      return QueryLogMetrics{reg.GetCounter("query_log.records"),
                             reg.GetCounter("query_log.dropped"),
                             reg.GetCounter("query_log.rotations"),
                             reg.GetCounter("query_log.bytes_written"),
                             reg.GetCounter("query_log.write_errors")};
    }();
    return m;
  }
};

std::string SegmentName(const std::string& path, int n) {
  return path + "." + std::to_string(n);
}

const JsonValue* RequireMember(const JsonValue& doc, const char* key,
                               JsonValue::Type type, Status* status) {
  const JsonValue* member = doc.Find(key);
  if (member == nullptr || member->type() != type) {
    *status = Status::InvalidArgument(
        std::string("query log record: missing or mistyped field '") + key +
        "'");
    return nullptr;
  }
  return member;
}

uint64_t AsU64(const JsonValue& v) {
  return v.number() < 0 ? 0 : static_cast<uint64_t>(v.number());
}

}  // namespace

// ---------------------------------------------------------------------------
// QueryLogRecord

JsonValue QueryLogRecord::ToJson() const {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("schema_version", JsonValue(kSchemaVersion));
  doc.Set("ts_us", JsonValue(ts_us));
  doc.Set("outcome", JsonValue(outcome));
  doc.Set("route", JsonValue(route));
  doc.Set("view", JsonValue(view));
  JsonValue& order_arr = doc.Set("order", JsonValue::MakeArray());
  for (const std::string& attr : order) order_arr.Append(JsonValue(attr));
  JsonValue& attrs_arr = doc.Set("attrs", JsonValue::MakeArray());
  for (const QueryLogAttr& attr : attrs) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("name", JsonValue(attr.name));
    entry.Set("domain", JsonValue(attr.domain));
    entry.Set("lo", JsonValue(attr.lo));
    entry.Set("hi", JsonValue(attr.hi));
    entry.Set("bound", JsonValue(attr.bound));
    entry.Set("grouped", JsonValue(attr.grouped));
    attrs_arr.Append(std::move(entry));
  }
  doc.Set("latency_us", JsonValue(latency_us));
  doc.Set("pages_read", JsonValue(pages_read));
  doc.Set("pool_hits", JsonValue(pool_hits));
  doc.Set("points_examined", JsonValue(points_examined));
  doc.Set("rows", JsonValue(rows));
  if (trace_id != 0) doc.Set("trace_id", JsonValue(trace_id));
  return doc;
}

Result<QueryLogRecord> QueryLogRecord::FromJson(const JsonValue& doc) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("query log record: not a JSON object");
  }
  Status bad = Status::OK();
  const JsonValue* version =
      RequireMember(doc, "schema_version", JsonValue::Type::kNumber, &bad);
  if (version == nullptr) return bad;
  // Compared as a double: casting an arbitrary JSON number to an integer
  // first would be undefined for values out of range.
  const double schema_version = version->number();
  if (schema_version != 1 && schema_version != kSchemaVersion) {
    return Status::InvalidArgument(
        "query log record: unknown schema_version " + version->Dump(-1));
  }
  QueryLogRecord rec;
  struct U64Field {
    const char* key;
    uint64_t* dst;
  };
  const U64Field u64_fields[] = {
      {"ts_us", &rec.ts_us},
      {"latency_us", &rec.latency_us},
      {"pages_read", &rec.pages_read},
      {"pool_hits", &rec.pool_hits},
      {"points_examined", &rec.points_examined},
      {"rows", &rec.rows},
  };
  for (const U64Field& field : u64_fields) {
    const JsonValue* v =
        RequireMember(doc, field.key, JsonValue::Type::kNumber, &bad);
    if (v == nullptr) return bad;
    *field.dst = AsU64(*v);
  }
  struct StrField {
    const char* key;
    std::string* dst;
  };
  const StrField str_fields[] = {
      {"outcome", &rec.outcome}, {"route", &rec.route}, {"view", &rec.view}};
  for (const StrField& field : str_fields) {
    const JsonValue* v =
        RequireMember(doc, field.key, JsonValue::Type::kString, &bad);
    if (v == nullptr) return bad;
    *field.dst = v->str();
  }
  const JsonValue* order =
      RequireMember(doc, "order", JsonValue::Type::kArray, &bad);
  if (order == nullptr) return bad;
  for (const JsonValue& entry : order->elements()) {
    if (!entry.is_string()) {
      return Status::InvalidArgument(
          "query log record: non-string entry in 'order'");
    }
    rec.order.push_back(entry.str());
  }
  const JsonValue* attrs =
      RequireMember(doc, "attrs", JsonValue::Type::kArray, &bad);
  if (attrs == nullptr) return bad;
  for (const JsonValue& entry : attrs->elements()) {
    if (!entry.is_object()) {
      return Status::InvalidArgument(
          "query log record: non-object entry in 'attrs'");
    }
    QueryLogAttr attr;
    const JsonValue* name =
        RequireMember(entry, "name", JsonValue::Type::kString, &bad);
    if (name == nullptr) return bad;
    attr.name = name->str();
    const U64Field attr_u64[] = {{"domain", &attr.domain},
                                 {"lo", &attr.lo},
                                 {"hi", &attr.hi}};
    for (const U64Field& field : attr_u64) {
      const JsonValue* v =
          RequireMember(entry, field.key, JsonValue::Type::kNumber, &bad);
      if (v == nullptr) return bad;
      *field.dst = AsU64(*v);
    }
    const JsonValue* bound =
        RequireMember(entry, "bound", JsonValue::Type::kBool, &bad);
    if (bound == nullptr) return bad;
    attr.bound = bound->boolean();
    const JsonValue* grouped =
        RequireMember(entry, "grouped", JsonValue::Type::kBool, &bad);
    if (grouped == nullptr) return bad;
    attr.grouped = grouped->boolean();
    rec.attrs.push_back(std::move(attr));
  }
  if (const JsonValue* trace = doc.Find("trace_id");
      trace != nullptr && trace->is_number()) {
    rec.trace_id = AsU64(*trace);
  }
  return rec;
}

// ---------------------------------------------------------------------------
// RotatingFile

RotatingFile::~RotatingFile() {
  if (file_ != nullptr) std::fclose(file_);
}

Status RotatingFile::EnsureOpen() {
  if (file_ != nullptr) return Status::OK();
  file_ = std::fopen(options_.path.c_str(), "a");
  if (file_ == nullptr) {
    return Status::IOError("query log: cannot open " + options_.path + ": " +
                           std::strerror(errno));
  }
  // Appending to a survivor from a previous run: resume its size so the
  // rotation threshold covers the whole segment, not just this process's
  // contribution.
  const long pos = std::ftell(file_);
  size_ = pos < 0 ? 0 : static_cast<uint64_t>(pos);
  return Status::OK();
}

Status RotatingFile::Rotate() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  std::error_code ec;
  // Drop the segment rotating past the retention bound, then shift the
  // survivors up one slot and move the active file into `.1`.
  std::filesystem::remove(SegmentName(options_.path, options_.max_segments),
                          ec);
  for (int n = options_.max_segments; n > 1; --n) {
    std::error_code shift_ec;
    CT_FAULT("obs.querylog.rotate");
    std::filesystem::rename(SegmentName(options_.path, n - 1),
                            SegmentName(options_.path, n), shift_ec);
    // Missing source segments are normal until the log has wrapped
    // max_segments times; only the final active-file rename must succeed.
  }
  std::error_code active_ec;
  CT_FAULT("obs.querylog.rotate");
  std::filesystem::rename(options_.path, SegmentName(options_.path, 1),
                          active_ec);
  if (active_ec) {
    return Status::IOError("query log: rotate " + options_.path + ": " +
                           active_ec.message());
  }
  ++rotations_;
  size_ = 0;
  return Status::OK();
}

Status RotatingFile::Append(const std::string& line) {
  const uint64_t incoming = line.size() + 1;
  if (size_ != 0 && size_ + incoming > options_.max_bytes) {
    CT_RETURN_NOT_OK(Rotate());
  }
  CT_RETURN_NOT_OK(EnsureOpen());
  const bool ok =
      std::fwrite(line.data(), 1, line.size(), file_) == line.size() &&
      std::fputc('\n', file_) != EOF && std::fflush(file_) == 0;
  if (!ok) {
    return Status::IOError("query log: write to " + options_.path + ": " +
                           std::strerror(errno));
  }
  size_ += incoming;
  bytes_written_ += incoming;
  return Status::OK();
}

std::vector<std::string> RotatingFile::Segments(const std::string& path,
                                                int max_segments) {
  std::vector<std::string> out;
  for (int n = max_segments; n >= 1; --n) {
    const std::string segment = SegmentName(path, n);
    std::error_code ec;
    if (std::filesystem::exists(segment, ec)) out.push_back(segment);
  }
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) out.push_back(path);
  return out;
}

// ---------------------------------------------------------------------------
// QueryLog

QueryLog::QueryLog(Options options)
    : options_(options),
      file_(RotatingFile::Options{options.path, options.max_bytes,
                                  options.max_segments}) {
  writer_ = std::thread([this] { WriterLoop(); });
}

QueryLog::~QueryLog() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  if (writer_.joinable()) writer_.join();
}

void QueryLog::Append(QueryLogRecord record) {
  {
    MutexLock lock(mu_);
    if (stop_) return;
    if (queue_.size() >= options_.queue_capacity) {
      // Never block the query path on the writer: the record is lost and
      // the loss is visible in query_log.dropped.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      QueryLogMetrics::Get().dropped->Increment();
      return;
    }
    queue_.push_back(std::move(record));
  }
  work_cv_.NotifyOne();
}

void QueryLog::Flush() {
  MutexLock lock(mu_);
  while (!queue_.empty() || writer_busy_) {
    drained_cv_.Wait(lock);
  }
}

void QueryLog::WriterLoop() {
  const QueryLogMetrics& metrics = QueryLogMetrics::Get();
  bool warned = false;
  for (;;) {
    std::vector<QueryLogRecord> batch;
    {
      MutexLock lock(mu_);
      writer_busy_ = false;
      if (queue_.empty()) {
        drained_cv_.NotifyAll();
        if (stop_) return;
        work_cv_.Wait(lock);
        continue;
      }
      batch.swap(queue_);
      writer_busy_ = true;
    }
    for (QueryLogRecord& record : batch) {
      const uint64_t rotations_before = file_.rotations();
      const uint64_t bytes_before = file_.bytes_written();
      const Status status = file_.Append(record.ToJson().Dump(-1));
      if (status.ok()) {
        metrics.records->Increment();
        metrics.bytes_written->Increment(file_.bytes_written() -
                                         bytes_before);
        metrics.rotations->Increment(file_.rotations() - rotations_before);
      } else {
        metrics.write_errors->Increment();
        if (!warned) {
          warned = true;
          CT_LOG(Warn) << "query log: " << status.ToString()
                       << " (further write errors counted in "
                          "query_log.write_errors)";
        }
      }
    }
  }
}

namespace {

// Test override for QueryLog::Default(). A separate "overridden" flag lets
// tests force the disabled state (nullptr) even when CUBETREE_QUERY_LOG is
// set in the environment.
std::atomic<bool> g_default_overridden{false};
std::atomic<QueryLog*> g_default_override{nullptr};

/// A CUBETREE_QUERY_LOG_* count in [1, max], else `fallback`: a log of
/// zero bytes or zero segments could hold no record.
uint64_t EnvCount(const char* name, uint64_t fallback, uint64_t max) {
  const uint64_t value = EnvUint64(name, fallback);
  if (value != 0 && value <= max) return value;
  CT_LOG(Warn) << name << "=" << value << " is out of range [1, " << max
               << "]; using " << fallback;
  return fallback;
}

}  // namespace

QueryLog* QueryLog::Default() {
  if (g_default_overridden.load(std::memory_order_acquire)) {
    return g_default_override.load(std::memory_order_acquire);
  }
  static QueryLog* env_log = []() -> QueryLog* {
    const char* path = std::getenv("CUBETREE_QUERY_LOG");
    if (path == nullptr || *path == '\0') return nullptr;
    Options options;
    options.path = path;
    options.max_bytes = EnvCount("CUBETREE_QUERY_LOG_MAX_BYTES",
                                 options.max_bytes, UINT64_MAX);
    options.max_segments = static_cast<int>(
        EnvCount("CUBETREE_QUERY_LOG_SEGMENTS",
                 static_cast<uint64_t>(options.max_segments), INT_MAX));
    // Function-local static (not leaked): destroyed at process exit, which
    // drains the queue so a clean exit leaves every record on disk.
    static QueryLog log(options);
    return &log;
  }();
  return env_log;
}

void QueryLog::SetDefaultForTest(QueryLog* log) {
  if (log == nullptr) {
    g_default_overridden.store(false, std::memory_order_release);
    g_default_override.store(nullptr, std::memory_order_release);
    return;
  }
  g_default_override.store(log, std::memory_order_release);
  g_default_overridden.store(true, std::memory_order_release);
}

std::vector<std::string> QueryLog::Segments(const std::string& path,
                                            int max_segments) {
  return RotatingFile::Segments(path, max_segments);
}

// ---------------------------------------------------------------------------
// ForEachLogLine

Status ForEachLogLine(const std::string& path,
                      const std::function<void(const std::string&)>& fn,
                      QueryLogReadStats* stats) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("query log: cannot open " + path + ": " +
                            std::strerror(errno));
  }
  std::string line;
  char buf[64 << 10];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    size_t start = 0;
    for (size_t i = 0; i < got; ++i) {
      if (buf[i] != '\n') continue;
      line.append(buf + start, i - start);
      start = i + 1;
      fn(line);
      if (stats != nullptr) ++stats->lines;
      line.clear();
    }
    line.append(buf + start, got - start);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IOError("query log: read " + path + ": " +
                           std::strerror(errno));
  }
  // A trailing fragment without a newline is the signature of a crash (or
  // concurrent writer) mid-append: tolerated, counted, never parsed.
  if (!line.empty() && stats != nullptr) ++stats->torn;
  return Status::OK();
}

}  // namespace obs
}  // namespace cubetree
