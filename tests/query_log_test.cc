// Tests for the durable structured query log (src/obs/query_log): record
// JSON round-trips and strict-parse rejection, size-based rotation with
// bounded retention, torn-final-line tolerance on read, the async
// writer's flush semantics, and drop accounting under multi-writer
// pressure (run under TSan to certify the never-blocks contract).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/query_log.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

using obs::ForEachLogLine;
using obs::JsonValue;
using obs::QueryLog;
using obs::QueryLogAttr;
using obs::QueryLogReadStats;
using obs::QueryLogRecord;
using obs::RotatingFile;

QueryLogRecord MakeRecord(uint64_t latency_us = 1000) {
  QueryLogRecord record;
  record.ts_us = 1700000000000000ull;
  record.outcome = "ok";
  record.route = "exact";
  record.view = "node(partkey,suppkey)";
  record.order = {"partkey", "suppkey"};
  QueryLogAttr attr;
  attr.name = "partkey";
  attr.domain = 200;
  attr.lo = 7;
  attr.hi = 7;
  attr.bound = true;
  attr.grouped = false;
  record.attrs.push_back(attr);
  attr = QueryLogAttr();
  attr.name = "suppkey";
  attr.domain = 10;
  attr.lo = 1;
  attr.hi = 10;
  attr.grouped = true;
  record.attrs.push_back(attr);
  record.latency_us = latency_us;
  record.pages_read = 5;
  record.pool_hits = 3;
  record.points_examined = 40;
  record.rows = 10;
  record.trace_id = 99;
  return record;
}

// ---------------------------------------------------------------------------
// Record schema.

TEST(QueryLogRecordTest, JsonRoundTrip) {
  const QueryLogRecord record = MakeRecord();
  ASSERT_OK_AND_ASSIGN(QueryLogRecord back,
                       QueryLogRecord::FromJson(record.ToJson()));
  EXPECT_EQ(back.ts_us, record.ts_us);
  EXPECT_EQ(back.outcome, "ok");
  EXPECT_EQ(back.route, "exact");
  EXPECT_EQ(back.view, "node(partkey,suppkey)");
  EXPECT_EQ(back.order, record.order);
  ASSERT_EQ(back.attrs.size(), 2u);
  EXPECT_EQ(back.attrs[0].name, "partkey");
  EXPECT_EQ(back.attrs[0].domain, 200u);
  EXPECT_TRUE(back.attrs[0].bound);
  EXPECT_FALSE(back.attrs[0].grouped);
  EXPECT_EQ(back.attrs[1].lo, 1u);
  EXPECT_EQ(back.attrs[1].hi, 10u);
  EXPECT_TRUE(back.attrs[1].grouped);
  EXPECT_EQ(back.latency_us, record.latency_us);
  EXPECT_EQ(back.pages_read, 5u);
  EXPECT_EQ(back.pool_hits, 3u);
  EXPECT_EQ(back.points_examined, 40u);
  EXPECT_EQ(back.rows, 10u);
  EXPECT_EQ(back.trace_id, 99u);
}

TEST(QueryLogRecordTest, FromJsonRejectsMissingAndMistypedFields) {
  JsonValue doc = MakeRecord().ToJson();
  // `ctstat check` relies on strict parsing: dropping a required member or
  // mistyping it must be an error, not a defaulted field.
  JsonValue no_outcome = doc;
  no_outcome.Set("outcome", JsonValue());  // null, wrong type
  EXPECT_FALSE(QueryLogRecord::FromJson(no_outcome).ok());

  JsonValue bad_version = doc;
  bad_version.Set("schema_version", JsonValue(static_cast<int64_t>(999)));
  EXPECT_FALSE(QueryLogRecord::FromJson(bad_version).ok());

  // ToJson writes version 2; logs written before it stay readable, and a
  // version-1 record's one extra field is ignored.
  ASSERT_NE(doc.Find("schema_version"), nullptr);
  EXPECT_EQ(doc.Find("schema_version")->number(), 2);
  EXPECT_TRUE(QueryLogRecord::FromJson(doc).ok());
  JsonValue v1 = doc;
  v1.Set("schema_version", JsonValue(static_cast<int64_t>(1)));
  v1.Set("admission_wait_us", JsonValue(static_cast<uint64_t>(12)));
  ASSERT_OK_AND_ASSIGN(QueryLogRecord from_v1, QueryLogRecord::FromJson(v1));
  EXPECT_EQ(from_v1.latency_us, 1000u);

  EXPECT_FALSE(QueryLogRecord::FromJson(JsonValue::MakeArray()).ok());
}

// ---------------------------------------------------------------------------
// Rotation and retention.

TEST(RotatingFileTest, RotatesAtMaxBytesAndBoundsRetention) {
  const std::string dir = MakeTestDir("query_log");
  const std::string path = dir + "/log.jsonl";
  RotatingFile::Options options;
  options.path = path;
  options.max_bytes = 256;
  options.max_segments = 3;
  RotatingFile file(options);
  // ~40 bytes per line, 64 lines ≈ 10 segments' worth: enough to rotate
  // past the retention bound several times over.
  const std::string line(39, 'x');
  for (int i = 0; i < 64; ++i) ASSERT_OK(file.Append(line));
  EXPECT_GT(file.rotations(), 3u);
  EXPECT_EQ(file.bytes_written(), 64u * 40u);

  const std::vector<std::string> segments =
      RotatingFile::Segments(path, options.max_segments);
  // At most max_segments rotated files plus the active one, oldest first.
  ASSERT_LE(segments.size(), 4u);
  ASSERT_GE(segments.size(), 2u);
  EXPECT_EQ(segments.back(), path);
  EXPECT_EQ(segments[segments.size() - 2], path + ".1");
  // Nothing beyond the retention bound survives on disk.
  EXPECT_FALSE(std::filesystem::exists(path + ".4"));
  // Every segment respects the size bound (the active one may be mid-fill).
  for (const std::string& segment : segments) {
    EXPECT_LE(std::filesystem::file_size(segment), options.max_bytes);
  }
  // All surviving lines are intact.
  uint64_t lines = 0;
  for (const std::string& segment : segments) {
    ASSERT_OK(ForEachLogLine(segment, [&](const std::string& got) {
      EXPECT_EQ(got, line);
      ++lines;
    }));
  }
  // At least the three retained full segments' worth (6 lines each).
  EXPECT_GE(lines, 18u);
}

// ---------------------------------------------------------------------------
// Torn-final-line tolerance.

TEST(QueryLogReadTest, TornFinalLineIsSkippedNotAnError) {
  const std::string dir = MakeTestDir("query_log");
  const std::string path = dir + "/torn.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("first\nsecond\n{\"truncated\": tr", f);  // Crash mid-append.
  ASSERT_EQ(std::fclose(f), 0);

  std::vector<std::string> lines;
  QueryLogReadStats stats;
  ASSERT_OK(ForEachLogLine(
      path, [&](const std::string& line) { lines.push_back(line); }, &stats));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "first");
  EXPECT_EQ(lines[1], "second");
  EXPECT_EQ(stats.lines, 2u);
  EXPECT_EQ(stats.torn, 1u);
}

TEST(QueryLogReadTest, MissingFileIsAnError) {
  QueryLogReadStats stats;
  Status s = ForEachLogLine("/nonexistent/query.jsonl",
                            [](const std::string&) {}, &stats);
  EXPECT_FALSE(s.ok());
}

// ---------------------------------------------------------------------------
// Async writer.

TEST(QueryLogTest, FlushMakesAppendedRecordsDurable) {
  const std::string dir = MakeTestDir("query_log");
  QueryLog::Options options;
  options.path = dir + "/queries.jsonl";
  QueryLog log(options);
  for (int i = 0; i < 100; ++i) log.Append(MakeRecord(1000 + i));
  log.Flush();
  EXPECT_EQ(log.dropped(), 0u);

  uint64_t lines = 0;
  ASSERT_OK(ForEachLogLine(options.path, [&](const std::string& line) {
    ASSERT_OK_AND_ASSIGN(JsonValue doc, JsonValue::Parse(line));
    ASSERT_OK_AND_ASSIGN(QueryLogRecord record, QueryLogRecord::FromJson(doc));
    EXPECT_EQ(record.outcome, "ok");
    ++lines;
  }));
  EXPECT_EQ(lines, 100u);
}

TEST(QueryLogTest, DestructorDrainsQueue) {
  const std::string dir = MakeTestDir("query_log");
  const std::string path = dir + "/drain.jsonl";
  {
    QueryLog::Options options;
    options.path = path;
    QueryLog log(options);
    for (int i = 0; i < 50; ++i) log.Append(MakeRecord());
    // No Flush: destruction must drain.
  }
  uint64_t lines = 0;
  ASSERT_OK(ForEachLogLine(path, [&](const std::string&) { ++lines; }));
  EXPECT_EQ(lines, 50u);
}

// Many writers race a deliberately tiny queue: every record must be
// accounted for as either a durable line or a counted drop — never lost,
// never double-counted. TSan certifies Append never touches the file.
TEST(QueryLogTest, MultiWriterDropAccountingUnderPressure) {
  const std::string dir = MakeTestDir("query_log");
  QueryLog::Options options;
  options.path = dir + "/pressure.jsonl";
  options.queue_capacity = 16;  // Force drops.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  uint64_t dropped = 0;
  {
    QueryLog log(options);
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&log] {
        for (int i = 0; i < kPerThread; ++i) log.Append(MakeRecord());
      });
    }
    for (std::thread& w : writers) w.join();
    log.Flush();
    dropped = log.dropped();
  }
  uint64_t lines = 0;
  for (const std::string& segment : QueryLog::Segments(options.path)) {
    ASSERT_OK(ForEachLogLine(segment, [&](const std::string& line) {
      ASSERT_OK_AND_ASSIGN(JsonValue doc, JsonValue::Parse(line));
      EXPECT_OK(QueryLogRecord::FromJson(doc).status());
      ++lines;
    }));
  }
  EXPECT_EQ(lines + dropped,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GT(lines, 0u);
}

TEST(QueryLogTest, SegmentsListsRotatedLogOldestFirst) {
  const std::string dir = MakeTestDir("query_log");
  QueryLog::Options options;
  options.path = dir + "/rotate.jsonl";
  options.max_bytes = 2048;  // A record is ~450 bytes: rotates quickly.
  options.max_segments = 2;
  {
    QueryLog log(options);
    for (int i = 0; i < 64; ++i) log.Append(MakeRecord());
    log.Flush();
  }
  const std::vector<std::string> segments = QueryLog::Segments(options.path);
  ASSERT_GE(segments.size(), 2u);
  ASSERT_LE(segments.size(), 3u);  // max_segments rotated + active.
  EXPECT_EQ(segments.back(), options.path);
  // Records in rotated segments still parse.
  uint64_t lines = 0;
  for (const std::string& segment : segments) {
    ASSERT_OK(ForEachLogLine(segment, [&](const std::string& line) {
      ASSERT_OK_AND_ASSIGN(JsonValue doc, JsonValue::Parse(line));
      EXPECT_OK(QueryLogRecord::FromJson(doc).status());
      ++lines;
    }));
  }
  EXPECT_GT(lines, 4u);
}

TEST(QueryLogTest, DefaultIsNullWithoutEnv) {
  // The tier-1 suite runs without CUBETREE_QUERY_LOG, so the disabled
  // fast path — a null Default() — is what every engine query takes.
  if (std::getenv("CUBETREE_QUERY_LOG") == nullptr) {
    EXPECT_EQ(QueryLog::Default(), nullptr);
  }
  QueryLog::Options options;
  options.path = MakeTestDir("query_log") + "/override.jsonl";
  QueryLog log(options);
  QueryLog::SetDefaultForTest(&log);
  EXPECT_EQ(QueryLog::Default(), &log);
  QueryLog::SetDefaultForTest(nullptr);
}

}  // namespace
}  // namespace cubetree
