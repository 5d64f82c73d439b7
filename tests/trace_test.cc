// Tests for the tracing subsystem (src/obs/trace): span-tree shape,
// annotation round-trips through JSON, the completed-trace ring
// (wraparound + eviction), the Chrome trace-event export schema, the
// disabled-tracer no-op guarantee, per-span IoStats deltas, storage
// attribution hooks, the slow-trace log with its rate limiter, and
// trace-id propagation into QueryContext.
//
// TraceScope always publishes to the process-wide Tracer::Instance(), so
// the fixture arms it per test and restores the disabled default after,
// keeping the singleton invisible to the rest of the suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/query_context.h"
#include "obs/json.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "storage/io_stats.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

using obs::JsonValue;
using obs::Span;
using obs::Trace;
using obs::Tracer;
using obs::TraceScope;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Instance().Clear();
    Tracer::Instance().Enable(true);
  }
  void TearDown() override {
    Tracer::Instance().SetSlowTraceThresholdMicros(-1);
    Tracer::Instance().SetSlowTraceSinkForTest(nullptr);
    Tracer::Instance().SetSlowTraceFile("");
    Tracer::Instance().Enable(false);
    Tracer::Instance().Clear();
  }
};

// ---------------------------------------------------------------------------
// Span-tree shape.

TEST_F(TraceTest, SpanTreeShape) {
  {
    TraceScope root("query");
    ASSERT_TRUE(root.active());
    {
      Span a("route");
      ASSERT_TRUE(a.active());
      { Span a1("estimate"); }
    }
    { Span b("search"); }
  }
  auto trace = Tracer::Instance().LastTrace();
  ASSERT_NE(trace, nullptr);
  const auto& spans = trace->spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "query");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "route");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].name, "estimate");
  EXPECT_EQ(spans[2].parent, 1);  // Innermost-open span was "route".
  EXPECT_EQ(spans[3].name, "search");
  EXPECT_EQ(spans[3].parent, 0);  // "route" had closed again.
  for (const auto& span : spans) {
    EXPECT_GE(span.end_ns, span.start_ns) << span.name;
  }
  EXPECT_EQ(trace->name(), "query");
}

TEST_F(TraceTest, NestedTraceScopeBecomesChildSpan) {
  // A TraceScope opened while another trace is ambient (a query inside a
  // traced refresh, or the engine inside ctsql's scope) must not start a
  // competing trace.
  {
    TraceScope outer("refresh");
    const uint64_t outer_id = outer.trace_id();
    {
      TraceScope inner("query");
      EXPECT_TRUE(inner.active());
      EXPECT_EQ(inner.trace_id(), outer_id);
    }
    // Inner scope must not have published or torn down the ambient trace.
    EXPECT_EQ(Tracer::Instance().LastTrace(), nullptr);
    EXPECT_NE(obs::CurrentTrace(), nullptr);
  }
  auto trace = Tracer::Instance().LastTrace();
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->spans().size(), 2u);
  EXPECT_EQ(trace->spans()[1].name, "query");
  EXPECT_EQ(trace->spans()[1].parent, 0);
}

// ---------------------------------------------------------------------------
// Annotations round-trip through the JSON exports.

TEST_F(TraceTest, AnnotationRoundTrip) {
  {
    TraceScope root("query");
    root.Annotate("engine", std::string("cubetree"));
    Span span("route");
    span.Annotate("view", "partkey,suppkey");
    span.Annotate("estimated_cost", 12.5);
    span.Annotate("tuples", static_cast<uint64_t>(42));
  }
  auto trace = Tracer::Instance().LastTrace();
  ASSERT_NE(trace, nullptr);

  // Re-parse the dumped tree so the assertion covers serialization too.
  ASSERT_OK_AND_ASSIGN(JsonValue tree,
                       JsonValue::Parse(trace->TreeJson().Dump()));
  const JsonValue* root = tree.Find("root");
  ASSERT_NE(root, nullptr);
  const JsonValue* root_ann = root->Find("annotations");
  ASSERT_NE(root_ann, nullptr);
  ASSERT_NE(root_ann->Find("engine"), nullptr);
  EXPECT_EQ(root_ann->Find("engine")->str(), "cubetree");

  const JsonValue* children = root->Find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->elements().size(), 1u);
  const JsonValue* ann = children->elements()[0].Find("annotations");
  ASSERT_NE(ann, nullptr);
  EXPECT_EQ(ann->Find("view")->str(), "partkey,suppkey");
  EXPECT_EQ(ann->Find("estimated_cost")->number(), 12.5);
  EXPECT_EQ(ann->Find("tuples")->number(), 42);
}

// ---------------------------------------------------------------------------
// Ring buffer wraparound and eviction.

TEST_F(TraceTest, RingKeepsNewestAndEvictsOldest) {
  Tracer ring(4);
  for (uint64_t i = 1; i <= 6; ++i) {
    auto trace = std::make_shared<Trace>(i, nullptr);
    const int32_t s = trace->OpenSpan("t", -1);
    trace->CloseSpan(s);
    ring.Publish(std::move(trace));
  }
  auto all = ring.AllTraces();
  ASSERT_EQ(all.size(), 4u);
  // Oldest first: 1 and 2 were evicted.
  EXPECT_EQ(all[0]->id(), 3u);
  EXPECT_EQ(all[1]->id(), 4u);
  EXPECT_EQ(all[2]->id(), 5u);
  EXPECT_EQ(all[3]->id(), 6u);
  ASSERT_NE(ring.LastTrace(), nullptr);
  EXPECT_EQ(ring.LastTrace()->id(), 6u);

  ring.Clear();
  EXPECT_EQ(ring.LastTrace(), nullptr);
  EXPECT_TRUE(ring.AllTraces().empty());
}

TEST_F(TraceTest, RingBelowCapacityKeepsEverythingInOrder) {
  Tracer ring(8);
  for (uint64_t i = 1; i <= 3; ++i) {
    ring.Publish(std::make_shared<Trace>(i, nullptr));
  }
  auto all = ring.AllTraces();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all.front()->id(), 1u);
  EXPECT_EQ(all.back()->id(), 3u);
}

// ---------------------------------------------------------------------------
// Chrome trace-event export schema (golden test: parse the dump back and
// check the envelope plus every required per-event key).

TEST_F(TraceTest, ChromeTraceJsonSchema) {
  {
    TraceScope root("query");
    Span span("rtree.descent");
    span.Annotate("candidate_leaves", static_cast<uint64_t>(7));
  }
  {
    TraceScope root("refresh");
  }
  ASSERT_OK_AND_ASSIGN(
      JsonValue doc,
      JsonValue::Parse(Tracer::Instance().ExportAllJson().Dump(2)));
  ASSERT_TRUE(doc.is_object());
  const JsonValue* unit = doc.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str(), "ms");
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->elements().size(), 3u);  // query + descent + refresh.

  for (const JsonValue& event : events->elements()) {
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      ASSERT_NE(event.Find(key), nullptr) << "missing key " << key;
    }
    EXPECT_EQ(event.Find("cat")->str(), "cubetree");
    EXPECT_EQ(event.Find("ph")->str(), "X");
    EXPECT_EQ(event.Find("pid")->number(), 1);
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    // Each event's tid is its trace id, giving one track per trace.
    EXPECT_EQ(event.Find("tid")->number(), args->Find("trace_id")->number());
  }
  // The two traces land on distinct tracks.
  EXPECT_NE(events->elements()[0].Find("tid")->number(),
            events->elements()[2].Find("tid")->number());
  // Span annotations surface in args.
  const JsonValue* descent_args = events->elements()[1].Find("args");
  ASSERT_NE(descent_args->Find("candidate_leaves"), nullptr);
  EXPECT_EQ(descent_args->Find("candidate_leaves")->number(), 7);
}

// ---------------------------------------------------------------------------
// Disabled tracer: everything is an inert no-op.

TEST_F(TraceTest, DisabledTracerIsNoOp) {
  Tracer::Instance().Enable(false);
  {
    TraceScope root("query");
    EXPECT_FALSE(root.active());
    EXPECT_EQ(root.trace_id(), 0u);
    Span span("route");
    EXPECT_FALSE(span.active());
    span.Annotate("view", "ignored");
    EXPECT_EQ(obs::CurrentTrace(), nullptr);
    obs::NotePageRead();  // Must not crash with no ambient trace.
    obs::NotePoolHit();
  }
  EXPECT_EQ(Tracer::Instance().LastTrace(), nullptr);
}

TEST_F(TraceTest, PlainSpanWithoutAmbientTraceIsNoOp) {
  // Instrumentation points fire all over the storage layer; without an
  // enclosing TraceScope they must record nothing even while the tracer
  // itself is enabled.
  {
    Span span("rtree.descent");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(Tracer::Instance().LastTrace(), nullptr);
}

// ---------------------------------------------------------------------------
// Storage attribution: NotePageRead / NotePoolHit bump the innermost span.

TEST_F(TraceTest, AttributionHooksBumpInnermostSpan) {
  {
    TraceScope root("query");
    obs::NotePageRead();  // Attributed to the root span.
    {
      Span scan("scan");
      obs::NotePageRead();
      obs::NotePageRead();
      obs::NotePoolHit();
    }
    obs::NotePoolHit();  // Back on the root span.
  }
  auto trace = Tracer::Instance().LastTrace();
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->spans().size(), 2u);
  EXPECT_EQ(trace->spans()[0].pages_read, 1u);
  EXPECT_EQ(trace->spans()[0].pool_hits, 1u);
  EXPECT_EQ(trace->spans()[1].pages_read, 2u);
  EXPECT_EQ(trace->spans()[1].pool_hits, 1u);
}

// A worker that adopts a trace may read before it opens a span of its own,
// as the cube builder's view tasks read their parents' spools: those reads
// count toward the span the handoff was made under, and the worker's own
// spans keep theirs.
TEST_F(TraceTest, AdoptedReadsOutsideAnySpanCountTowardTheHandoffSpan) {
  {
    TraceScope root("refresh");
    Span sort("refresh.sort");
    obs::TraceHandoff handoff;
    std::thread worker([&handoff] {
      obs::TraceHandoff::Adopt adopt(handoff);
      obs::NotePageRead();
      obs::NotePageRead();
      obs::NotePoolHit();
      Span spill("sort.spill");
      obs::NotePageRead();
    });
    worker.join();
    obs::NotePageRead();
  }
  auto trace = Tracer::Instance().LastTrace();
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->spans().size(), 3u);
  const obs::SpanRecord& root = trace->spans()[0];
  const obs::SpanRecord& sort = trace->spans()[1];
  const obs::SpanRecord& spill = trace->spans()[2];
  EXPECT_EQ(root.pages_read, 0u);
  EXPECT_EQ(sort.name, "refresh.sort");
  EXPECT_EQ(sort.pages_read, 3u);
  EXPECT_EQ(sort.pool_hits, 1u);
  EXPECT_EQ(spill.name, "sort.spill");
  EXPECT_EQ(spill.parent, 1);
  EXPECT_EQ(spill.pages_read, 1u);
  EXPECT_EQ(spill.pool_hits, 0u);
}

// ---------------------------------------------------------------------------
// Per-span IoStats deltas.

TEST_F(TraceTest, PerSpanIoStatsDelta) {
  IoStats io;
  io.sequential_reads += 100;  // Pre-existing activity must not leak in.
  {
    TraceScope root("refresh", &io);
    {
      Span sort("refresh.sort");
      io.sequential_writes += 5;
      io.random_reads += 2;
    }
    {
      Span pack("refresh.merge_pack");
      io.sequential_writes += 7;
    }
  }
  auto trace = Tracer::Instance().LastTrace();
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->spans().size(), 3u);
  const IoStats& root_io = trace->spans()[0].io;
  EXPECT_EQ(root_io.sequential_reads.load(), 0u);
  EXPECT_EQ(root_io.sequential_writes.load(), 12u);
  EXPECT_EQ(root_io.random_reads.load(), 2u);
  const IoStats& sort_io = trace->spans()[1].io;
  EXPECT_EQ(sort_io.sequential_writes.load(), 5u);
  EXPECT_EQ(sort_io.random_reads.load(), 2u);
  const IoStats& pack_io = trace->spans()[2].io;
  EXPECT_EQ(pack_io.sequential_writes.load(), 7u);
  EXPECT_EQ(pack_io.random_reads.load(), 0u);
}

// ---------------------------------------------------------------------------
// Trace-id propagation into QueryContext.

TEST_F(TraceTest, TraceIdReachesQueryContext) {
  QueryContext ctx;
  EXPECT_EQ(ctx.trace_id(), 0u);
  uint64_t id = 0;
  {
    TraceScope trace("query");
    ASSERT_TRUE(trace.active());
    id = trace.trace_id();
    ASSERT_NE(id, 0u);
    ctx.set_trace_id(id);  // What CubetreeEngine::Execute does.
  }
  EXPECT_EQ(ctx.trace_id(), id);
  auto trace = Tracer::Instance().LastTrace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->id(), id);
}

// ---------------------------------------------------------------------------
// Slow-trace log: threshold, payload, rate limiting with suppression
// accounting.

TEST_F(TraceTest, SlowTraceLogEmitsFullSpanTree) {
  Tracer& tracer = Tracer::Instance();
  std::vector<std::string> lines;
  tracer.SetSlowTraceSinkForTest(
      [&lines](const std::string& line) { lines.push_back(line); });
  tracer.SetSlowTraceThresholdMicros(0);  // Every trace qualifies.
  tracer.SetSlowTraceLogIntervalMillis(0);

  {
    TraceScope root("query");
    Span span("scan");
  }
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_OK_AND_ASSIGN(JsonValue line, JsonValue::Parse(lines[0]));
  EXPECT_TRUE(line.Find("slow_trace")->boolean());
  EXPECT_EQ(line.Find("threshold_us")->number(), 0);
  EXPECT_EQ(line.Find("name")->str(), "query");
  const JsonValue* root = line.Find("root");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(root->Find("children"), nullptr);
  EXPECT_EQ(root->Find("children")->elements()[0].Find("name")->str(),
            "scan");
}

TEST_F(TraceTest, SlowTraceThresholdFilters) {
  Tracer& tracer = Tracer::Instance();
  std::vector<std::string> lines;
  tracer.SetSlowTraceSinkForTest(
      [&lines](const std::string& line) { lines.push_back(line); });
  // An hour-long threshold: nothing in this test is that slow.
  tracer.SetSlowTraceThresholdMicros(3600LL * 1000 * 1000);
  { TraceScope root("query"); }
  EXPECT_TRUE(lines.empty());
  // Negative threshold disables entirely.
  tracer.SetSlowTraceThresholdMicros(-1);
  { TraceScope root("query"); }
  EXPECT_TRUE(lines.empty());
}

TEST_F(TraceTest, SlowTraceRateLimitSuppressesAndReports) {
  Tracer& tracer = Tracer::Instance();
  std::vector<std::string> lines;
  tracer.SetSlowTraceSinkForTest(
      [&lines](const std::string& line) { lines.push_back(line); });
  tracer.SetSlowTraceThresholdMicros(0);
  // A huge interval: only the first trace within it gets a line.
  tracer.SetSlowTraceLogIntervalMillis(3600LL * 1000);

  { TraceScope root("q1"); }
  { TraceScope root("q2"); }
  { TraceScope root("q3"); }
  ASSERT_EQ(lines.size(), 1u);

  // Dropping the interval lets the next slow trace through, and its line
  // accounts for the two suppressed ones.
  tracer.SetSlowTraceLogIntervalMillis(0);
  { TraceScope root("q4"); }
  ASSERT_EQ(lines.size(), 2u);
  ASSERT_OK_AND_ASSIGN(JsonValue line, JsonValue::Parse(lines[1]));
  ASSERT_NE(line.Find("suppressed"), nullptr);
  EXPECT_EQ(line.Find("suppressed")->number(), 2);
}

// The CUBETREE_SLOW_QUERY_PATH file sink: slow-trace lines append to a
// rotating file instead of stderr, surviving rotation with the
// suppressed-count carryover intact.
TEST_F(TraceTest, SlowTraceFileSinkWritesRotatingFile) {
  const std::string dir = MakeTestDir("trace");
  const std::string path = dir + "/slow.jsonl";
  Tracer& tracer = Tracer::Instance();
  tracer.SetSlowTraceSinkForTest(nullptr);  // File sink must be used.
  tracer.SetSlowTraceFile(path, /*max_bytes=*/1024, /*max_segments=*/2);
  tracer.SetSlowTraceThresholdMicros(0);
  tracer.SetSlowTraceLogIntervalMillis(0);

  for (int i = 0; i < 16; ++i) {
    TraceScope root("slow_query");
    Span span("scan");
  }
  tracer.SetSlowTraceFile("");  // Detach (closes the file).
  tracer.SetSlowTraceThresholdMicros(-1);

  // Lines rotated across segments; each parses and carries the payload.
  uint64_t lines = 0;
  uint64_t segments = 0;
  for (const std::string& segment :
       obs::RotatingFile::Segments(path, /*max_segments=*/2)) {
    ++segments;
    ASSERT_OK(obs::ForEachLogLine(segment, [&](const std::string& text) {
      ASSERT_OK_AND_ASSIGN(JsonValue line, JsonValue::Parse(text));
      EXPECT_TRUE(line.Find("slow_trace")->boolean());
      EXPECT_EQ(line.Find("name")->str(), "slow_query");
      ++lines;
    }));
  }
  EXPECT_GE(segments, 2u);  // ~500-byte lines against a 1 KiB bound rotate.
  EXPECT_GT(lines, 2u);
  EXPECT_LE(lines, 16u);
}

// Rate-limit suppression accounting carries over into the file sink: the
// first line after a suppression window reports the dropped count.
TEST_F(TraceTest, SlowTraceFileSinkKeepsSuppressedCounts) {
  const std::string dir = MakeTestDir("trace");
  const std::string path = dir + "/suppressed.jsonl";
  Tracer& tracer = Tracer::Instance();
  tracer.SetSlowTraceSinkForTest(nullptr);
  tracer.SetSlowTraceFile(path);
  tracer.SetSlowTraceThresholdMicros(0);
  tracer.SetSlowTraceLogIntervalMillis(3600LL * 1000);  // Suppress all but 1.

  { TraceScope root("q1"); }
  { TraceScope root("q2"); }
  { TraceScope root("q3"); }
  tracer.SetSlowTraceLogIntervalMillis(0);
  { TraceScope root("q4"); }  // Reports the two suppressed.
  tracer.SetSlowTraceFile("");
  tracer.SetSlowTraceThresholdMicros(-1);

  std::vector<std::string> lines;
  ASSERT_OK(obs::ForEachLogLine(
      path, [&](const std::string& text) { lines.push_back(text); }));
  ASSERT_EQ(lines.size(), 2u);
  ASSERT_OK_AND_ASSIGN(JsonValue last, JsonValue::Parse(lines[1]));
  ASSERT_NE(last.Find("suppressed"), nullptr);
  EXPECT_EQ(last.Find("suppressed")->number(), 2);
}

// ---------------------------------------------------------------------------
// DebugString (the \trace rendering) shows the indented tree.

TEST_F(TraceTest, DebugStringShowsTree) {
  {
    TraceScope root("query");
    Span span("search");
    span.Annotate("plan", "slice");
  }
  auto trace = Tracer::Instance().LastTrace();
  ASSERT_NE(trace, nullptr);
  const std::string text = trace->DebugString();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("  search"), std::string::npos);  // Indented child.
  EXPECT_NE(text.find("plan=slice"), std::string::npos);
}

}  // namespace
}  // namespace cubetree
