// Tests for the observability subsystem (src/obs): histogram bucket math
// and percentile accuracy, the metrics registry, the JSON value/parser
// pair, the strict bench flag parsers, and the golden envelope schema
// emitted by bench::JsonWriter.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

using obs::Histogram;
using obs::JsonValue;
using obs::MetricsRegistry;

// ---------------------------------------------------------------------------
// Histogram bucket math.

TEST(HistogramTest, UnitBucketsAreExact) {
  // Values below kSubBucketCount each get their own bucket, whose lower
  // bound is the value itself.
  for (uint64_t v = 0; v < static_cast<uint64_t>(Histogram::kSubBucketCount); ++v) {
    const int idx = Histogram::BucketIndex(v);
    EXPECT_EQ(idx, static_cast<int>(v));
    EXPECT_EQ(Histogram::BucketLowerBound(idx), v);
  }
}

TEST(HistogramTest, BucketBoundariesRoundTrip) {
  // For every bucket reachable from a representative value, the lower
  // bound must map back to the same bucket, and one-less-than-the-bound
  // must map to the previous bucket.
  const std::vector<uint64_t> probes = {
      16,   17,         31,      32,      33,       63,      64,
      100,  1000,       4095,    4096,    65536,    1u << 20,
      (1ull << 32) - 1, 1ull << 32,       1ull << 50,
      std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : probes) {
    const int idx = Histogram::BucketIndex(v);
    ASSERT_GE(idx, 0) << v;
    ASSERT_LT(idx, Histogram::kNumBuckets) << v;
    const uint64_t lo = Histogram::BucketLowerBound(idx);
    EXPECT_LE(lo, v) << v;
    EXPECT_EQ(Histogram::BucketIndex(lo), idx) << v;
    if (lo > 0) {
      EXPECT_EQ(Histogram::BucketIndex(lo - 1), idx - 1) << v;
    }
  }
}

TEST(HistogramTest, BucketIndexIsMonotonic) {
  int prev = -1;
  for (uint64_t v = 0; v < 100000; ++v) {
    const int idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev) << v;
    prev = idx;
  }
}

TEST(HistogramTest, BucketRelativeErrorBounded) {
  // Bucket width is at most lower_bound/16 above the unit range, so the
  // midpoint representative is within ~1/32 ≈ 6.7% of any member value.
  for (uint64_t v : {100u, 1000u, 123456u, 999999937u}) {
    const int idx = Histogram::BucketIndex(v);
    const uint64_t lo = Histogram::BucketLowerBound(idx);
    const uint64_t hi = Histogram::BucketLowerBound(idx + 1);
    EXPECT_LE(static_cast<double>(hi - lo), lo / 16.0 + 1) << v;
  }
}

// ---------------------------------------------------------------------------
// Percentiles on known distributions.

TEST(HistogramTest, ExactPercentilesInUnitRange) {
  Histogram h;
  // 1..10 once each: every value has an exact unit bucket.
  for (uint64_t v = 1; v <= 10; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 55u);
  EXPECT_EQ(h.max(), 10u);
  EXPECT_DOUBLE_EQ(h.Mean(), 5.5);
  EXPECT_EQ(h.ValueAtPercentile(0), 1u);
  EXPECT_EQ(h.ValueAtPercentile(50), 5u);
  EXPECT_EQ(h.ValueAtPercentile(100), 10u);
}

TEST(HistogramTest, PercentilesOnSkewedDistribution) {
  Histogram h;
  // 990 fast events at 100, 10 slow ones at 100000: p50/p95 must sit at
  // the fast mode, p99+ at the slow tail, each within the 6.7% bound.
  for (int i = 0; i < 990; ++i) h.Record(100);
  for (int i = 0; i < 10; ++i) h.Record(100000);
  const double p50 = static_cast<double>(h.ValueAtPercentile(50));
  const double p95 = static_cast<double>(h.ValueAtPercentile(95));
  const double p999 = static_cast<double>(h.ValueAtPercentile(99.9));
  EXPECT_NEAR(p50, 100.0, 100.0 * 0.067);
  EXPECT_NEAR(p95, 100.0, 100.0 * 0.067);
  EXPECT_NEAR(p999, 100000.0, 100000.0 * 0.067);
}

TEST(HistogramTest, PercentileOfUniformRampIsAccurate) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const double expected = p / 100.0 * 10000.0;
    const double got = static_cast<double>(h.ValueAtPercentile(p));
    EXPECT_NEAR(got, expected, expected * 0.067 + 1) << "p" << p;
  }
}

TEST(HistogramTest, EmptyAndReset) {
  Histogram h;
  EXPECT_EQ(h.ValueAtPercentile(50), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.ValueAtPercentile(99), 0u);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(MetricsRegistryTest, SameNameSamePointer) {
  auto& reg = MetricsRegistry::Instance();
  obs::Counter* a = reg.GetCounter("obs_test.same_name");
  obs::Counter* b = reg.GetCounter("obs_test.same_name");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.GetCounter("obs_test.other_name"));
}

TEST(MetricsRegistryTest, SnapshotContainsRegisteredMetrics) {
  auto& reg = MetricsRegistry::Instance();
  reg.GetCounter("obs_test.snap_counter")->Increment(3);
  reg.GetGauge("obs_test.snap_gauge")->Set(-7);
  reg.GetHistogram("obs_test.snap_hist")->Record(5);
  const JsonValue snap = reg.SnapshotJson();
  const JsonValue* counters = snap.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* c = counters->Find("obs_test.snap_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->number(), 3.0);
  const JsonValue* gauges = snap.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->Find("obs_test.snap_gauge"), nullptr);
  const JsonValue* hists = snap.Find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* h = hists->Find("obs_test.snap_hist");
  ASSERT_NE(h, nullptr);
  for (const char* key : {"count", "sum", "max", "mean", "p50", "p95",
                          "p99"}) {
    EXPECT_NE(h->Find(key), nullptr) << key;
  }
  // The text dump mentions every name.
  const std::string text = reg.DumpText();
  EXPECT_NE(text.find("obs_test.snap_counter"), std::string::npos);
  EXPECT_NE(text.find("obs_test.snap_hist"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetAllZeroesButKeepsNames) {
  auto& reg = MetricsRegistry::Instance();
  obs::Counter* c = reg.GetCounter("obs_test.reset_me");
  c->Increment(99);
  reg.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.GetCounter("obs_test.reset_me"), c);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsDoNotLoseCounts) {
  auto& reg = MetricsRegistry::Instance();
  obs::Counter* counter = reg.GetCounter("obs_test.concurrent_counter");
  obs::Histogram* hist = reg.GetHistogram("obs_test.concurrent_hist");
  counter->Reset();
  hist->Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        hist->Record(static_cast<uint64_t>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist->max(), static_cast<uint64_t>(kThreads));
}

TEST(MetricsRegistryTest, DumpPrometheusExposition) {
  auto& reg = MetricsRegistry::Instance();
  reg.GetCounter("obs_test.prom.counter")->Increment(42);
  reg.GetGauge("obs_test.prom.gauge")->Set(-3);
  Histogram* hist = reg.GetHistogram("obs_test.prom.hist");
  hist->Reset();
  hist->Record(1);
  hist->Record(1);
  hist->Record(1000);
  const std::string text = reg.DumpPrometheus();

  // Names are prefixed and sanitized; counters/gauges dump as-is.
  EXPECT_NE(text.find("# TYPE cubetree_obs_test_prom_counter counter\n"
                      "cubetree_obs_test_prom_counter 42"),
            std::string::npos);
  EXPECT_NE(text.find("cubetree_obs_test_prom_gauge -3"), std::string::npos);

  // Histograms dump the cumulative bucket series plus _sum/_count. The
  // value 1 lands in the exact unit bucket (le="1"); the series must be
  // cumulative, so the bucket containing 1000 reads 3.
  EXPECT_NE(text.find("# TYPE cubetree_obs_test_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("cubetree_obs_test_prom_hist_bucket{le=\"1\"} 2"),
            std::string::npos);
  const uint64_t le_1000 =
      Histogram::BucketLowerBound(Histogram::BucketIndex(1000) + 1) - 1;
  char expect[128];
  std::snprintf(expect, sizeof(expect),
                "cubetree_obs_test_prom_hist_bucket{le=\"%llu\"} 3",
                static_cast<unsigned long long>(le_1000));
  EXPECT_NE(text.find(expect), std::string::npos);
  EXPECT_NE(text.find("cubetree_obs_test_prom_hist_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("cubetree_obs_test_prom_hist_sum 1002"),
            std::string::npos);
  EXPECT_NE(text.find("cubetree_obs_test_prom_hist_count 3"),
            std::string::npos);
  // Only non-empty buckets are emitted: two values → three _bucket lines
  // (le=1, le around 1000, +Inf) for this histogram, not 976.
  size_t buckets = 0;
  for (size_t pos = text.find("cubetree_obs_test_prom_hist_bucket");
       pos != std::string::npos;
       pos = text.find("cubetree_obs_test_prom_hist_bucket", pos + 1)) {
    ++buckets;
  }
  EXPECT_EQ(buckets, 3u);
}

// ---------------------------------------------------------------------------
// JSON value + parser.

TEST(JsonTest, DumpParseRoundTrip) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("int", JsonValue(static_cast<int64_t>(-42)));
  root.Set("big", JsonValue(static_cast<uint64_t>(1) << 53));
  root.Set("pi", JsonValue(3.25));
  root.Set("flag", JsonValue(true));
  root.Set("name", JsonValue("quote\" slash\\ newline\n"));
  JsonValue& arr = root.Set("arr", JsonValue::MakeArray());
  arr.Append(JsonValue(static_cast<int64_t>(1)));
  arr.Append(JsonValue("two"));
  arr.Append(JsonValue::MakeObject());

  const std::string text = root.Dump();
  auto parsed = JsonValue::Parse(text);
  ASSERT_OK(parsed.status());
  EXPECT_EQ(parsed->Find("int")->number(), -42.0);
  EXPECT_EQ(parsed->Find("pi")->number(), 3.25);
  EXPECT_TRUE(parsed->Find("flag")->boolean());
  EXPECT_EQ(parsed->Find("name")->str(), "quote\" slash\\ newline\n");
  ASSERT_NE(parsed->Find("arr"), nullptr);
  EXPECT_EQ(parsed->Find("arr")->size(), 3u);
  // Integral numbers survive the trip without scientific notation.
  EXPECT_NE(text.find("9007199254740992"), std::string::npos);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  const Status bad = JsonValue::Parse("{\"a\": tru}").status();
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("offset"), std::string::npos);
}

TEST(JsonTest, SetReplacesExistingKey) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("k", JsonValue(static_cast<int64_t>(1)));
  obj.Set("k", JsonValue(static_cast<int64_t>(2)));
  EXPECT_EQ(obj.size(), 1u);
  EXPECT_EQ(obj.Find("k")->number(), 2.0);
}

// ---------------------------------------------------------------------------
// Strict bench flag parsing.

TEST(BenchArgsTest, ParseDoubleArgStrict) {
  double d = 0;
  EXPECT_TRUE(bench::ParseDoubleArg("0.25", &d));
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_TRUE(bench::ParseDoubleArg("1e-3", &d));
  EXPECT_DOUBLE_EQ(d, 1e-3);
  EXPECT_FALSE(bench::ParseDoubleArg("", &d));
  EXPECT_FALSE(bench::ParseDoubleArg("abc", &d));
  EXPECT_FALSE(bench::ParseDoubleArg("0.5x", &d));  // atof would say 0.5.
  EXPECT_FALSE(bench::ParseDoubleArg("1.0 ", &d));
}

TEST(BenchArgsTest, ParseIntArgStrict) {
  int i = 0;
  EXPECT_TRUE(bench::ParseIntArg("100", &i));
  EXPECT_EQ(i, 100);
  EXPECT_TRUE(bench::ParseIntArg("-5", &i));
  EXPECT_EQ(i, -5);
  EXPECT_FALSE(bench::ParseIntArg("", &i));
  EXPECT_FALSE(bench::ParseIntArg("12abc", &i));  // atoi would say 12.
  EXPECT_FALSE(bench::ParseIntArg("99999999999999999999", &i));
}

TEST(BenchArgsTest, ParseUint64ArgStrict) {
  uint64_t u = 0;
  EXPECT_TRUE(bench::ParseUint64Arg("19980601", &u));
  EXPECT_EQ(u, 19980601u);
  EXPECT_FALSE(bench::ParseUint64Arg("-3", &u));
  EXPECT_FALSE(bench::ParseUint64Arg("1.5", &u));
  EXPECT_FALSE(bench::ParseUint64Arg("seed", &u));
  EXPECT_FALSE(bench::ParseUint64Arg("99999999999999999999", &u));
  EXPECT_FALSE(bench::ParseUint64Arg(" -1", &u));
  EXPECT_EQ(u, 19980601u);  // A refused value leaves the output alone.
}

// ---------------------------------------------------------------------------
// Golden envelope schema: emit a real file through bench::JsonWriter and
// verify the stable keys a downstream consumer may rely on.

TEST(BenchJsonTest, EmittedEnvelopeMatchesGoldenSchema) {
  const std::string dir = MakeTestDir("obs_envelope");
  const std::string path = dir + "/bench.json";
  bench::BenchArgs args;
  args.sf = 0.125;
  args.queries = 7;
  args.json_path = path;
  {
    bench::JsonWriter writer(args, "bench_golden");
    MetricsRegistry::Instance().GetCounter("obs_test.golden")->Increment(2);
    IoStats io;
    io.sequential_reads.store(10);
    io.random_reads.store(4);
    writer.AddIoStats("phase_one", io);
    writer.results().Set("answer", JsonValue(static_cast<int64_t>(42)));
    writer.Finish();
  }

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  auto doc = JsonValue::Parse(text);
  ASSERT_OK(doc.status());
  EXPECT_EQ(doc->Find("schema_version")->number(), 1.0);
  EXPECT_EQ(doc->Find("bench")->str(), "bench_golden");
  const JsonValue* config = doc->Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_DOUBLE_EQ(config->Find("sf")->number(), 0.125);
  EXPECT_EQ(config->Find("queries")->number(), 7.0);
  ASSERT_NE(doc->Find("wall_seconds"), nullptr);
  ASSERT_NE(doc->Find("modeled_disk_seconds"), nullptr);
  const JsonValue* io = doc->Find("io");
  ASSERT_NE(io, nullptr);
  const JsonValue* phase = io->Find("phase_one");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->Find("sequential_reads")->number(), 10.0);
  EXPECT_EQ(phase->Find("random_reads")->number(), 4.0);
  ASSERT_NE(phase->Find("modeled_seconds"), nullptr);
  const JsonValue* metrics = doc->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  // The writer zeroed the registry at construction, so the snapshot
  // reflects exactly what this "bench" recorded.
  EXPECT_EQ(counters->Find("obs_test.golden")->number(), 2.0);
  const JsonValue* results = doc->Find("results");
  ASSERT_NE(results, nullptr);
  EXPECT_EQ(results->Find("answer")->number(), 42.0);
}

TEST(BenchJsonTest, DisabledWriterIsInert) {
  bench::BenchArgs args;  // json_path empty.
  bench::JsonWriter writer(args, "bench_noop");
  EXPECT_FALSE(writer.enabled());
  writer.results().Set("ignored", JsonValue(true));
  IoStats io;
  writer.AddIoStats("phase", io);
  writer.Finish();  // Must not write or exit.
}

}  // namespace
}  // namespace cubetree
