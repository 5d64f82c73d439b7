#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/coding.h"
#include "common/rng.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sort/external_sorter.h"
#include "sort/loser_tree.h"
#include "sort/spool.h"
#include "tests/test_util.h"

namespace cubetree {
namespace {

TEST(LoserTreeTest, SinglePlayer) {
  LoserTree tree(1, [](size_t, size_t) { return false; });
  EXPECT_EQ(tree.Winner(), 0u);
}

TEST(LoserTreeTest, MergesKSortedStreams) {
  // Each player holds a sorted vector with a cursor.
  const std::vector<std::vector<int>> streams = {
      {1, 4, 7, 10}, {2, 5, 8}, {3, 6, 9, 11, 12}, {}, {0}};
  std::vector<size_t> cursors(streams.size(), 0);
  auto value = [&](size_t p) {
    return cursors[p] < streams[p].size()
               ? streams[p][cursors[p]]
               : std::numeric_limits<int>::max();
  };
  LoserTree tree(streams.size(),
                 [&](size_t a, size_t b) { return value(a) < value(b); });
  std::vector<int> merged;
  while (true) {
    const size_t w = tree.Winner();
    if (value(w) == std::numeric_limits<int>::max()) break;
    merged.push_back(value(w));
    ++cursors[w];
    tree.Replay();
  }
  const std::vector<int> expected = {0, 1, 2, 3, 4,  5,  6,
                                     7, 8, 9, 10, 11, 12};
  EXPECT_EQ(merged, expected);
}

TEST(LoserTreeTest, RandomizedAgainstStdSort) {
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    const size_t k = 1 + rng.Uniform(9);
    std::vector<std::vector<uint64_t>> streams(k);
    std::vector<uint64_t> all;
    for (auto& s : streams) {
      const size_t n = rng.Uniform(50);
      for (size_t i = 0; i < n; ++i) s.push_back(rng.Uniform(1000));
      std::sort(s.begin(), s.end());
      all.insert(all.end(), s.begin(), s.end());
    }
    std::sort(all.begin(), all.end());

    std::vector<size_t> cursors(k, 0);
    auto done = [&](size_t p) { return cursors[p] >= streams[p].size(); };
    LoserTree tree(k, [&](size_t a, size_t b) {
      if (done(a)) return false;
      if (done(b)) return true;
      return streams[a][cursors[a]] < streams[b][cursors[b]];
    });
    std::vector<uint64_t> merged;
    while (true) {
      const size_t w = tree.Winner();
      if (done(w)) break;
      merged.push_back(streams[w][cursors[w]]);
      ++cursors[w];
      tree.Replay();
    }
    ASSERT_EQ(merged, all) << "round " << round << " k=" << k;
  }
}

ExternalSorter::Options SmallSorterOptions(const std::string& dir,
                                           size_t record_size,
                                           size_t budget) {
  ExternalSorter::Options options;
  options.record_size = record_size;
  options.memory_budget_bytes = budget;
  options.temp_dir = dir;
  return options;
}

/// Sorts by the record's leading 4-byte field.
std::vector<KeyField> U32Key() { return {KeyField{0, 4}}; }

std::vector<uint32_t> DrainU32(RecordStream* stream) {
  std::vector<uint32_t> out;
  const char* rec = nullptr;
  while (true) {
    Status st = stream->Next(&rec);
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (rec == nullptr) break;
    out.push_back(DecodeFixed32(rec));
  }
  return out;
}

TEST(ExternalSorterTest, InMemorySort) {
  const std::string dir = MakeTestDir("sort_mem");
  ExternalSorter sorter(SmallSorterOptions(dir, 4, 1 << 20), U32Key());
  Rng rng(5);
  std::vector<uint32_t> values;
  char buf[4];
  for (int i = 0; i < 1000; ++i) {
    const uint32_t v = static_cast<uint32_t>(rng.Uniform(10000));
    values.push_back(v);
    EncodeFixed32(buf, v);
    ASSERT_OK(sorter.Add(buf));
  }
  EXPECT_EQ(sorter.num_runs(), 0u);
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  std::sort(values.begin(), values.end());
  EXPECT_EQ(DrainU32(stream.get()), values);
}

TEST(ExternalSorterTest, SpillsAndMergesRuns) {
  const std::string dir = MakeTestDir("sort_spill");
  // Tiny budget: 100 records per run.
  ExternalSorter sorter(SmallSorterOptions(dir, 4, 400), U32Key());
  Rng rng(6);
  std::vector<uint32_t> values;
  char buf[4];
  for (int i = 0; i < 5000; ++i) {
    const uint32_t v = static_cast<uint32_t>(rng.Uniform(1u << 30));
    values.push_back(v);
    EncodeFixed32(buf, v);
    ASSERT_OK(sorter.Add(buf));
  }
  EXPECT_GT(sorter.num_runs(), 10u);
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  std::sort(values.begin(), values.end());
  EXPECT_EQ(DrainU32(stream.get()), values);
}

// Regression for the sorter teardown path: spilled run files must be
// removed when the sorter dies, including when it dies *without* Finish()
// (an abandoned sort — e.g. its refresh failed partway). The destructor
// used to drop the removal Status blind; it now logs, and this pins the
// success path: nothing left behind in the temp dir.
TEST(ExternalSorterTest, DestructorRemovesSpilledRunFiles) {
  const std::string dir = MakeTestDir("sort_dtor_cleanup");
  {
    ExternalSorter sorter(SmallSorterOptions(dir, 4, 400), U32Key());
    Rng rng(11);
    char buf[4];
    for (int i = 0; i < 2000; ++i) {
      EncodeFixed32(buf, static_cast<uint32_t>(rng.Uniform(1u << 30)));
      ASSERT_OK(sorter.Add(buf));
    }
    ASSERT_GT(sorter.num_runs(), 0u);  // The abandoned sort did spill.
  }
  size_t leftover = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++leftover;
    ADD_FAILURE() << "leaked run file: " << entry.path();
  }
  EXPECT_EQ(leftover, 0u);
}

TEST(ExternalSorterTest, SpillFailureLeavesNoPartialRunFile) {
  const std::string dir = MakeTestDir("sort_spill_enospc");
  {
    ExternalSorter sorter(SmallSorterOptions(dir, 4, 400), U32Key());
    // Fail the page append inside the first spill. The run is registered
    // for cleanup only after a complete write, so the partial file used to
    // be invisible even to the destructor's leak sweep; the error path
    // must delete it eagerly and surface the typed disk-full status.
    ASSERT_OK(
        FaultInjector::Instance().Arm("storage.page.append", "enospc"));
    Rng rng(7);
    char buf[4];
    Status status = Status::OK();
    for (int i = 0; i < 2000 && status.ok(); ++i) {
      EncodeFixed32(buf, static_cast<uint32_t>(rng.Uniform(1u << 30)));
      status = sorter.Add(buf);
    }
    EXPECT_TRUE(status.IsStorageFull()) << status.ToString();
    FaultInjector::Instance().DisarmAll();
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ADD_FAILURE() << "leaked run file: " << entry.path();
  }
}

TEST(ExternalSorterTest, MergeFailureKeepsInputRunsAndNoPartialOutput) {
  const std::string dir = MakeTestDir("sort_merge_enospc");
  {
    ExternalSorter sorter(SmallSorterOptions(dir, 4, 400), U32Key());
    // Each 100-record run spills as one page, and the 12,801st record
    // spills the 128th run, which starts the first merge pass: its output
    // is the 129th page append. Let the spills succeed and fail the merge
    // output's first page. The partial merged file must be deleted while
    // the input runs survive, each removed by its own spool.
    ASSERT_OK(
        FaultInjector::Instance().Arm("storage.page.append", "enospc@129"));
    Rng rng(13);
    char buf[4];
    Status status = Status::OK();
    for (int i = 0; i < 13000 && status.ok(); ++i) {
      EncodeFixed32(buf, static_cast<uint32_t>(rng.Uniform(1u << 30)));
      status = sorter.Add(buf);
    }
    EXPECT_TRUE(status.IsStorageFull()) << status.ToString();
    EXPECT_EQ(sorter.num_runs(), 2 * kMaxMergeFanin);
    FaultInjector::Instance().DisarmAll();
  }
  // The runs' spools removed their files; nothing — neither the input runs
  // nor a partial merge output — may remain.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ADD_FAILURE() << "leaked run file: " << entry.path();
  }
}

TEST(ExternalSorterTest, DuplicateKeysSurvive) {
  const std::string dir = MakeTestDir("sort_dup");
  ExternalSorter sorter(SmallSorterOptions(dir, 4, 64), U32Key());
  char buf[4];
  for (int i = 0; i < 300; ++i) {
    EncodeFixed32(buf, static_cast<uint32_t>(i % 3));
    ASSERT_OK(sorter.Add(buf));
  }
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  std::vector<uint32_t> out = DrainU32(stream.get());
  ASSERT_EQ(out.size(), 300u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(std::count(out.begin(), out.end(), 0u), 100);
}

TEST(ExternalSorterTest, EmptyInput) {
  const std::string dir = MakeTestDir("sort_empty");
  ExternalSorter sorter(SmallSorterOptions(dir, 8, 1024), U32Key());
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  const char* rec = nullptr;
  ASSERT_OK(stream->Next(&rec));
  EXPECT_EQ(rec, nullptr);
}

TEST(ExternalSorterTest, WideRecordsSortedByPrefixKey) {
  const std::string dir = MakeTestDir("sort_wide");
  const size_t record_size = 64;
  ExternalSorter sorter(SmallSorterOptions(dir, record_size, 1024),
                        U32Key());
  std::vector<char> rec(record_size, 0);
  for (int i = 99; i >= 0; --i) {
    EncodeFixed32(rec.data(), static_cast<uint32_t>(i));
    rec[10] = static_cast<char>('A' + (i % 26));  // Payload rides along.
    ASSERT_OK(sorter.Add(rec.data()));
  }
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  const char* out = nullptr;
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(stream->Next(&out));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(DecodeFixed32(out), static_cast<uint32_t>(i));
    EXPECT_EQ(out[10], static_cast<char>('A' + (i % 26)));
  }
  ASSERT_OK(stream->Next(&out));
  EXPECT_EQ(out, nullptr);
}

TEST(ExternalSorterTest, AddAfterFinishFails) {
  const std::string dir = MakeTestDir("sort_after");
  ExternalSorter sorter(SmallSorterOptions(dir, 4, 1024), U32Key());
  char buf[4] = {0};
  ASSERT_OK(sorter.Add(buf));
  ASSERT_OK(sorter.Finish().status());
  EXPECT_FALSE(sorter.Add(buf).ok());
}

// Regression: record_size == 0 or > kPageSize used to make the records-
// per-page division in SpillRun/RunReader come out as 0, looping forever
// (spill) or overrunning the page buffer (read). The constructor now
// latches InvalidArgument, surfaced by the first Add()/Finish().
TEST(ExternalSorterTest, RejectsRecordLargerThanPage) {
  const std::string dir = MakeTestDir("sort_oversize");
  // Tiny budget so a working sorter would be forced to spill — the exact
  // configuration that used to hang.
  ExternalSorter sorter(SmallSorterOptions(dir, kPageSize + 1, 64),
                        U32Key());
  std::vector<char> record(kPageSize + 1, 0);
  const Status add = sorter.Add(record.data());
  EXPECT_TRUE(add.IsInvalidArgument()) << add.ToString();
  const Status finish = sorter.Finish().status();
  EXPECT_TRUE(finish.IsInvalidArgument()) << finish.ToString();
}

TEST(ExternalSorterTest, RejectsZeroRecordSize) {
  const std::string dir = MakeTestDir("sort_zerosize");
  ExternalSorter sorter(SmallSorterOptions(dir, 0, 1024), U32Key());
  char buf[4] = {0};
  EXPECT_TRUE(sorter.Add(buf).IsInvalidArgument());
  EXPECT_TRUE(sorter.Finish().status().IsInvalidArgument());
}

// A key that does not fit the record, or has more fields than the run
// sort's depth bound allows, is InvalidArgument from the first Add/Finish.
TEST(ExternalSorterTest, RejectsKeysThatDoNotFitTheRecord) {
  const std::string dir = MakeTestDir("sort_badkey");
  const std::vector<std::vector<KeyField>> bad_keys = {
      {KeyField{0, 8}},                  // Wider than the record.
      {KeyField{2, 4}},                  // Ends past the record.
      {KeyField{0, 0}},                  // Empty field.
      {KeyField{0, 9}},                  // Wider than 64 bits.
      std::vector<KeyField>(kMaxKeyFields + 1, KeyField{0, 1}),
  };
  for (const std::vector<KeyField>& key : bad_keys) {
    ExternalSorter sorter(SmallSorterOptions(dir, 4, 1024), key);
    char buf[4] = {0};
    EXPECT_TRUE(sorter.Add(buf).IsInvalidArgument());
    EXPECT_TRUE(sorter.Finish().status().IsInvalidArgument());
  }
}

TEST(ExternalSorterTest, PageSizedRecordStillSorts) {
  // The guard's boundary: exactly one record per page must keep working.
  const std::string dir = MakeTestDir("sort_pagesize");
  ExternalSorter sorter(SmallSorterOptions(dir, kPageSize, 2 * kPageSize),
                        U32Key());
  std::vector<char> record(kPageSize, 0);
  std::vector<uint32_t> values = {7, 3, 9, 1, 5};
  for (uint32_t v : values) {
    EncodeFixed32(record.data(), v);
    ASSERT_OK(sorter.Add(record.data()));
  }
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  std::vector<uint32_t> drained;
  const char* rec = nullptr;
  while (true) {
    ASSERT_OK(stream->Next(&rec));
    if (rec == nullptr) break;
    drained.push_back(DecodeFixed32(rec));
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(drained, values);
}

TEST(ExternalSorterTest, RunFileIoIsSequential) {
  const std::string dir = MakeTestDir("sort_io");
  auto stats = std::make_shared<IoStats>();
  ExternalSorter::Options options = SmallSorterOptions(dir, 4, 400);
  options.io_stats = stats;
  ExternalSorter sorter(options, U32Key());
  char buf[4];
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    EncodeFixed32(buf, static_cast<uint32_t>(rng.Next()));
    ASSERT_OK(sorter.Add(buf));
  }
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  DrainU32(stream.get());
  EXPECT_GT(stats->sequential_writes, 0u);
  EXPECT_EQ(stats->random_writes, 0u);
  // Each run is read front to back; only the first page of each run is a
  // "random" seek.
  EXPECT_EQ(stats->random_reads, sorter.num_runs());
}

TEST(ExternalSorterTest, MultiPassMergeWithTinyFanin) {
  const std::string dir = MakeTestDir("sort_multipass");
  ExternalSorter sorter(SmallSorterOptions(dir, 4, 4 * 64), U32Key());
  Rng rng(41);
  std::vector<uint32_t> values;
  char buf[4];
  for (int i = 0; i < 20000; ++i) {
    const uint32_t v = static_cast<uint32_t>(rng.Uniform(1u << 28));
    values.push_back(v);
    EncodeFixed32(buf, v);
    ASSERT_OK(sorter.Add(buf));
  }
  // 20000/64 = 312 raw runs, reduced during Add to stay under 2*fanin: the
  // 128th, 192nd and 256th spills each merge the runs back to 64, and 56
  // more spills follow.
  EXPECT_LE(sorter.num_runs(), 2 * kMaxMergeFanin);
  EXPECT_EQ(sorter.num_runs(), 120u);
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  std::sort(values.begin(), values.end());
  EXPECT_EQ(DrainU32(stream.get()), values);
}

TEST(ExternalSorterTest, MultiPassKeepsDuplicatesAndPayloads) {
  const std::string dir = MakeTestDir("sort_multipass_dup");
  // 64 records per run: the 8,193rd record spills the 128th run and starts
  // the first intermediate pass.
  ExternalSorter sorter(SmallSorterOptions(dir, 8, 8 * 64), U32Key());
  char buf[8];
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    EncodeFixed32(buf, static_cast<uint32_t>(i % 100));
    EncodeFixed32(buf + 4, static_cast<uint32_t>(i));
    ASSERT_OK(sorter.Add(buf));
  }
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  const char* rec = nullptr;
  int count = 0;
  uint64_t payload_sum = 0;
  uint32_t prev = 0;
  while (true) {
    ASSERT_OK(stream->Next(&rec));
    if (rec == nullptr) break;
    const uint32_t key = DecodeFixed32(rec);
    ASSERT_GE(key, prev);
    prev = key;
    payload_sum += DecodeFixed32(rec + 4);
    ++count;
  }
  EXPECT_EQ(count, n);
  EXPECT_EQ(payload_sum, static_cast<uint64_t>(n) * (n - 1) / 2);
}

// The sorter spills and merges on the thread that adds the records, so
// its sort.spill and sort.merge spans nest directly under the caller's
// span: one per spilled run and one per merge pass, matching the sorter.*
// counters. The benchmark derives its per-layer sort time from these
// spans.
TEST(ExternalSorterTest, SpillAndMergeSpansNestUnderCallersTrace) {
  const std::string dir = MakeTestDir("sort_trace");
  struct TracerOn {
    TracerOn() {
      obs::Tracer::Instance().Clear();
      obs::Tracer::Instance().Enable(true);
    }
    ~TracerOn() {
      obs::Tracer::Instance().Enable(false);
      obs::Tracer::Instance().Clear();
    }
  } tracer_on;
  auto& registry = obs::MetricsRegistry::Instance();
  obs::Counter* runs_spilled = registry.GetCounter("sorter.runs_spilled");
  obs::Counter* merge_passes = registry.GetCounter("sorter.merge_passes");
  const uint64_t runs_before = runs_spilled->value();
  const uint64_t merges_before = merge_passes->value();
  {
    obs::TraceScope root("sort");
    // 100 records per run: the 12,801st record spills the 128th run and
    // starts the intermediate passes.
    ExternalSorter sorter(SmallSorterOptions(dir, 4, 400), U32Key());
    Rng rng(17);
    char buf[4];
    for (int i = 0; i < 13000; ++i) {
      EncodeFixed32(buf, static_cast<uint32_t>(rng.Uniform(1u << 30)));
      ASSERT_OK(sorter.Add(buf));
    }
    ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
    EXPECT_EQ(DrainU32(stream.get()).size(), 13000u);
  }
  const std::shared_ptr<const obs::Trace> trace =
      obs::Tracer::Instance().LastTrace();
  ASSERT_NE(trace, nullptr);
  uint64_t spills = 0;
  uint64_t merges = 0;
  double spilled_records = 0;
  for (const obs::SpanRecord& span : trace->spans()) {
    if (span.name == "sort.spill") {
      ++spills;
      for (const auto& [key, value] : span.annotations) {
        if (key == "records") spilled_records += value.number();
      }
    } else if (span.name == "sort.merge") {
      ++merges;
    } else {
      continue;
    }
    EXPECT_EQ(span.parent, 0) << span.name;
  }
  EXPECT_GT(spills, 0u);
  EXPECT_EQ(spills, runs_spilled->value() - runs_before);
  EXPECT_GT(merges, 0u);
  EXPECT_EQ(merges, merge_passes->value() - merges_before);
  EXPECT_EQ(spilled_records, 13000.0);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ADD_FAILURE() << "leaked run file: " << entry.path();
  }
}

TEST(RecordSpoolTest, AppendSealRead) {
  const std::string dir = MakeTestDir("spool_basic");
  ASSERT_OK_AND_ASSIGN(auto spool, RecordSpool::Create(dir + "/s.spl", 4));
  char buf[4];
  for (uint32_t i = 0; i < 5000; ++i) {
    EncodeFixed32(buf, i);
    ASSERT_OK(spool->Append(buf));
  }
  ASSERT_OK(spool->Seal());
  EXPECT_EQ(spool->num_records(), 5000u);
  ASSERT_OK_AND_ASSIGN(auto reader, spool->NewReader());
  std::vector<uint32_t> out = DrainU32(reader.get());
  ASSERT_EQ(out.size(), 5000u);
  for (uint32_t i = 0; i < 5000; ++i) EXPECT_EQ(out[i], i);
}

// The reader moves kExtentPages pages per read and hands out a page's
// records per span; every record arrives once, in order, and every page is
// read once, sequentially after the first, as page at a time.
TEST(RecordSpoolTest, SpansCrossExtents) {
  const std::string dir = MakeTestDir("spool_spans");
  constexpr size_t kRecord = 24;
  constexpr size_t kPerPage = kPageSize / kRecord;
  for (const size_t pages : {kExtentPages - 1, kExtentPages, kExtentPages + 1,
                             2 * kExtentPages + 1}) {
    auto stats = std::make_shared<IoStats>();
    ASSERT_OK_AND_ASSIGN(
        auto spool, RecordSpool::Create(dir + "/s.spl", kRecord, stats));
    const uint32_t records = static_cast<uint32_t>((pages - 1) * kPerPage + 5);
    char buf[kRecord] = {0};
    for (uint32_t i = 0; i < records; ++i) {
      EncodeFixed32(buf, i);
      ASSERT_OK(spool->Append(buf));
    }
    ASSERT_OK(spool->Seal());
    stats->Clear();
    ASSERT_OK_AND_ASSIGN(auto reader, spool->NewReader());
    uint32_t next = 0;
    while (true) {
      const char* span = nullptr;
      size_t count = 0;
      ASSERT_OK(reader->NextSpan(&span, &count));
      if (count == 0) break;
      ASSERT_LE(count, kPerPage);
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(DecodeFixed32(span + i * kRecord), next++);
      }
    }
    EXPECT_EQ(next, records);
    EXPECT_EQ(stats->random_reads, 1u);
    EXPECT_EQ(stats->sequential_reads, pages - 1);
    ASSERT_OK_AND_ASSIGN(auto by_record, spool->NewReader());
    std::vector<uint32_t> out = DrainU32(by_record.get());
    ASSERT_EQ(out.size(), records);
    for (uint32_t i = 0; i < records; ++i) ASSERT_EQ(out[i], i);
  }
}

// The writer moves kExtentPages pages per write; every page is still one
// sequential page write, its slack past the last whole record is zero on
// disk, and spans appended across page and extent boundaries read back in
// order.
TEST(RecordSpoolTest, SpanAppendsCrossExtents) {
  const std::string dir = MakeTestDir("spool_span_writes");
  constexpr size_t kRecord = 28;
  constexpr size_t kPerPage = kPageSize / kRecord;  // 292, 16 bytes slack.
  for (const size_t pages : {kExtentPages - 1, kExtentPages, kExtentPages + 1,
                             2 * kExtentPages + 1}) {
    auto stats = std::make_shared<IoStats>();
    ASSERT_OK_AND_ASSIGN(
        auto spool, RecordSpool::Create(dir + "/s.spl", kRecord, stats));
    const uint32_t records = static_cast<uint32_t>(pages * kPerPage);
    std::vector<char> chunk(100 * kRecord, 0);
    for (uint32_t i = 0; i < records;) {
      const uint32_t n = std::min<uint32_t>(100, records - i);
      for (uint32_t j = 0; j < n; ++j) {
        EncodeFixed32(chunk.data() + j * kRecord, i + j);
        EncodeFixed32(chunk.data() + j * kRecord + 24, ~(i + j));
      }
      ASSERT_OK(spool->Append(chunk.data(), n));
      i += n;
    }
    ASSERT_OK(spool->Seal());
    EXPECT_EQ(spool->num_records(), records);
    EXPECT_EQ(stats->sequential_writes, pages);
    EXPECT_EQ(stats->random_writes, 0u);
    {
      ASSERT_OK_AND_ASSIGN(auto file, PageManager::Open(spool->path()));
      ASSERT_EQ(file->NumPages(), pages);
      Page page;
      const char zeros[kPageSize - kPerPage * kRecord] = {};
      for (PageId id = 0; id < pages; ++id) {
        ASSERT_OK(file->ReadPage(id, &page));
        EXPECT_EQ(std::memcmp(page.data + kPerPage * kRecord, zeros,
                              sizeof(zeros)),
                  0)
            << "page " << id;
      }
    }
    ASSERT_OK_AND_ASSIGN(auto reader, spool->NewReader());
    const char* rec = nullptr;
    for (uint32_t i = 0; i < records; ++i) {
      ASSERT_OK(reader->Next(&rec));
      ASSERT_NE(rec, nullptr);
      ASSERT_EQ(DecodeFixed32(rec), i);
      ASSERT_EQ(DecodeFixed32(rec + 24), ~i);
    }
    ASSERT_OK(reader->Next(&rec));
    EXPECT_EQ(rec, nullptr);
  }
}

// A full disk inside the second extent surfaces as StorageFull from the
// Append that completes the extent or from Seal, and the spool removes its
// partial file when it is destroyed.
TEST(RecordSpoolTest, FullDiskInSecondExtentLeavesNoFile) {
  const std::string dir = MakeTestDir("spool_enospc");
  constexpr size_t kRecord = 28;
  constexpr size_t kPerPage = kPageSize / kRecord;
  for (const size_t pages : {kExtentPages + 3, 2 * kExtentPages + 1}) {
    {
      ASSERT_OK_AND_ASSIGN(auto spool,
                           RecordSpool::Create(dir + "/s.spl", kRecord));
      const std::string spec = "enospc@" + std::to_string(kExtentPages + 2);
      ASSERT_OK(FaultInjector::Instance().Arm("storage.page.append", spec));
      std::vector<char> rec(kRecord, 0);
      Status status = Status::OK();
      for (uint32_t i = 0; i < pages * kPerPage && status.ok(); ++i) {
        EncodeFixed32(rec.data(), i);
        status = spool->Append(rec.data());
      }
      if (status.ok()) status = spool->Seal();
      FaultInjector::Instance().DisarmAll();
      EXPECT_TRUE(status.IsStorageFull()) << status.ToString();
      EXPECT_TRUE(FileExists(dir + "/s.spl"));
    }
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      ADD_FAILURE() << "leaked spool file: " << entry.path();
    }
  }
}

TEST(RecordSpoolTest, MultipleReaders) {
  const std::string dir = MakeTestDir("spool_multi");
  ASSERT_OK_AND_ASSIGN(auto spool, RecordSpool::Create(dir + "/s.spl", 4));
  char buf[4];
  for (uint32_t i = 0; i < 10; ++i) {
    EncodeFixed32(buf, i * 2);
    ASSERT_OK(spool->Append(buf));
  }
  ASSERT_OK(spool->Seal());
  for (int round = 0; round < 3; ++round) {
    ASSERT_OK_AND_ASSIGN(auto reader, spool->NewReader());
    EXPECT_EQ(DrainU32(reader.get()).size(), 10u);
  }
}

// Each reader reads through its own handle, so two readers of one spool
// taking turns extent by extent, as two views derived from one parent do
// on two workers, count the reads of two passes one after the other: one
// random read each, at page 0, and the rest sequential.
TEST(RecordSpoolTest, InterleavedReadersCountLikeBackToBackPasses) {
  const std::string dir = MakeTestDir("spool_interleaved");
  constexpr size_t kPerPage = kPageSize / 4;
  constexpr size_t kPages = 3 * kExtentPages + 2;
  auto stats = std::make_shared<IoStats>();
  ASSERT_OK_AND_ASSIGN(auto spool,
                       RecordSpool::Create(dir + "/s.spl", 4, stats));
  char buf[4];
  for (uint32_t i = 0; i < kPages * kPerPage; ++i) {
    EncodeFixed32(buf, i);
    ASSERT_OK(spool->Append(buf));
  }
  ASSERT_OK(spool->Seal());

  stats->Clear();
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_OK_AND_ASSIGN(auto reader, spool->NewReader());
    EXPECT_EQ(DrainU32(reader.get()).size(), kPages * kPerPage);
  }
  const IoStats back_to_back = *stats;
  EXPECT_EQ(back_to_back.random_reads, 2u);
  EXPECT_EQ(back_to_back.sequential_reads, 2 * (kPages - 1));

  stats->Clear();
  ASSERT_OK_AND_ASSIGN(auto first, spool->NewReader());
  ASSERT_OK_AND_ASSIGN(auto second, spool->NewReader());
  std::vector<uint32_t> got[2];
  for (bool more = true; more;) {
    more = false;
    int turn = 0;
    for (RecordSpool::Reader* reader : {first.get(), second.get()}) {
      // A page's records per span: one extent is kExtentPages spans.
      for (size_t page = 0; page < kExtentPages; ++page) {
        const char* span = nullptr;
        size_t count = 0;
        ASSERT_OK(reader->NextSpan(&span, &count));
        for (size_t i = 0; i < count; ++i) {
          got[turn].push_back(DecodeFixed32(span + 4 * i));
        }
        more = more || count != 0;
      }
      ++turn;
    }
  }
  for (const std::vector<uint32_t>& records : got) {
    ASSERT_EQ(records.size(), kPages * kPerPage);
    for (uint32_t i = 0; i < records.size(); ++i) ASSERT_EQ(records[i], i);
  }
  EXPECT_EQ(stats->random_reads, back_to_back.random_reads);
  EXPECT_EQ(stats->sequential_reads, back_to_back.sequential_reads);
}

TEST(RecordSpoolTest, ReadBeforeSealFails) {
  const std::string dir = MakeTestDir("spool_seal");
  ASSERT_OK_AND_ASSIGN(auto spool, RecordSpool::Create(dir + "/s.spl", 4));
  EXPECT_FALSE(spool->NewReader().ok());
}

TEST(RecordSpoolTest, AppendAfterSealFails) {
  const std::string dir = MakeTestDir("spool_append");
  ASSERT_OK_AND_ASSIGN(auto spool, RecordSpool::Create(dir + "/s.spl", 4));
  ASSERT_OK(spool->Seal());
  char buf[4] = {0};
  EXPECT_FALSE(spool->Append(buf).ok());
}

TEST(RecordSpoolTest, EmptySpool) {
  const std::string dir = MakeTestDir("spool_empty");
  ASSERT_OK_AND_ASSIGN(auto spool, RecordSpool::Create(dir + "/s.spl", 16));
  ASSERT_OK(spool->Seal());
  ASSERT_OK_AND_ASSIGN(auto reader, spool->NewReader());
  const char* rec = nullptr;
  ASSERT_OK(reader->Next(&rec));
  EXPECT_EQ(rec, nullptr);
}

TEST(RecordSpoolTest, OddRecordSizeCrossingPages) {
  const std::string dir = MakeTestDir("spool_odd");
  // 28-byte records: 292 per page with slack.
  ASSERT_OK_AND_ASSIGN(auto spool, RecordSpool::Create(dir + "/s.spl", 28));
  std::vector<char> rec(28);
  for (uint32_t i = 0; i < 1000; ++i) {
    EncodeFixed32(rec.data(), i);
    EncodeFixed32(rec.data() + 24, i ^ 0xDEAD);
    ASSERT_OK(spool->Append(rec.data()));
  }
  ASSERT_OK(spool->Seal());
  ASSERT_OK_AND_ASSIGN(auto reader, spool->NewReader());
  const char* out = nullptr;
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_OK(reader->Next(&out));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(DecodeFixed32(out), i);
    EXPECT_EQ(DecodeFixed32(out + 24), i ^ 0xDEAD);
  }
}

}  // namespace
}  // namespace cubetree
