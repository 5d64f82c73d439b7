#include "sort/external_sorter.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>
#include <numeric>

#include <unistd.h>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sort/loser_tree.h"

namespace cubetree {

namespace {

struct SorterMetrics {
  obs::Counter* runs_spilled;
  obs::Counter* merge_passes;
  obs::Counter* bytes_spilled;

  static const SorterMetrics& Get() {
    static const SorterMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return SorterMetrics{reg.GetCounter("sorter.runs_spilled"),
                           reg.GetCounter("sorter.merge_passes"),
                           reg.GetCounter("sorter.bytes_spilled")};
    }();
    return m;
  }
};

std::string NextRunPath(const std::string& dir) {
  static std::atomic<uint64_t> counter{0};
  return dir + "/ctsort_run_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".tmp";
}

/// Sequential reader over one spilled run file.
class RunReader {
 public:
  RunReader(PageManager* file, size_t record_size, uint64_t num_records)
      : file_(file),
        record_size_(record_size),
        remaining_(num_records),
        per_page_(kPageSize / record_size) {}

  /// Sets *record to the next record or nullptr when the run is exhausted.
  Status Next(const char** record) {
    if (remaining_ == 0) {
      *record = nullptr;
      return Status::OK();
    }
    if (in_page_ == per_page_ || next_page_ == 0) {
      CT_RETURN_NOT_OK(file_->ReadPage(next_page_, &page_));
      ++next_page_;
      in_page_ = 0;
    }
    *record = page_.data + in_page_ * record_size_;
    ++in_page_;
    --remaining_;
    return Status::OK();
  }

 private:
  PageManager* file_;
  size_t record_size_;
  uint64_t remaining_;
  size_t per_page_;
  Page page_;
  PageId next_page_ = 0;
  size_t in_page_ = per_page_;  // Forces a page read on first Next().
};

/// Loser-tree merge of several RunReaders.
class MergeRecordStream : public RecordStream {
 public:
  MergeRecordStream(std::vector<RunReader> readers, RecordComparator less)
      : readers_(std::move(readers)), less_(std::move(less)) {}

  Status Next(const char** record) override {
    if (!primed_) {
      current_.resize(readers_.size());
      for (size_t i = 0; i < readers_.size(); ++i) {
        CT_RETURN_NOT_OK(readers_[i].Next(&current_[i]));
      }
      tree_ = std::make_unique<LoserTree>(
          readers_.size(), [this](size_t a, size_t b) {
            if (current_[a] == nullptr) return false;
            if (current_[b] == nullptr) return true;
            return less_(current_[a], current_[b]);
          });
      primed_ = true;
    } else {
      const size_t w = tree_->Winner();
      CT_RETURN_NOT_OK(readers_[w].Next(&current_[w]));
      tree_->Replay();
    }
    const size_t w = tree_->Winner();
    *record = current_[w];
    return Status::OK();
  }

 private:
  std::vector<RunReader> readers_;
  RecordComparator less_;
  std::vector<const char*> current_;
  std::unique_ptr<LoserTree> tree_;
  bool primed_ = false;
};

/// One W-byte record, moved by value. Its only member is an array of
/// unsigned char: an array of these has exactly the layout of W-byte
/// records packed back to back, every access std::sort makes to one is a
/// byte access (which may alias any storage), and the records are
/// implicit-lifetime objects that the buffer's allocation created.
template <size_t W>
struct FixedRecord {
  unsigned char bytes[W];
};

/// Sorts the n W-byte records at `data` in place by moving the records
/// themselves. std::sort's comparisons and moves depend only on the
/// comparator's answers, so this leaves the same order as sorting an index
/// of the records.
template <size_t W>
void SortByValue(char* data, size_t n, const RecordComparator& less) {
  static_assert(sizeof(FixedRecord<W>) == W && alignof(FixedRecord<W>) == 1);
  FixedRecord<W>* first =
      std::launder(reinterpret_cast<FixedRecord<W>*>(data));
  std::sort(first, first + n,
            [&less](const FixedRecord<W>& a, const FixedRecord<W>& b) {
              return less(reinterpret_cast<const char*>(a.bytes),
                          reinterpret_cast<const char*>(b.bytes));
            });
}

/// Sorts the fixed-width records held in *buffer in place.
void SortRecords(std::vector<char>* buffer, size_t record_size,
                 const RecordComparator& less) {
  const size_t rs = record_size;
  const size_t n = buffer->size() / rs;
  if (n < 2) return;
  // The widths of the cube builder's view records: 4-byte coordinates,
  // 0 to 8 of them, then a 12-byte aggregate.
  switch (rs) {
    case 12: return SortByValue<12>(buffer->data(), n, less);
    case 16: return SortByValue<16>(buffer->data(), n, less);
    case 20: return SortByValue<20>(buffer->data(), n, less);
    case 24: return SortByValue<24>(buffer->data(), n, less);
    case 28: return SortByValue<28>(buffer->data(), n, less);
    case 32: return SortByValue<32>(buffer->data(), n, less);
    case 36: return SortByValue<36>(buffer->data(), n, less);
    case 40: return SortByValue<40>(buffer->data(), n, less);
    case 44: return SortByValue<44>(buffer->data(), n, less);
    default: break;
  }
  // Other widths sort an index, then permute a copy.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const char* base = buffer->data();
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return less(base + static_cast<size_t>(a) * rs,
                base + static_cast<size_t>(b) * rs);
  });
  std::vector<char> sorted(buffer->size());
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(sorted.data() + i * rs,
                base + static_cast<size_t>(order[i]) * rs, rs);
  }
  buffer->swap(sorted);
}

}  // namespace

ExternalSorter::ExternalSorter(Options options, RecordComparator less)
    : options_(std::move(options)), less_(std::move(less)) {
  // Spill and merge lay records out per page as kPageSize / record_size;
  // a zero or page-exceeding record size would make that quotient 0 and
  // turn WriteRun's page loop into an out-of-page overrun (and RunReader
  // likewise). Latch the error here — constructors cannot fail — and
  // surface it from the first Add/Finish.
  if (options_.record_size == 0 || options_.record_size > kPageSize) {
    init_status_ = Status::InvalidArgument(
        "ExternalSorter: record_size " +
        std::to_string(options_.record_size) + " must be in [1, " +
        std::to_string(kPageSize) + "]");
    return;
  }
  // Floor the budget at 64 records: every spilled run keeps a file (and a
  // descriptor) open until Finish, so degenerate budgets must not turn
  // each record into its own run.
  options_.memory_budget_bytes =
      std::max(options_.memory_budget_bytes, options_.record_size * 64);
  buffer_.reserve(options_.memory_budget_bytes);
}

ExternalSorter::~ExternalSorter() {
  for (Run& run : runs_) {
    run.file.reset();
    // Cannot propagate from a destructor, but a leaked run file should not
    // vanish silently: temp-dir growth is an operator-visible problem.
    Status removed = RemoveFileIfExists(run.path);
    if (!removed.ok()) {
      CT_LOG(Warn) << "external sorter: leaked run file: "
                   << removed.ToString();
    }
  }
}

Status ExternalSorter::Add(const char* record) {
  if (finished_) return Status::Internal("ExternalSorter: Add after Finish");
  CT_RETURN_NOT_OK(init_status_);
  if (buffer_.size() + options_.record_size > options_.memory_budget_bytes) {
    CT_RETURN_NOT_OK(SpillRun());
    // Keep the number of simultaneously open run files bounded even while
    // records are still arriving.
    if (runs_.size() >= 2 * std::max<size_t>(2, options_.max_merge_fanin)) {
      CT_RETURN_NOT_OK(ReduceRuns());
    }
  }
  buffer_.insert(buffer_.end(), record, record + options_.record_size);
  ++num_records_;
  return Status::OK();
}

Status ExternalSorter::SpillRun() {
  CT_FAULT("sort.spill");
  SortRecords(&buffer_, options_.record_size, less_);
  const uint64_t bytes = buffer_.size();
  obs::Span spill_span("sort.spill");
  spill_span.Annotate("records", bytes / options_.record_size);
  spill_span.Annotate("bytes", bytes);
  bool written = false;
  CT_RETURN_NOT_OK(WriteRun([&](const char** records, size_t* count) {
    *records = buffer_.data();
    *count = written ? 0 : buffer_.size() / options_.record_size;
    written = true;
    return Status::OK();
  }));
  buffer_.clear();
  SorterMetrics::Get().runs_spilled->Increment();
  SorterMetrics::Get().bytes_spilled->Increment(bytes);
  return Status::OK();
}

Status ExternalSorter::WriteRun(
    const std::function<Status(const char**, size_t*)>& next) {
  const size_t rs = options_.record_size;
  const size_t per_page = kPageSize / rs;
  Run run;
  run.path = NextRunPath(options_.temp_dir);
  CT_ASSIGN_OR_RETURN(run.file,
                      PageManager::Create(run.path, options_.io_stats));
  const auto write_pages = [&]() -> Status {
    Page page;
    page.Zero();
    size_t in_page = 0;
    while (true) {
      const char* records = nullptr;
      size_t count = 0;
      CT_RETURN_NOT_OK(next(&records, &count));
      if (count == 0) break;
      run.records += count;
      while (count > 0) {
        const size_t batch = std::min(count, per_page - in_page);
        std::memcpy(page.data + in_page * rs, records, batch * rs);
        records += batch * rs;
        count -= batch;
        in_page += batch;
        if (in_page == per_page) {
          CT_RETURN_NOT_OK(run.file->AppendPage(page).status());
          page.Zero();
          in_page = 0;
        }
      }
    }
    if (in_page > 0) {
      CT_RETURN_NOT_OK(run.file->AppendPage(page).status());
    }
    return Status::OK();
  };
  Status wrote = write_pages();
  if (!wrote.ok()) {
    // The run joins runs_ only after a complete write, so nothing else
    // would ever delete this partial file — not even the destructor's
    // sweep. Remove it now, under the typed error (StorageFull on a full
    // disk) that the caller sees.
    run.file.reset();
    (void)RemoveFileIfExists(run.path);  // Best effort beneath the error.
    return wrote;
  }
  runs_.push_back(std::move(run));
  return Status::OK();
}

std::unique_ptr<RecordStream> ExternalSorter::MergeRuns(size_t begin,
                                                        size_t end) const {
  std::vector<RunReader> readers;
  readers.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    readers.emplace_back(runs_[i].file.get(), options_.record_size,
                         runs_[i].records);
  }
  return std::make_unique<MergeRecordStream>(std::move(readers), less_);
}

Status ExternalSorter::MergeRunRange(size_t begin, size_t end) {
  CT_FAULT("sort.merge");
  obs::Span merge_span("sort.merge");
  merge_span.Annotate("runs", static_cast<uint64_t>(end - begin));
  std::unique_ptr<RecordStream> merged = MergeRuns(begin, end);
  // A failed write leaves the input runs intact for a retry.
  CT_RETURN_NOT_OK(WriteRun([&](const char** records, size_t* count) {
    CT_RETURN_NOT_OK(merged->Next(records));
    *count = *records == nullptr ? 0 : 1;
    return Status::OK();
  }));
  // Retire the merged inputs; the combined run is already appended.
  for (size_t i = begin; i < end; ++i) {
    runs_[i].file.reset();
    CT_RETURN_NOT_OK(RemoveFileIfExists(runs_[i].path));
  }
  runs_.erase(runs_.begin() + begin, runs_.begin() + end);
  SorterMetrics::Get().merge_passes->Increment();
  return Status::OK();
}

Status ExternalSorter::ReduceRuns() {
  const size_t fanin = std::max<size_t>(2, options_.max_merge_fanin);
  while (runs_.size() > fanin) {
    const size_t batch = std::min(fanin, runs_.size() - fanin + 1);
    CT_RETURN_NOT_OK(MergeRunRange(0, batch));
  }
  return Status::OK();
}

Result<std::unique_ptr<RecordStream>> ExternalSorter::Finish() {
  CT_FAULT("sort.finish");
  if (finished_) return Status::Internal("ExternalSorter: double Finish");
  CT_RETURN_NOT_OK(init_status_);
  finished_ = true;
  if (runs_.empty()) {
    SortRecords(&buffer_, options_.record_size, less_);
    return std::unique_ptr<RecordStream>(new MemoryRecordStream(
        std::move(buffer_), options_.record_size));
  }
  if (!buffer_.empty()) {
    CT_RETURN_NOT_OK(SpillRun());
  }
  CT_RETURN_NOT_OK(ReduceRuns());
  return MergeRuns(0, runs_.size());
}

}  // namespace cubetree
