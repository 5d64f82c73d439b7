#include "sort/external_sorter.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <optional>

#include <unistd.h>

#include "common/coding.h"
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

/// The value of key field `f` of `record`.
inline uint64_t FieldValue(const char* record, const KeyField& f) {
  const char* p = record + f.offset;
  switch (f.width) {
    case 4:
      return DecodeFixed32(p);
    case 8:
      return DecodeFixed64(p);
    default: {
      uint64_t v = 0;
      for (uint32_t i = f.width; i > 0; --i) {
        v = v << 8 | static_cast<unsigned char>(p[i - 1]);
      }
      return v;
    }
  }
}

/// Orders records by a key's fields, most significant first. The run
/// sort's small buckets and the merge both compare through it, inline.
class KeyLess {
 public:
  explicit KeyLess(const std::vector<KeyField>& key) : key_(key) {}

  /// Compares from field `first` on; the fields before it must be equal.
  bool operator()(const char* a, const char* b, size_t first = 0) const {
    for (size_t i = first; i < key_.size(); ++i) {
      const uint64_t x = FieldValue(a, key_[i]);
      const uint64_t y = FieldValue(b, key_[i]);
      if (x != y) return x < y;
    }
    return false;
  }

 private:
  std::vector<KeyField> key_;
};

/// In-place MSD radix sort (American flag sort) of fixed-width records over
/// their key bytes, most significant first. Records move as bytes through
/// two record-sized holding slots, so no second buffer is needed. A key
/// byte every record of a bucket shares is skipped without moving a
/// record; buckets of at most kSmallBucket records are finished by
/// insertion sort. Recursion goes one key byte deeper per level, so its
/// depth is at most the key's byte count. Not stable. W is the record
/// width when it is known at compile time, else 0.
template <size_t W>
class RadixSort {
 public:
  RadixSort(const std::vector<KeyField>& key, size_t record_size)
      : less_(key), record_size_(record_size), slots_(2 * record_size) {
    // A field's most significant byte is its last (little-endian).
    for (size_t field = 0; field < key.size(); ++field) {
      for (uint32_t i = key[field].width; i > 0; --i) {
        digits_.push_back(key[field].offset + i - 1);
        fields_.push_back(field);
      }
    }
    fields_.push_back(key.size());
  }

  void Sort(char* data, size_t n) {
    if (n > 1) SortBucket(data, n, 0);
  }

 private:
  static constexpr size_t kSmallBucket = 32;

  /// Sorts the n records at `data`, which agree on key bytes [0, depth).
  void SortBucket(char* data, size_t n, size_t depth) {
    const size_t rs = W != 0 ? W : record_size_;
    const char* const end = data + n * rs;
    size_t offset = 0;
    unsigned lo = 0;
    unsigned hi = 0;
    while (true) {
      if (depth == digits_.size()) return;  // Every key byte is equal.
      if (n <= kSmallBucket) {
        InsertionSort(data, n, depth);
        return;
      }
      // The byte's range over the bucket: a constant byte partitions
      // nothing, and a narrow one only needs its own buckets visited.
      offset = digits_[depth];
      lo = hi = static_cast<unsigned char>(data[offset]);
      for (const char* r = data + offset; r < end; r += rs) {
        const unsigned d = static_cast<unsigned char>(*r);
        lo = std::min(lo, d);
        hi = std::max(hi, d);
      }
      if (lo != hi) break;
      ++depth;
    }
    size_t heads[256];
    std::fill(heads + lo, heads + hi + 1, 0);
    for (const char* r = data + offset; r < end; r += rs) {
      ++heads[static_cast<unsigned char>(*r)];
    }
    // heads[b] becomes bucket b's first unplaced slot, ends_[b] its end.
    size_t start = 0;
    for (unsigned b = lo; b <= hi; ++b) {
      const size_t count = heads[b];
      heads[b] = start;
      start += count;
      ends_[b] = start;
    }
    const auto digit = [offset](const char* record) {
      return static_cast<unsigned char>(record[offset]);
    };
    char* hand = slots_.data();
    char* spare = hand + rs;
    for (unsigned b = lo; b <= hi; ++b) {
      while (heads[b] < ends_[b]) {
        char* const slot = data + heads[b] * rs;
        unsigned d = digit(slot);
        if (d != b) {
          // Carry the record to its bucket, picking up the one it
          // displaces, until a record for bucket b comes back to `slot`.
          std::memcpy(hand, slot, rs);
          do {
            char* const dst = data + heads[d]++ * rs;
            std::memcpy(spare, dst, rs);
            std::memcpy(dst, hand, rs);
            std::swap(hand, spare);
            d = digit(hand);
          } while (d != b);
          std::memcpy(slot, hand, rs);
        }
        ++heads[b];
      }
    }
    // heads[b] is now bucket b's end, so bucket b is [heads[b-1], heads[b]).
    size_t begin = 0;
    for (unsigned b = lo; b <= hi; ++b) {
      const size_t count = heads[b] - begin;
      if (count > kSmallBucket) {
        SortBucket(data + begin * rs, count, depth + 1);
      } else if (count > 1) {
        InsertionSort(data + begin * rs, count, depth + 1);
      }
      begin = heads[b];
    }
  }

  /// Sorts the n records at `data`, which agree on key bytes [0, depth):
  /// the comparison starts at the field holding key byte `depth`.
  void InsertionSort(char* data, size_t n, size_t depth) {
    const size_t rs = W != 0 ? W : record_size_;
    const size_t first = fields_[depth];
    char* hand = slots_.data();
    for (size_t i = 1; i < n; ++i) {
      char* rec = data + i * rs;
      if (!less_(rec, rec - rs, first)) continue;
      std::memcpy(hand, rec, rs);
      do {
        std::memcpy(rec, rec - rs, rs);
        rec -= rs;
      } while (rec != data && less_(hand, rec - rs, first));
      std::memcpy(rec, hand, rs);
    }
  }

  KeyLess less_;
  size_t record_size_;
  /// Record offsets of the key's bytes, most significant first.
  std::vector<uint32_t> digits_;
  /// The field each key byte belongs to; one past the last byte, the
  /// field count.
  std::vector<size_t> fields_;
  /// The record in hand and the one it displaces.
  std::vector<char> slots_;
  /// Bucket ends of the partition in progress; only one level permutes at
  /// a time, so the levels share it.
  size_t ends_[256] = {};
};

}  // namespace

/// Loser-tree merge of several runs, copied out a batch at a time.
class SortedStream::Merge {
 public:
  Merge(std::vector<RunReader> readers, const std::vector<KeyField>& key,
        size_t record_size)
      : readers_(std::move(readers)),
        less_(key),
        record_size_(record_size),
        current_(readers_.size(), nullptr) {}

  /// Copies the next records in key order to `out`, at most `capacity`
  /// of them, and sets *count to how many; 0 means the merge is done.
  Status Fill(char* out, size_t capacity, size_t* count) {
    *count = 0;
    if (!tree_.has_value()) {
      for (size_t i = 0; i < readers_.size(); ++i) {
        CT_RETURN_NOT_OK(readers_[i].Next(&current_[i]));
      }
      tree_.emplace(readers_.size(), PlayerLess{this});
    }
    if (readers_.empty()) return Status::OK();
    size_t n = 0;
    while (n < capacity) {
      const size_t w = tree_->Winner();
      if (current_[w] == nullptr) break;  // The winner is exhausted: all are.
      std::memcpy(out + n * record_size_, current_[w], record_size_);
      ++n;
      CT_RETURN_NOT_OK(readers_[w].Next(&current_[w]));
      tree_->Replay();
    }
    *count = n;
    return Status::OK();
  }

 private:
  /// Ranks runs by their current records; exhausted runs last.
  struct PlayerLess {
    const Merge* merge;
    bool operator()(size_t a, size_t b) const {
      const char* x = merge->current_[a];
      const char* y = merge->current_[b];
      if (x == nullptr) return false;
      if (y == nullptr) return true;
      return merge->less_(x, y);
    }
  };

  std::vector<RunReader> readers_;
  KeyLess less_;
  size_t record_size_;
  /// Each run's current record; null once the run is exhausted.
  std::vector<const char*> current_;
  std::optional<LoserTree<PlayerLess>> tree_;
};

SortedStream::SortedStream(std::unique_ptr<char[]> buffer, size_t bytes,
                           size_t record_size, std::unique_ptr<Merge> merge)
    : buffer_(std::move(buffer)),
      bytes_(bytes),
      record_size_(record_size),
      merge_(std::move(merge)) {
  if (merge_ == nullptr) {
    // The in-memory run is the one batch.
    next_ = buffer_.get();
    end_ = next_ + bytes_;
  }
}

SortedStream::~SortedStream() = default;

Status SortedStream::NextBatch() {
  if (merge_ == nullptr) return Status::OK();
  size_t count = 0;
  CT_RETURN_NOT_OK(merge_->Fill(buffer_.get(), bytes_ / record_size_, &count));
  next_ = buffer_.get();
  end_ = next_ + count * record_size_;
  return Status::OK();
}

ExternalSorter::ExternalSorter(Options options, std::vector<KeyField> key)
    : options_(std::move(options)), key_(std::move(key)) {
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
  if (key_.size() > kMaxKeyFields) {
    init_status_ = Status::InvalidArgument(
        "ExternalSorter: " + std::to_string(key_.size()) +
        " key fields, more than " + std::to_string(kMaxKeyFields));
    return;
  }
  for (const KeyField& f : key_) {
    if (f.width == 0 || f.width > 8 || f.width > options_.record_size ||
        f.offset > options_.record_size - f.width) {
      init_status_ = Status::InvalidArgument(
          "ExternalSorter: key field at offset " + std::to_string(f.offset) +
          " width " + std::to_string(f.width) + " does not fit a " +
          std::to_string(options_.record_size) + "-byte record");
      return;
    }
  }
  // Floor the budget at 64 records: every spilled run keeps a file (and a
  // descriptor) open until Finish, so degenerate budgets must not turn
  // each record into its own run.
  options_.memory_budget_bytes =
      std::max(options_.memory_budget_bytes, options_.record_size * 64);
  // Left uninitialized: a page of it costs memory only once written.
  buffer_ = std::make_unique_for_overwrite<char[]>(
      options_.memory_budget_bytes);
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
  if (!init_status_.ok()) return init_status_;
  if (buffered_ + options_.record_size > options_.memory_budget_bytes) {
    CT_RETURN_NOT_OK(SpillRun());
    // Keep the number of simultaneously open run files bounded even while
    // records are still arriving.
    if (runs_.size() >= 2 * std::max<size_t>(2, options_.max_merge_fanin)) {
      CT_RETURN_NOT_OK(ReduceRuns());
    }
  }
  std::memcpy(buffer_.get() + buffered_, record, options_.record_size);
  buffered_ += options_.record_size;
  ++num_records_;
  return Status::OK();
}

void ExternalSorter::SortBuffer() {
  const size_t rs = options_.record_size;
  char* const data = buffer_.get();
  const size_t n = buffered_ / rs;
  // The widths of the cube builder's view records (a 12-byte aggregate
  // after 0 to 8 coordinates) and of the index build's entries (1 to 8
  // key parts and a row id) move as fixed-size copies.
  switch (rs) {
    case 12: return RadixSort<12>(key_, rs).Sort(data, n);
    case 16: return RadixSort<16>(key_, rs).Sort(data, n);
    case 20: return RadixSort<20>(key_, rs).Sort(data, n);
    case 24: return RadixSort<24>(key_, rs).Sort(data, n);
    case 28: return RadixSort<28>(key_, rs).Sort(data, n);
    case 32: return RadixSort<32>(key_, rs).Sort(data, n);
    case 36: return RadixSort<36>(key_, rs).Sort(data, n);
    case 40: return RadixSort<40>(key_, rs).Sort(data, n);
    case 44: return RadixSort<44>(key_, rs).Sort(data, n);
    default: return RadixSort<0>(key_, rs).Sort(data, n);
  }
}

Status ExternalSorter::SpillRun() {
  CT_FAULT("sort.spill");
  SortBuffer();
  const uint64_t bytes = buffered_;
  obs::Span spill_span("sort.spill");
  spill_span.Annotate("records", bytes / options_.record_size);
  spill_span.Annotate("bytes", bytes);
  bool written = false;
  CT_RETURN_NOT_OK(WriteRun([&](const char** records, size_t* count) {
    *records = buffer_.get();
    *count = written ? 0 : buffered_ / options_.record_size;
    written = true;
    return Status::OK();
  }));
  buffered_ = 0;
  SorterMetrics::Get().runs_spilled->Increment();
  SorterMetrics::Get().bytes_spilled->Increment(bytes);
  return Status::OK();
}

template <typename Next>
Status ExternalSorter::WriteRun(Next&& next) {
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

std::unique_ptr<SortedStream::Merge> ExternalSorter::MergeRuns(
    size_t begin, size_t end) const {
  std::vector<RunReader> readers;
  readers.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    readers.emplace_back(runs_[i].file.get(), options_.record_size,
                         runs_[i].records);
  }
  return std::make_unique<SortedStream::Merge>(std::move(readers), key_,
                                               options_.record_size);
}

Status ExternalSorter::MergeRunRange(size_t begin, size_t end) {
  CT_FAULT("sort.merge");
  obs::Span merge_span("sort.merge");
  merge_span.Annotate("runs", static_cast<uint64_t>(end - begin));
  std::unique_ptr<SortedStream::Merge> merge = MergeRuns(begin, end);
  // Every buffered record has spilled, so the run buffer carries the
  // merged batches on their way to the new run. A failed write leaves the
  // input runs intact for a retry.
  const size_t batch = BatchRecords();
  CT_RETURN_NOT_OK(WriteRun([&](const char** records, size_t* count) {
    *records = buffer_.get();
    return merge->Fill(buffer_.get(), batch, count);
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

size_t ExternalSorter::BatchRecords() const {
  return std::min(kPageSize, options_.memory_budget_bytes) /
         options_.record_size;
}

Status ExternalSorter::ReduceRuns() {
  const size_t fanin = std::max<size_t>(2, options_.max_merge_fanin);
  while (runs_.size() > fanin) {
    const size_t batch = std::min(fanin, runs_.size() - fanin + 1);
    CT_RETURN_NOT_OK(MergeRunRange(0, batch));
  }
  return Status::OK();
}

Result<std::unique_ptr<SortedStream>> ExternalSorter::Finish() {
  CT_FAULT("sort.finish");
  if (finished_) return Status::Internal("ExternalSorter: double Finish");
  CT_RETURN_NOT_OK(init_status_);
  finished_ = true;
  std::unique_ptr<SortedStream::Merge> merge;
  size_t bytes = buffered_;
  if (runs_.empty()) {
    SortBuffer();
  } else {
    if (buffered_ != 0) {
      CT_RETURN_NOT_OK(SpillRun());
    }
    CT_RETURN_NOT_OK(ReduceRuns());
    merge = MergeRuns(0, runs_.size());
    // The merged batches reuse the run buffer, whose records all spilled.
    bytes = BatchRecords() * options_.record_size;
  }
  return std::unique_ptr<SortedStream>(
      new SortedStream(std::move(buffer_), bytes, options_.record_size,
                       std::move(merge)));
}

}  // namespace cubetree
