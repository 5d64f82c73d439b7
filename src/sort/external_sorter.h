#ifndef CUBETREE_SORT_EXTERNAL_SORTER_H_
#define CUBETREE_SORT_EXTERNAL_SORTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/io_stats.h"
#include "storage/page_manager.h"

namespace cubetree {

/// Pull-based stream of fixed-width records in some defined order. This is
/// the common currency between the sorter, the cube builder (sort-based
/// aggregation) and the Cubetree packer / merge-packer.
class RecordStream {
 public:
  virtual ~RecordStream() = default;

  /// Advances to the next record. On success `*record` points at the record
  /// bytes (valid until the next call) or is set to nullptr at end of
  /// stream.
  virtual Status Next(const char** record) = 0;
};

/// A RecordStream over an in-memory buffer of consecutive records.
class MemoryRecordStream : public RecordStream {
 public:
  MemoryRecordStream(std::vector<char> buffer, size_t record_size)
      : buffer_(std::move(buffer)), record_size_(record_size) {}

  Status Next(const char** record) override {
    if (pos_ + record_size_ > buffer_.size()) {
      *record = nullptr;
      return Status::OK();
    }
    *record = buffer_.data() + pos_;
    pos_ += record_size_;
    return Status::OK();
  }

 private:
  std::vector<char> buffer_;
  size_t record_size_;
  size_t pos_ = 0;
};

/// One field of a record's sort key: an unsigned little-endian integer of
/// `width` bytes (1 to 8) that starts `offset` bytes into the record.
struct KeyField {
  uint32_t offset = 0;
  uint32_t width = 4;
};

/// Most fields a sort key may have; with at most 8 bytes each, the run
/// sort's recursion is at most 64 levels deep.
inline constexpr size_t kMaxKeyFields = 8;

/// The sorter's ordered output: its in-memory buffer when nothing spilled,
/// else a loser-tree merge of its spilled runs, produced a page of records
/// at a time. The class is final, so a caller holding it by its own type
/// calls Next without a virtual dispatch.
class SortedStream final : public RecordStream {
 public:
  ~SortedStream() override;

  Status Next(const char** record) override {
    if (next_ == end_) {
      CT_RETURN_NOT_OK(NextBatch());
      if (next_ == end_) {
        *record = nullptr;
        return Status::OK();
      }
    }
    *record = next_;
    next_ += record_size_;
    return Status::OK();
  }

 private:
  friend class ExternalSorter;
  class Merge;

  /// `buffer` holds the sorted in-memory run of `bytes` bytes when `merge`
  /// is null, else room for `bytes` of merged records.
  SortedStream(std::unique_ptr<char[]> buffer, size_t bytes,
               size_t record_size, std::unique_ptr<Merge> merge);

  /// Refills [next_, end_) from the merge; leaves it empty at the end.
  Status NextBatch();

  std::unique_ptr<char[]> buffer_;
  size_t bytes_;
  size_t record_size_;
  std::unique_ptr<Merge> merge_;
  const char* next_ = nullptr;
  const char* end_ = nullptr;
};

/// External merge sorter over fixed-width records.
///
/// Records are ordered by a key of unsigned little-endian integer fields,
/// most significant first; records with equal keys come out in no
/// particular order. Two phases, both on the calling thread. Run generation
/// buffers records up to `memory_budget_bytes`; each full buffer is sorted
/// in place by MSD radix partitioning over the key's bytes and spilled as a
/// page-formatted run in `temp_dir`. Finish() then returns a stream that
/// merges all runs through a loser tree. If everything fits in memory no
/// file is created. Run file I/O flows through PageManager so it shows up
/// (as sequential I/O) in the configuration's IoStats — the paper counts
/// sorting as part of Cubetree load cost.
class ExternalSorter {
 public:
  struct Options {
    size_t record_size = 0;
    size_t memory_budget_bytes = 16 << 20;
    std::string temp_dir = ".";
    /// Shared stats sink for run-file I/O; may be null.
    std::shared_ptr<IoStats> io_stats;
    /// Maximum runs merged at once. When more runs exist, intermediate
    /// merge passes combine them (bounding open file descriptors and
    /// keeping per-run read-ahead viable on a real disk).
    size_t max_merge_fanin = 64;
  };

  /// `key` lists the sort key's fields, most significant first: at most
  /// kMaxKeyFields, each inside the record. An empty key leaves every
  /// record equal.
  ExternalSorter(Options options, std::vector<KeyField> key);
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  /// Copies one record (options.record_size bytes) into the sorter.
  Status Add(const char* record);

  /// Number of records added so far.
  uint64_t num_records() const { return num_records_; }

  /// Number of runs spilled to disk so far (0 = in-memory sort).
  size_t num_runs() const { return runs_.size(); }

  /// Sorts everything and returns the fully ordered stream. The sorter (and
  /// its temp files) must outlive the stream. Call at most once.
  Result<std::unique_ptr<SortedStream>> Finish();

 private:
  /// One spilled, sorted run file.
  struct Run {
    std::unique_ptr<PageManager> file;
    std::string path;
    uint64_t records = 0;
  };

  /// Sorts the buffered run in place.
  void SortBuffer();
  /// Sorts the buffered run and writes it out as a new run.
  Status SpillRun();
  /// Writes the records `next` yields as a new run appended to runs_. Each
  /// call `next(&records, &count)` yields `count` consecutive records at
  /// `records`; a count of 0 ends the run.
  template <typename Next>
  Status WriteRun(Next&& next);
  /// Loser-tree merge over runs_[begin, end).
  std::unique_ptr<SortedStream::Merge> MergeRuns(size_t begin,
                                                 size_t end) const;
  /// Merges runs_[begin, end) into one new run appended to runs_.
  Status MergeRunRange(size_t begin, size_t end);
  /// Records per merge batch: a page's worth, the unit runs are read and
  /// written in, or the whole run buffer when the budget is smaller.
  size_t BatchRecords() const;
  /// Reduces runs_ to at most max_merge_fanin via intermediate passes.
  Status ReduceRuns();

  Options options_;
  std::vector<KeyField> key_;
  /// Non-OK when the record size or key is unusable; surfaced on the
  /// first Add/Finish (constructors cannot fail).
  Status init_status_;
  /// The run buffer, memory_budget_bytes long; its first `buffered_` bytes
  /// hold the records of the run being gathered.
  std::unique_ptr<char[]> buffer_;
  size_t buffered_ = 0;
  uint64_t num_records_ = 0;
  std::vector<Run> runs_;
  bool finished_ = false;
};

}  // namespace cubetree

#endif  // CUBETREE_SORT_EXTERNAL_SORTER_H_
