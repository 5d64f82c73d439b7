#ifndef CUBETREE_SORT_EXTERNAL_SORTER_H_
#define CUBETREE_SORT_EXTERNAL_SORTER_H_

#include <cstdint>
#include <functional>
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

/// Strict-weak-order comparator over raw record bytes.
using RecordComparator = std::function<bool(const char*, const char*)>;

/// External merge sorter over fixed-width records.
///
/// Two phases, both on the calling thread. Run generation buffers records
/// up to `memory_budget_bytes`; each full buffer is sorted and spilled as a
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

  ExternalSorter(Options options, RecordComparator less);
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
  Result<std::unique_ptr<RecordStream>> Finish();

 private:
  /// One spilled, sorted run file.
  struct Run {
    std::unique_ptr<PageManager> file;
    std::string path;
    uint64_t records = 0;
  };

  /// Sorts buffer_ and writes it out as a new run.
  Status SpillRun();
  /// Writes the records `next` yields as a new run appended to runs_. Each
  /// call yields `*count` consecutive records at `*records`; a count of 0
  /// ends the run.
  Status WriteRun(
      const std::function<Status(const char** records, size_t* count)>& next);
  /// Loser-tree merge over runs_[begin, end).
  std::unique_ptr<RecordStream> MergeRuns(size_t begin, size_t end) const;
  /// Merges runs_[begin, end) into one new run appended to runs_.
  Status MergeRunRange(size_t begin, size_t end);
  /// Reduces runs_ to at most max_merge_fanin via intermediate passes.
  Status ReduceRuns();

  Options options_;
  RecordComparator less_;
  /// Non-OK when the record size is unusable; surfaced on the first
  /// Add/Finish (constructors cannot fail).
  Status init_status_;
  std::vector<char> buffer_;
  uint64_t num_records_ = 0;
  std::vector<Run> runs_;
  bool finished_ = false;
};

}  // namespace cubetree

#endif  // CUBETREE_SORT_EXTERNAL_SORTER_H_
