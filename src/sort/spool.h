#ifndef CUBETREE_SORT_SPOOL_H_
#define CUBETREE_SORT_SPOOL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "sort/external_sorter.h"
#include "storage/extent.h"
#include "storage/page_manager.h"

namespace cubetree {

/// Append-only page-backed file of fixed-width records with sequential
/// read-back. It stages each computed view's sorted aggregate tuples
/// between the cube builder and the Cubetree packer / conventional loader
/// (the "sorted delta" boxes of the paper's Figures 11 and 15), and each
/// spilled run of the external sorter. Pages leave through an ExtentWriter
/// and come back through an ExtentReader, each page holding
/// kPageSize / record_size records and zeros after them. The file lives
/// exactly as long as the spool: the destructor removes it, so no exit path
/// — a refused refresh, a failed computation or sort — leaves it behind.
class RecordSpool {
 public:
  static Result<std::unique_ptr<RecordSpool>> Create(
      const std::string& path, size_t record_size,
      std::shared_ptr<IoStats> io_stats = nullptr);

  /// Closes and removes the backing file; a failed removal is logged.
  ~RecordSpool();

  RecordSpool(const RecordSpool&) = delete;
  RecordSpool& operator=(const RecordSpool&) = delete;

  /// Appends one record (record_size bytes).
  Status Append(const char* record) { return Append(record, 1); }

  /// Appends the `count` records that lie back to back at `records`.
  Status Append(const char* records, size_t count);

  /// Writes the last, partial page and frees the page buffer. Must be
  /// called before reading.
  Status Seal();

  uint64_t num_records() const { return num_records_; }
  size_t record_size() const { return record_size_; }
  uint64_t FileSizeBytes() const { return file_->FileSizeBytes(); }
  const std::string& path() const { return file_->path(); }

  /// Sequential reader over the sealed spool. NextSpan hands out the rest
  /// of a page at a time, and the page buffer is freed once the last span
  /// has been consumed. Each reader reads through its own handle on the
  /// spool's file, one file descriptor, counting into the spool's IoStats,
  /// so readers running at once each classify their own pass as
  /// sequential. Final, so a caller holding it by its own type calls Next
  /// without a virtual dispatch.
  class Reader final : public RecordStream {
   public:
    Status Next(const char** record) override {
      size_t count = 0;
      return Take(1, record, &count);
    }
    Status NextSpan(const char** records, size_t* count) override {
      return Take(SIZE_MAX, records, count);
    }

   private:
    friend class RecordSpool;
    Reader(const RecordSpool& spool, std::unique_ptr<PageManager> file,
           size_t extent_pages);

    /// Returns up to `max` records of the current page, moving to the next
    /// page first when this one is used up.
    Status Take(size_t max, const char** records, size_t* count);

    size_t record_size_;
    size_t per_page_;
    std::unique_ptr<PageManager> file_;
    ExtentReader pages_;
    const char* page_ = nullptr;
    uint64_t remaining_;
    size_t in_page_;  // Records of the current page handed out.
  };

  /// Returns a reader positioned at the first record that reads up to
  /// `extent_pages` pages at a time. The spool must be sealed and must
  /// outlive the reader.
  Result<std::unique_ptr<Reader>> NewReader(
      size_t extent_pages = kExtentPages);

 private:
  RecordSpool(std::unique_ptr<PageManager> file, size_t record_size);

  std::unique_ptr<PageManager> file_;
  size_t record_size_;
  size_t per_page_;
  uint64_t num_records_ = 0;
  ExtentWriter out_;
  size_t in_page_ = 0;  // Records on the page being assembled.
  bool sealed_ = false;
};

}  // namespace cubetree

#endif  // CUBETREE_SORT_SPOOL_H_
