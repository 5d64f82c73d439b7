#ifndef CUBETREE_SORT_SPOOL_H_
#define CUBETREE_SORT_SPOOL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "sort/external_sorter.h"
#include "storage/page_manager.h"

namespace cubetree {

/// Append-only page-backed file of fixed-width records with sequential
/// read-back. Used to stage each computed view's sorted aggregate tuples
/// between the cube builder and the Cubetree packer / conventional loader
/// (the "sorted delta" boxes of the paper's Figures 11 and 15).
class RecordSpool {
 public:
  static Result<std::unique_ptr<RecordSpool>> Create(
      const std::string& path, size_t record_size,
      std::shared_ptr<IoStats> io_stats = nullptr);

  ~RecordSpool();

  RecordSpool(const RecordSpool&) = delete;
  RecordSpool& operator=(const RecordSpool&) = delete;

  /// Appends one record (record_size bytes).
  Status Append(const char* record);

  /// Flushes the current partial page. Must be called before reading.
  Status Seal();

  uint64_t num_records() const { return num_records_; }
  size_t record_size() const { return record_size_; }
  uint64_t FileSizeBytes() const { return file_->FileSizeBytes(); }
  const std::string& path() const { return file_->path(); }

  /// Sequential reader over the sealed spool. Final, so a caller holding
  /// it by its own type calls Next without a virtual dispatch.
  class Reader final : public RecordStream {
   public:
    Status Next(const char** record) override;

   private:
    friend class RecordSpool;
    explicit Reader(RecordSpool* spool) : spool_(spool) {}

    RecordSpool* spool_;
    Page page_;
    PageId next_page_ = 0;
    uint64_t remaining_ = 0;
    size_t in_page_ = 0;
    bool loaded_ = false;
  };

  /// Returns a reader positioned at the first record. The spool must be
  /// sealed and must outlive the reader.
  Result<std::unique_ptr<Reader>> NewReader();

  /// Removes the backing file (spool becomes unusable).
  Status Destroy();

 private:
  RecordSpool(std::unique_ptr<PageManager> file, size_t record_size);

  size_t PerPage() const { return kPageSize / record_size_; }

  std::unique_ptr<PageManager> file_;
  size_t record_size_;
  uint64_t num_records_ = 0;
  Page tail_;
  size_t in_tail_ = 0;
  bool sealed_ = false;
};

}  // namespace cubetree

#endif  // CUBETREE_SORT_SPOOL_H_
