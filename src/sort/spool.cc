#include "sort/spool.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/logging.h"
#include "fault/fault_injector.h"

namespace cubetree {

RecordSpool::RecordSpool(std::unique_ptr<PageManager> file,
                         size_t record_size)
    : file_(std::move(file)),
      record_size_(record_size),
      per_page_(kPageSize / record_size),
      out_(file_.get()) {}

RecordSpool::~RecordSpool() {
  const std::string path = file_->path();
  file_.reset();
  Status removed = RemoveFileIfExists(path);
  if (!removed.ok()) CT_LOG(Warn) << "spool: " << removed.ToString();
}

Result<std::unique_ptr<RecordSpool>> RecordSpool::Create(
    const std::string& path, size_t record_size,
    std::shared_ptr<IoStats> io_stats) {
  if (record_size == 0 || record_size > kPageSize) {
    return Status::InvalidArgument("spool: unsupported record size");
  }
  CT_RETURN_NOT_OK(RemoveFileIfExists(path));
  CT_ASSIGN_OR_RETURN(auto file,
                      PageManager::Create(path, std::move(io_stats)));
  return std::unique_ptr<RecordSpool>(
      new RecordSpool(std::move(file), record_size));
}

Status RecordSpool::Append(const char* records, size_t count) {
  if (sealed_) return Status::Internal("spool: append after Seal");
  num_records_ += count;
  while (count > 0) {
    const size_t n = std::min(count, per_page_ - in_page_);
    std::memcpy(out_.page() + in_page_ * record_size_, records,
                n * record_size_);
    records += n * record_size_;
    count -= n;
    in_page_ += n;
    if (in_page_ == per_page_) {
      CT_RETURN_NOT_OK(out_.Commit(per_page_ * record_size_));
      in_page_ = 0;
    }
  }
  return Status::OK();
}

Status RecordSpool::Seal() {
  CT_FAULT("spool.seal");
  if (sealed_) return Status::OK();
  if (in_page_ > 0) {
    CT_RETURN_NOT_OK(out_.Commit(in_page_ * record_size_));
    in_page_ = 0;
  }
  CT_RETURN_NOT_OK(out_.Finish());
  sealed_ = true;
  return Status::OK();
}

Result<std::unique_ptr<RecordSpool::Reader>> RecordSpool::NewReader(
    size_t extent_pages) {
  if (!sealed_) return Status::Internal("spool: read before Seal");
  return std::unique_ptr<Reader>(new Reader(*this, extent_pages));
}

RecordSpool::Reader::Reader(const RecordSpool& spool, size_t extent_pages)
    : record_size_(spool.record_size_),
      per_page_(spool.per_page_),
      // The pages the records fill, so a record count the file cannot hold
      // surfaces as ReadPages' read-past-end error.
      pages_(spool.file_.get(), 0,
             static_cast<PageId>((spool.num_records_ + per_page_ - 1) /
                                 per_page_),
             extent_pages),
      remaining_(spool.num_records_),
      in_page_(per_page_) {}

Status RecordSpool::Reader::Take(size_t max, const char** records,
                                 size_t* count) {
  if (remaining_ == 0 || in_page_ == per_page_) {
    // Past the last page this frees the page buffer, so a finished reader
    // holds no pages while its owner lives on.
    CT_RETURN_NOT_OK(pages_.Next(&page_));
    in_page_ = 0;
  }
  if (remaining_ == 0) {
    *records = nullptr;
    *count = 0;
    return Status::OK();
  }
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>({max, per_page_ - in_page_, remaining_}));
  *records = page_ + in_page_ * record_size_;
  *count = n;
  in_page_ += n;
  remaining_ -= n;
  return Status::OK();
}

}  // namespace cubetree
