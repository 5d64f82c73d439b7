#include "sort/spool.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/logging.h"
#include "fault/fault_injector.h"

namespace cubetree {

RecordSpool::RecordSpool(std::unique_ptr<PageManager> file,
                         size_t record_size)
    : file_(std::move(file)), record_size_(record_size) {
  tail_.Zero();
}

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

Status RecordSpool::Append(const char* record) {
  if (sealed_) return Status::Internal("spool: append after Seal");
  std::memcpy(tail_.data + in_tail_ * record_size_, record, record_size_);
  ++in_tail_;
  ++num_records_;
  if (in_tail_ == PerPage()) {
    CT_RETURN_NOT_OK(file_->AppendPage(tail_).status());
    tail_.Zero();
    in_tail_ = 0;
  }
  return Status::OK();
}

Status RecordSpool::Seal() {
  CT_FAULT("spool.seal");
  if (sealed_) return Status::OK();
  if (in_tail_ > 0) {
    CT_RETURN_NOT_OK(file_->AppendPage(tail_).status());
    in_tail_ = 0;
  }
  sealed_ = true;
  return Status::OK();
}

Result<std::unique_ptr<RecordSpool::Reader>> RecordSpool::NewReader() {
  if (!sealed_) return Status::Internal("spool: read before Seal");
  auto reader = std::unique_ptr<Reader>(new Reader(this));
  reader->remaining_ = num_records_;
  return reader;
}

Status RecordSpool::Reader::Next(const char** record) {
  size_t count = 0;
  return Take(1, record, &count);
}

Status RecordSpool::Reader::NextSpan(const char** records, size_t* count) {
  return Take(SIZE_MAX, records, count);
}

Status RecordSpool::Reader::Take(size_t max, const char** records,
                                 size_t* count) {
  if (remaining_ == 0) {
    // The last span has been consumed: release the extent buffer, so a
    // finished reader holds no pages while its owner lives on.
    extent_.reset();
    *records = nullptr;
    *count = 0;
    return Status::OK();
  }
  const size_t per_page = spool_->PerPage();
  if (page_ == nullptr || in_page_ == per_page) CT_RETURN_NOT_OK(NextPage());
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>({max, per_page - in_page_, remaining_}));
  *records = page_ + in_page_ * spool_->record_size_;
  *count = n;
  in_page_ += n;
  remaining_ -= n;
  return Status::OK();
}

Status RecordSpool::Reader::NextPage() {
  in_page_ = 0;
  if (page_ != nullptr && ++page_index_ < extent_pages_) {
    page_ = extent_[page_index_].data;
    return Status::OK();
  }
  const PageId file_pages = spool_->file_->NumPages();
  if (extent_ == nullptr) {
    extent_capacity_ = std::clamp<size_t>(file_pages, 1, kExtentPages);
    extent_ = std::make_unique_for_overwrite<Page[]>(extent_capacity_);
  }
  // At least one page, so a record count the file cannot hold surfaces as
  // ReadPage's read-past-end error.
  const size_t n = std::clamp<size_t>(
      file_pages > next_page_ ? file_pages - next_page_ : 0, 1,
      extent_capacity_);
  CT_RETURN_NOT_OK(spool_->file_->ReadPages(next_page_, n, extent_.get()));
  next_page_ += static_cast<PageId>(n);
  extent_pages_ = n;
  page_index_ = 0;
  page_ = extent_[0].data;
  return Status::OK();
}

}  // namespace cubetree
