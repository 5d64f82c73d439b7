#include "storage/extent.h"

#include <algorithm>
#include <cstring>

namespace cubetree {

char* ExtentWriter::page() {
  if (pages_ == nullptr) {
    // Left uninitialized: Commit writes every byte of each page.
    pages_ = std::make_unique_for_overwrite<Page[]>(kExtentPages);
  }
  return pages_[used_].data;
}

Status ExtentWriter::Commit(size_t used) {
  std::memset(pages_[used_].data + used, 0, kPageSize - used);
  return ++used_ == kExtentPages ? Flush() : Status::OK();
}

Status ExtentWriter::Flush() {
  if (used_ == 0) return Status::OK();
  CT_RETURN_NOT_OK(file_->AppendPages(pages_.get(), used_).status());
  used_ = 0;
  return Status::OK();
}

Status ExtentWriter::Finish() {
  CT_RETURN_NOT_OK(Flush());
  pages_.reset();
  return Status::OK();
}

Status ExtentReader::Next(const char** page) {
  if (index_ + 1 < loaded_) {
    ++index_;
  } else if (next_ >= end_) {
    pages_.reset();
    loaded_ = index_ = 0;
    *page = nullptr;
    return Status::OK();
  } else {
    // The first extent is the largest, so it sizes the buffer.
    const size_t n = std::min<size_t>(max_pages_, end_ - next_);
    if (pages_ == nullptr) pages_ = std::make_unique_for_overwrite<Page[]>(n);
    CT_RETURN_NOT_OK(file_->ReadPages(next_, n, pages_.get()));
    next_ += static_cast<PageId>(n);
    loaded_ = n;
    index_ = 0;
  }
  *page = pages_[index_].data;
  return Status::OK();
}

}  // namespace cubetree
