#ifndef CUBETREE_STORAGE_EXTENT_H_
#define CUBETREE_STORAGE_EXTENT_H_

#include <cstddef>
#include <memory>

#include "common/status.h"
#include "storage/page_manager.h"

namespace cubetree {

// The sequential page stream of the packed structures: spools, sort runs
// and packed R-trees write their pages through an ExtentWriter and scan
// them back through an ExtentReader, so a run of pages moves in one pwrite
// or pread per extent. PageManager's AppendPages and ReadPages still verify,
// count, classify and failpoint-check every page on its own.

/// Appends pages to the end of one page file, kExtentPages per write. Each
/// page is assembled in place in the writer's buffer; ids follow from the
/// single writer, so the page being assembled lands at the file's page
/// count plus the pages buffered before it.
class ExtentWriter {
 public:
  explicit ExtentWriter(PageManager* file) : file_(file) {}

  /// The page being assembled.
  char* page();
  PageId page_id() const {
    return file_->NumPages() + static_cast<PageId>(used_);
  }

  /// The page being assembled is complete: its first `used` bytes are
  /// written and the rest is zeroed here.
  Status Commit(size_t used);

  /// Appends the buffered pages and frees the buffer.
  Status Finish();

 private:
  Status Flush();

  PageManager* file_;
  std::unique_ptr<Page[]> pages_;
  size_t used_ = 0;
};

/// Reads pages [first, end) of one page file in order, up to `max_pages`
/// per read, into a buffer it allocates at the first read and frees once
/// the range is used up.
class ExtentReader {
 public:
  ExtentReader(PageManager* file, PageId first, PageId end,
               size_t max_pages = kExtentPages)
      : file_(file), next_(first), end_(end), max_pages_(max_pages) {}

  /// Sets *page to the next page of the range, valid until the next call,
  /// or to nullptr once the range is used up.
  Status Next(const char** page);

  /// Id of the page Next set last.
  PageId page_id() const {
    return next_ - static_cast<PageId>(loaded_ - index_);
  }

 private:
  PageManager* file_;
  PageId next_;  // First page of the next extent.
  PageId end_;
  size_t max_pages_;
  std::unique_ptr<Page[]> pages_;
  size_t loaded_ = 0;  // Pages of the current extent.
  size_t index_ = 0;   // The current page within it.
};

}  // namespace cubetree

#endif  // CUBETREE_STORAGE_EXTENT_H_
