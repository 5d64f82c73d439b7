#include "engine/wal.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "fault/fault_injector.h"

namespace cubetree {

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Create(
    const std::string& path, std::shared_ptr<IoStats> io_stats) {
  CT_FAULT("wal.create");
  CT_RETURN_NOT_OK(RemoveFileIfExists(path));
  CT_ASSIGN_OR_RETURN(auto file,
                      PageManager::Create(path, std::move(io_stats)));
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(std::move(file)));
}

Status WriteAheadLog::LogRecord(const char* data, size_t size) {
  if (size == 0) {
    return Status::InvalidArgument(
        "wal: empty records are not loggable (zero length marks padding)");
  }
  CT_DCHECK(page_used_ < kPageSize);
  // Keep the header within one page: pad the tail (already zeroed) and
  // open a new page.
  if (kPageSize - page_used_ < kRecordHeader) {
    CT_RETURN_NOT_OK(file_->AppendPage(page_).status());
    page_.Zero();
    page_used_ = 0;
  }
  char header[kRecordHeader];
  EncodeFixed32(header, static_cast<uint32_t>(size));
  EncodeFixed32(header + 4, Crc32c(data, size));
  std::memcpy(page_.data + page_used_, header, kRecordHeader);
  page_used_ += kRecordHeader;

  // The payload may span any number of page boundaries.
  const char* cursor = data;
  size_t left = size;
  while (left > 0) {
    if (page_used_ == kPageSize) {
      CT_RETURN_NOT_OK(file_->AppendPage(page_).status());
      page_.Zero();
      page_used_ = 0;
    }
    const size_t n = std::min(kPageSize - page_used_, left);
    std::memcpy(page_.data + page_used_, cursor, n);
    page_used_ += n;
    cursor += n;
    left -= n;
  }
  if (page_used_ == kPageSize) {
    CT_RETURN_NOT_OK(file_->AppendPage(page_).status());
    page_.Zero();
    page_used_ = 0;
  }
  bytes_logged_ += size + kRecordHeader;
  ++records_;
  return Status::OK();
}

Status WriteAheadLog::Force() {
  CT_FAULT("wal.force");
  if (page_used_ > 0) {
    CT_RETURN_NOT_OK(file_->AppendPage(page_).status());
    page_.Zero();
    page_used_ = 0;
  }
  return file_->Sync();
}

}  // namespace cubetree
