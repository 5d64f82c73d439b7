#ifndef CUBETREE_ENGINE_WAL_H_
#define CUBETREE_ENGINE_WAL_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/page_manager.h"

namespace cubetree {

/// Minimal write-ahead log emulating the logging the relational engine
/// performs on the conventional configuration's insert/update path (IUS
/// logs every row touched by INSERT/UPDATE). Records are buffered into
/// pages and written sequentially; Force() flushes the partial page and
/// syncs, modeling a commit. The Cubetree Datablade's bulk loader and
/// merge-packer write fresh files and swap them in, so that path runs —
/// as its real counterpart did — without logging.
///
/// The log is written and never read: it exists to reproduce the I/O of
/// per-row logging, and the warehouse rebuilds the baseline's tables and
/// B-trees on every load rather than replaying it.
///
/// On-disk framing: each record is an 8-byte header (4-byte payload length,
/// 4-byte CRC-32C of the payload) followed by the payload. Headers never
/// span a page boundary — if fewer than 8 bytes remain in a page the tail
/// is zero-padded and the record starts on the next page (payloads may
/// still span pages). Force() zero-pads the partial page it writes. The
/// framing fixes the log's bytes and page count, which the baseline's I/O
/// figures count.
class WriteAheadLog {
 public:
  /// Size of the per-record header (length + CRC).
  static constexpr size_t kRecordHeader = 8;

  static Result<std::unique_ptr<WriteAheadLog>> Create(
      const std::string& path, std::shared_ptr<IoStats> io_stats = nullptr);

  /// Appends one log record (a copy of the affected row image plus the
  /// framing header). Writes a page whenever one fills. `size` must be > 0
  /// (a zero length marks padding on disk).
  Status LogRecord(const char* data, size_t size);

  /// Commit: flush the current partial page (zero-padded) and fsync.
  Status Force();

  uint64_t BytesLogged() const { return bytes_logged_; }
  uint64_t records() const { return records_; }

 private:
  explicit WriteAheadLog(std::unique_ptr<PageManager> file)
      : file_(std::move(file)) {
    page_.Zero();
  }

  std::unique_ptr<PageManager> file_;
  Page page_;
  size_t page_used_ = 0;
  uint64_t bytes_logged_ = 0;
  uint64_t records_ = 0;
};

}  // namespace cubetree

#endif  // CUBETREE_ENGINE_WAL_H_
