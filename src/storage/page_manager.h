#ifndef CUBETREE_STORAGE_PAGE_MANAGER_H_
#define CUBETREE_STORAGE_PAGE_MANAGER_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace cubetree {

/// A PageManager owns one on-disk page file: it allocates, reads and writes
/// fixed-size pages, and classifies each physical access as sequential
/// (follows the previously accessed page) or random, feeding a shared
/// IoStats. All structures in the library do their physical I/O through this
/// class so benchmarks can account for every page touched.
///
/// Thread-safe for concurrent reads and appends: pread/pwrite carry their
/// own offsets, the page count and the sequential-vs-random classification
/// heads are atomics, and the shared IoStats counters are relaxed atomics.
/// Concurrent readers may skew the sequential/random *classification* of
/// each other's accesses (the heads are heuristic), but never the totals.
class PageManager {
 public:
  /// Creates (truncating) a new page file at `path`. `stats` may be shared
  /// across files to aggregate I/O for a whole configuration; pass nullptr
  /// for private stats.
  static Result<std::unique_ptr<PageManager>> Create(
      const std::string& path, std::shared_ptr<IoStats> stats = nullptr);

  /// Opens an existing page file. Fails if the size is not page-aligned.
  static Result<std::unique_ptr<PageManager>> Open(
      const std::string& path, std::shared_ptr<IoStats> stats = nullptr);

  /// Configures the retry loop on the read path (process-wide). A
  /// transient IOError from pread — injected or real — is retried with
  /// jittered exponential backoff: before retry k the thread sleeps a
  /// uniform draw from [2^(k-1)·base/2, 2^(k-1)·base] microseconds, so
  /// concurrent readers hitting the same transient fault do not
  /// re-converge into a synchronized retry storm. Callers without an
  /// ambient QueryContext deadline get at most `max_attempts` attempts;
  /// under a deadline the attempt count is unbounded and the loop instead
  /// retries until the deadline expires (sleeps are clipped to the time
  /// remaining). Tests set the backoff to 0 to keep fault sweeps fast.
  /// Defaults: 4 attempts, 100us.
  static void SetReadRetryPolicy(int max_attempts, int base_backoff_us);

  ~PageManager();

  PageManager(const PageManager&) = delete;
  PageManager& operator=(const PageManager&) = delete;

  /// Extends the file by one zeroed page and returns its id.
  Result<PageId> AllocatePage();

  /// Reads page `id` into `*page`.
  Status ReadPage(PageId id, Page* page);

  /// Reads pages [first, first + n) into pages[0..n). Every page is
  /// verified, accounted and attributed exactly as ReadPage does it, in page
  /// order. The n pages arrive in one pread unless a failpoint is armed or
  /// that pread fails; then they are read one ReadPage at a time, so
  /// failpoints, retries and error messages act per page.
  Status ReadPages(PageId first, size_t n, Page* pages);

  /// Writes `page` at page `id`; `id` must be < NumPages().
  Status WritePage(PageId id, const Page& page);

  /// Appends `page` at the end of the file (always a sequential write) and
  /// returns its id. This is the packed-structure bulk-write path.
  Result<PageId> AppendPage(const Page& page);

  /// Appends pages[0..n) at the end of the file and returns the id of the
  /// first. Every page is checksummed and accounted exactly as AppendPage
  /// does it, in page order. The n pages leave in one pwrite unless a
  /// failpoint is armed or that pwrite fails; then they are written one
  /// AppendPage at a time, so failpoints (torn, short-write) and error
  /// messages act per page.
  Result<PageId> AppendPages(const Page* pages, size_t n);

  /// Flushes the file to stable storage.
  Status Sync();

  /// --- Per-page checksums (end-to-end integrity) ----------------------
  /// Packed structures are immutable once built, so their checksums are
  /// computed exactly once: the builder calls StartChecksumTracking()
  /// right after Create(), every WritePage/AppendPage folds the page into
  /// an in-memory CRC-32C table, and FinalizeChecksums() persists the
  /// table to the `<path>.crc` sidecar and arms verify-on-read. Readers
  /// re-open with LoadChecksums(). Verification happens inside ReadPage —
  /// beneath the buffer pool — so every physical page entering the process
  /// is checked, whether it came through the pool or a direct scan.
  ///
  /// Single-writer like appends: tracking happens on the one build thread;
  /// once verify mode is published (release store) the table is immutable
  /// and concurrent readers verify lock-free.

  /// Begins tracking per-page checksums of subsequent writes.
  void StartChecksumTracking();

  /// Persists the tracked table as the `<path>.crc` sidecar (durably) and
  /// switches this manager to verify-on-read. Call after Sync().
  Status FinalizeChecksums();

  /// Loads the sidecar written by FinalizeChecksums and arms
  /// verify-on-read. NotFound when no sidecar exists (reads stay
  /// unverified); Corruption when the sidecar is present but invalid.
  Status LoadChecksums();

  /// True when ReadPage verifies every page against a checksum table.
  bool checksums_enabled() const {
    return crc_mode_.load(std::memory_order_acquire) == kCrcVerify;
  }

  PageId NumPages() const {
    return num_pages_.load(std::memory_order_relaxed);
  }
  uint64_t FileSizeBytes() const {
    return static_cast<uint64_t>(NumPages()) * kPageSize;
  }
  const std::string& path() const { return path_; }
  const IoStats& stats() const { return *stats_; }
  const std::shared_ptr<IoStats>& shared_stats() const { return stats_; }

 private:
  PageManager(std::string path, int fd, PageId num_pages,
              std::shared_ptr<IoStats> stats);

  enum CrcMode : int { kCrcOff = 0, kCrcTrack = 1, kCrcVerify = 2 };

  Status ReadPageOnce(PageId id, Page* page);
  Status WritePageAt(PageId id, const Page& page, const char* failpoint);
  /// Folds a written page into the checksum table while tracking.
  void TrackChecksum(PageId id, const Page& page);
  /// Verifies `*page` against the loaded table; on mismatch performs a
  /// small number of immediate re-reads (transient transfer corruption
  /// heals, bad bytes on the platter do not) before surfacing Corruption.
  Status VerifyPageChecksum(PageId id, Page* page);
  void RecordRead(PageId id);
  void RecordWrite(PageId id);

  std::string path_;
  int fd_;
  std::atomic<PageId> num_pages_;
  std::shared_ptr<IoStats> stats_;
  /// kCrcOff -> kCrcTrack -> kCrcVerify, transitions on the single build
  /// thread; the release store of kCrcVerify publishes page_crcs_ to
  /// readers, which from then on treat it as immutable.
  std::atomic<int> crc_mode_{kCrcOff};
  std::vector<uint32_t> page_crcs_;
  // Heads used to classify accesses as sequential vs random. Atomic so
  // concurrent readers stay race-free; the classification itself remains a
  // single-stream heuristic.
  std::atomic<PageId> last_read_page_{kInvalidPageId};
  std::atomic<PageId> last_write_page_{kInvalidPageId};
};

/// Deletes the file at `path` if it exists. Used by tests and benches to
/// reset workspaces.
Status RemoveFileIfExists(const std::string& path);

/// Maps an errno from a write-side syscall to a typed Status: ENOSPC and
/// EDQUOT become the retriable StorageFull, everything else IOError.
/// `context` labels the message (usually the operation plus file path).
Status ErrnoToStatus(int err, const std::string& context);

/// pwrite(2) the full buffer at `offset`, looping over partial writes and
/// retrying EINTR. `context` labels errors (usually the file path).
/// ENOSPC/EDQUOT — and a pwrite that accepts zero bytes with data left —
/// surface as StorageFull naming the path, offset, wanted and got bytes.
Status PwriteFully(int fd, const void* buf, size_t count, off_t offset,
                   const std::string& context);

/// pread(2) the full buffer at `offset`, looping over short reads and
/// retrying EINTR. Hitting EOF before `count` bytes is Corruption.
Status PreadFully(int fd, void* buf, size_t count, off_t offset,
                  const std::string& context);

/// fsync(2) with a Status result; `context` labels errors.
Status SyncFd(int fd, const std::string& context);

/// Opens and fsyncs a directory, making preceding renames/creates/unlinks
/// within it durable. Required between the steps of an atomic-rename commit.
Status SyncDir(const std::string& dir);

bool FileExists(const std::string& path);

}  // namespace cubetree

#endif  // CUBETREE_STORAGE_PAGE_MANAGER_H_
