#include "storage/page_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <sys/stat.h>

#include "common/assert.h"
#include "common/crc32.h"
#include "common/query_context.h"
#include "common/rng.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/checksum.h"

namespace cubetree {

namespace {

/// Immediate re-reads after a checksum mismatch before it is surfaced as
/// Corruption (see VerifyPageChecksum).
constexpr int kChecksumRereads = 2;

struct IntegrityMetrics {
  obs::Counter* pages_verified;
  obs::Counter* mismatches;
  obs::Counter* reread_healed;
  obs::Counter* corruption_errors;

  static const IntegrityMetrics& Get() {
    static const IntegrityMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return IntegrityMetrics{
          reg.GetCounter("integrity.pages_verified"),
          reg.GetCounter("integrity.checksum_mismatches"),
          reg.GetCounter("integrity.reread_healed"),
          reg.GetCounter("integrity.corruption_errors")};
    }();
    return m;
  }
};

Status ErrnoStatus(const std::string& context) {
  return ErrnoToStatus(errno, context);
}

// Read-path retry policy (see PageManager::SetReadRetryPolicy). Transient
// I/O errors — injected ones, or real hiccups of a loaded device — are
// retried with jittered exponential backoff before the error is surfaced,
// so a multi-hour load does not abort on a blip and concurrent readers do
// not synchronize into retry storms.
std::atomic<int> g_read_retry_attempts{4};
std::atomic<int> g_read_retry_backoff_us{100};

/// Per-thread generator for backoff jitter, seeded so that no two threads
/// (and no two processes) draw the same sequence. Deliberately separate
/// from the workload Rng: jitter must differ across threads, experiments
/// must not.
Rng& JitterRng() {
  thread_local Rng rng([] {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    static thread_local int stack_marker;
    return static_cast<uint64_t>(now.count()) ^
           reinterpret_cast<uint64_t>(&stack_marker);
  }());
  return rng;
}

void BackoffBeforeRetry(int attempt, const QueryContext* ctx) {
  const int base = g_read_retry_backoff_us.load(std::memory_order_relaxed);
  if (base <= 0) return;
  // attempt is 1-based: the ceiling doubles each retry (capped so the
  // shift cannot overflow), and the actual sleep is a uniform draw from
  // [ceiling/2, ceiling] — "equal jitter", which keeps the expected wait
  // growing exponentially while decorrelating concurrent retriers.
  const int shift = attempt - 1 < 10 ? attempt - 1 : 10;
  const uint64_t ceiling = static_cast<uint64_t>(base) << shift;
  const uint64_t floor = ceiling / 2;
  uint64_t sleep_us = floor + JitterRng().Uniform(ceiling - floor + 1);
  if (ctx != nullptr && ctx->has_deadline()) {
    const auto remaining = std::chrono::duration_cast<std::chrono::microseconds>(
        ctx->deadline() - QueryContext::Clock::now());
    if (remaining.count() <= 0) return;  // Caller re-checks and fails.
    if (sleep_us > static_cast<uint64_t>(remaining.count())) {
      sleep_us = static_cast<uint64_t>(remaining.count());
    }
  }
  ::usleep(static_cast<useconds_t>(sleep_us));
}

}  // namespace

Status ErrnoToStatus(int err, const std::string& context) {
  // A full volume (or exhausted quota) is not a broken one: keep it typed
  // so refresh orchestration can back off and retry once space returns.
  if (err == ENOSPC || err == EDQUOT) {
    return Status::StorageFull(context + ": " + std::strerror(err));
  }
  return Status::IOError(context + ": " + std::strerror(err));
}

namespace {

// The loops behind PwriteFully and PreadFully. `context()` labels an error
// and is called only when the call fails, so a successful page read or
// write builds no string.
template <typename Context>
Status PwriteLoop(int fd, const void* buf, size_t count, off_t offset,
                  const Context& context) {
  const off_t start_offset = offset;
  const char* cursor = static_cast<const char*>(buf);
  size_t left = count;
  while (left > 0) {
    const ssize_t n = ::pwrite(fd, cursor, left, offset);
    if (n < 0) {
      const int err = errno;
      if (err == EINTR) continue;  // A signal is not a disk failure.
      return ErrnoToStatus(err, context() + " (offset " +
                                    std::to_string(
                                        static_cast<long long>(offset)) +
                                    ")");
    }
    if (n == 0) {
      // pwrite accepting zero bytes with room left means the volume has
      // nothing more to give. Name the file and exact byte range, same
      // shape as PreadFully's short-read finding.
      return Status::StorageFull(
          "short write to " + context() + ": wanted " + std::to_string(count) +
          " bytes at offset " +
          std::to_string(static_cast<long long>(start_offset)) + ", got " +
          std::to_string(count - left));
    }
    // A partial write is not an error from the kernel's point of view;
    // keep writing the remainder rather than failing a multi-hour load.
    cursor += n;
    offset += n;
    left -= static_cast<size_t>(n);
  }
  return Status::OK();
}

template <typename Context>
Status PreadLoop(int fd, void* buf, size_t count, off_t offset,
                 const Context& context) {
  const off_t start_offset = offset;
  char* cursor = static_cast<char*>(buf);
  size_t left = count;
  while (left > 0) {
    const ssize_t n = ::pread(fd, cursor, left, offset);
    if (n < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      return ErrnoToStatus(err, context() + " (offset " +
                                    std::to_string(
                                        static_cast<long long>(offset)) +
                                    ")");
    }
    if (n == 0) {
      // Always name the file and the exact byte range: a short read is a
      // structural finding (truncated or mis-sized file) and the operator
      // needs to know where without re-running under a debugger.
      return Status::Corruption(
          "short read from " + context() + ": wanted " +
          std::to_string(count) + " bytes at offset " +
          std::to_string(static_cast<long long>(start_offset)) + ", got " +
          std::to_string(count - left));
    }
    cursor += n;
    offset += n;
    left -= static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status PwriteFully(int fd, const void* buf, size_t count, off_t offset,
                   const std::string& context) {
  return PwriteLoop(fd, buf, count, offset, [&] { return context; });
}

Status PreadFully(int fd, void* buf, size_t count, off_t offset,
                  const std::string& context) {
  return PreadLoop(fd, buf, count, offset, [&] { return context; });
}

Status SyncFd(int fd, const std::string& context) {
  // The fsync primitive itself; callers place CT_FAULT at their own
  // commit points before calling in.
  // ct-lint: allow(fault-pair)
  if (::fsync(fd) != 0) return ErrnoStatus("fsync " + context);
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open dir " + dir);
  Status status = SyncFd(fd, dir);
  ::close(fd);
  return status;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

PageManager::PageManager(std::string path, int fd, PageId num_pages,
                         std::shared_ptr<IoStats> stats)
    : path_(std::move(path)),
      fd_(fd),
      num_pages_(num_pages),
      stats_(std::move(stats)) {
  if (!stats_) stats_ = std::make_shared<IoStats>();
}

PageManager::~PageManager() {
  if (fd_ >= 0) ::close(fd_);
}

void PageManager::SetReadRetryPolicy(int max_attempts, int base_backoff_us) {
  g_read_retry_attempts.store(max_attempts < 1 ? 1 : max_attempts,
                              std::memory_order_relaxed);
  g_read_retry_backoff_us.store(base_backoff_us < 0 ? 0 : base_backoff_us,
                                std::memory_order_relaxed);
}

Result<std::unique_ptr<PageManager>> PageManager::Create(
    const std::string& path, std::shared_ptr<IoStats> stats) {
  CT_FAULT("storage.page.create");
  int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("create " + path);
  return std::unique_ptr<PageManager>(
      new PageManager(path, fd, 0, std::move(stats)));
}

Result<std::unique_ptr<PageManager>> PageManager::Open(
    const std::string& path, std::shared_ptr<IoStats> stats) {
  CT_FAULT("storage.page.open");
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return errno == ENOENT ? Status::NotFound("open " + path +
                                              ": no such file")
                           : ErrnoStatus("open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return ErrnoStatus("stat " + path);
  }
  if (st.st_size % static_cast<off_t>(kPageSize) != 0) {
    ::close(fd);
    return Status::Corruption("page file " + path +
                              " size is not page-aligned");
  }
  PageId pages = static_cast<PageId>(st.st_size / kPageSize);
  return std::unique_ptr<PageManager>(
      new PageManager(path, fd, pages, std::move(stats)));
}

void PageManager::RecordRead(PageId id) {
  const PageId prev = last_read_page_.exchange(id, std::memory_order_relaxed);
  if (prev != kInvalidPageId && id == prev + 1) {
    ++stats_->sequential_reads;
  } else {
    ++stats_->random_reads;
  }
}

void PageManager::RecordWrite(PageId id) {
  const PageId prev =
      last_write_page_.exchange(id, std::memory_order_relaxed);
  if ((prev != kInvalidPageId && id == prev + 1) ||
      (prev == kInvalidPageId && id == 0)) {
    ++stats_->sequential_writes;
  } else {
    ++stats_->random_writes;
  }
}

Result<PageId> PageManager::AllocatePage() {
  Page zero;
  zero.Zero();
  return AppendPage(zero);
}

Status PageManager::ReadPageOnce(PageId id, Page* page) {
  bool flip_bit = false;
  bool trash_page = false;
  if (FaultInjector::AnyArmed()) {
    FaultOutcome outcome =
        FaultInjector::Instance().Check("storage.page.read");
    if (outcome.fail) return outcome.ToStatus();
    flip_bit = outcome.bitflip;
    trash_page = outcome.corrupt_page;
  }
  const off_t offset = static_cast<off_t>(id) * kPageSize;
  CT_RETURN_NOT_OK(PreadLoop(fd_, page->data, kPageSize, offset,
                             [this] { return "pread " + path_; }));
  if (trash_page) {
    // Misdirected read: the transfer "succeeded" but delivered another
    // block's contents. Only checksum verification can tell.
    std::memset(page->data, 0xA5, kPageSize);
  } else if (flip_bit) {
    // One deterministic flipped bit per page id (Knuth-hash position), so
    // repeated reads of the same page reproduce the same damage while
    // different pages are hit in different bytes.
    const size_t bit =
        (static_cast<size_t>(id) * 2654435761u) % (kPageSize * 8);
    page->data[bit / 8] ^= static_cast<char>(1u << (bit % 8));
  }
  return Status::OK();
}

Status PageManager::ReadPage(PageId id, Page* page) {
  CT_DCHECK(page != nullptr);
  CT_DCHECK(fd_ >= 0) << "page file " << path_ << " not open";
  if (id >= NumPages()) {
    return Status::InvalidArgument("read past end of page file " + path_);
  }
  // Every physical page read is a cancellation point: a query session's
  // deadline/cancel token is honored here, so even a cold full-tree scan
  // aborts within one page of the deadline.
  const QueryContext* ctx = QueryContext::Current();
  if (ctx != nullptr) CT_RETURN_NOT_OK(ctx->Check());
  const int max_attempts =
      g_read_retry_attempts.load(std::memory_order_relaxed);
  Status status;
  for (int attempt = 1;; ++attempt) {
    status = ReadPageOnce(id, page);
    // Retry only transient-looking I/O errors; Corruption (short read,
    // torn file) will not heal by itself.
    if (status.ok() || !status.IsIOError()) break;
    if (ctx != nullptr) {
      // The caller's budget, not a fixed attempt count, bounds retries:
      // keep going until the deadline expires or the query is cancelled.
      // Without a deadline the fixed cap still applies — an uncancellable
      // context must not retry forever.
      CT_RETURN_NOT_OK(ctx->Check());
      if (!ctx->has_deadline() && attempt >= max_attempts) break;
    } else if (attempt >= max_attempts) {
      break;
    }
    BackoffBeforeRetry(attempt, ctx);
  }
  if (!status.ok()) return status;
  if (crc_mode_.load(std::memory_order_acquire) == kCrcVerify) {
    CT_RETURN_NOT_OK(VerifyPageChecksum(id, page));
  }
  RecordRead(id);
  // Attribute the physical read to the innermost span of the ambient trace
  // (one thread-local load when no trace is active).
  obs::NotePageRead();
  return Status::OK();
}

Status PageManager::ReadPages(PageId first, size_t n, Page* pages) {
  const auto page_by_page = [&]() -> Status {
    for (size_t i = 0; i < n; ++i) {
      CT_RETURN_NOT_OK(ReadPage(first + static_cast<PageId>(i), &pages[i]));
    }
    return Status::OK();
  };
  if (n <= 1 || FaultInjector::AnyArmed() ||
      static_cast<uint64_t>(first) + n > NumPages()) {
    return page_by_page();
  }
  const QueryContext* ctx = QueryContext::Current();
  if (ctx != nullptr) CT_RETURN_NOT_OK(ctx->Check());
  const off_t offset = static_cast<off_t>(first) * kPageSize;
  if (!PreadLoop(fd_, pages, n * kPageSize, offset, [this] {
         return "pread " + path_;
       }).ok()) {
    // Re-read page by page: retries and the error then belong to the page
    // that failed, exactly as through ReadPage.
    return page_by_page();
  }
  const bool verify = crc_mode_.load(std::memory_order_acquire) == kCrcVerify;
  for (size_t i = 0; i < n; ++i) {
    const PageId id = first + static_cast<PageId>(i);
    if (i > 0 && ctx != nullptr) CT_RETURN_NOT_OK(ctx->Check());
    if (verify) CT_RETURN_NOT_OK(VerifyPageChecksum(id, &pages[i]));
    RecordRead(id);
    obs::NotePageRead();
  }
  return Status::OK();
}

Status PageManager::VerifyPageChecksum(PageId id, Page* page) {
  if (id >= page_crcs_.size()) return Status::OK();
  const uint32_t expected = page_crcs_[id];
  uint32_t actual = Crc32c(page->data, kPageSize);
  if (actual == expected) {
    IntegrityMetrics::Get().pages_verified->Increment();
    return Status::OK();
  }
  IntegrityMetrics::Get().mismatches->Increment();
  // A mismatch can be transient (bad DMA/bus transfer, a flipped bit in
  // flight): a fresh transfer of the same sector heals it. Bad bytes on
  // the platter do not, so after a bounded number of immediate re-reads
  // the mismatch is promoted to Corruption for the repair path.
  for (int attempt = 0; attempt < kChecksumRereads; ++attempt) {
    const Status reread = ReadPageOnce(id, page);
    if (reread.ok()) {
      actual = Crc32c(page->data, kPageSize);
      if (actual == expected) {
        IntegrityMetrics::Get().reread_healed->Increment();
        return Status::OK();
      }
    }
  }
  IntegrityMetrics::Get().corruption_errors->Increment();
  char crcs[64];
  std::snprintf(crcs, sizeof(crcs), "stored 0x%08x, computed 0x%08x",
                expected, actual);
  return Status::Corruption(
      "checksum mismatch on page " + std::to_string(id) + " of " + path_ +
      " (offset " + std::to_string(static_cast<uint64_t>(id) * kPageSize) +
      ", " + std::to_string(kPageSize) + " bytes): " + crcs);
}

void PageManager::StartChecksumTracking() {
  page_crcs_.assign(NumPages(), 0);
  crc_mode_.store(kCrcTrack, std::memory_order_release);
}

Status PageManager::FinalizeChecksums() {
  if (crc_mode_.load(std::memory_order_relaxed) != kCrcTrack) {
    return Status::InvalidArgument("FinalizeChecksums on " + path_ +
                                   " without StartChecksumTracking");
  }
  if (page_crcs_.size() != NumPages()) {
    return Status::Internal("checksum table for " + path_ + " covers " +
                            std::to_string(page_crcs_.size()) + " of " +
                            std::to_string(NumPages()) + " pages");
  }
  CT_RETURN_NOT_OK(WriteChecksumSidecar(path_, page_crcs_));
  crc_mode_.store(kCrcVerify, std::memory_order_release);
  return Status::OK();
}

Status PageManager::LoadChecksums() {
  std::vector<uint32_t> table;
  CT_RETURN_NOT_OK(LoadChecksumSidecar(path_, &table));
  if (table.size() != NumPages()) {
    return Status::Corruption(
        "checksum sidecar " + ChecksumSidecarPath(path_) + " covers " +
        std::to_string(table.size()) + " pages but " + path_ + " has " +
        std::to_string(NumPages()));
  }
  page_crcs_ = std::move(table);
  crc_mode_.store(kCrcVerify, std::memory_order_release);
  return Status::OK();
}

Status PageManager::WritePageAt(PageId id, const Page& page,
                                const char* failpoint) {
  const off_t offset = static_cast<off_t>(id) * kPageSize;
  if (FaultInjector::AnyArmed()) {
    FaultOutcome outcome = FaultInjector::Instance().Check(failpoint);
    if (outcome.torn) {
      // Persist a prefix of the page, then report failure: the user-space
      // analog of a power cut mid-sector-write. Downstream readers must
      // treat the tail as garbage.
      (void)PwriteFully(fd_, page.data, kPageSize / 3, offset,
                        "torn pwrite " + path_);
      return outcome.ToStatus();
    }
    if (outcome.short_write) {
      // The volume filled up mid-page: the kernel accepted a prefix and
      // the retry loop got nothing more. Persist the prefix (the damage a
      // real ENOSPC leaves behind), then report the exact byte range the
      // way PwriteFully would.
      const size_t persisted = kPageSize / 3;
      (void)PwriteFully(fd_, page.data, persisted, offset,
                        "short pwrite " + path_);
      return Status::StorageFull(
          "short write to pwrite " + path_ + ": wanted " +
          std::to_string(kPageSize) + " bytes at offset " +
          std::to_string(static_cast<long long>(offset)) + ", got " +
          std::to_string(persisted));
    }
    if (outcome.fail) return outcome.ToStatus();
  }
  CT_RETURN_NOT_OK(PwriteLoop(fd_, page.data, kPageSize, offset,
                              [this] { return "pwrite " + path_; }));
  TrackChecksum(id, page);
  return Status::OK();
}

void PageManager::TrackChecksum(PageId id, const Page& page) {
  if (crc_mode_.load(std::memory_order_relaxed) != kCrcTrack) return;
  // Single-writer build thread (same discipline as appends): fold the
  // page into the table that FinalizeChecksums persists.
  if (page_crcs_.size() <= id) page_crcs_.resize(id + 1, 0);
  page_crcs_[id] = Crc32c(page.data, kPageSize);
}

Status PageManager::WritePage(PageId id, const Page& page) {
  if (id >= NumPages()) {
    return Status::InvalidArgument("write past end of page file " + path_);
  }
  CT_RETURN_NOT_OK(WritePageAt(id, page, "storage.page.write"));
  RecordWrite(id);
  return Status::OK();
}

Result<PageId> PageManager::AppendPage(const Page& page) {
  // Appends are single-writer per file (one build or refresh thread); the
  // atomic only keeps concurrent NumPages() probes race-free.
  const PageId id = NumPages();
  CT_RETURN_NOT_OK(WritePageAt(id, page, "storage.page.append"));
  num_pages_.store(id + 1, std::memory_order_relaxed);
  RecordWrite(id);
  return id;
}

Result<PageId> PageManager::AppendPages(const Page* pages, size_t n) {
  const PageId first = NumPages();
  const auto page_by_page = [&]() -> Result<PageId> {
    for (size_t i = 0; i < n; ++i) CT_RETURN_NOT_OK(AppendPage(pages[i]).status());
    return first;
  };
  if (n <= 1 || FaultInjector::AnyArmed()) return page_by_page();
  const off_t offset = static_cast<off_t>(first) * kPageSize;
  if (!PwriteLoop(fd_, pages, n * kPageSize, offset, [this] {
         return "pwrite " + path_;
       }).ok()) {
    // Rewrite page by page from the first: the pages that fit land again,
    // and the error belongs to the page that failed, exactly as through
    // AppendPage.
    return page_by_page();
  }
  for (size_t i = 0; i < n; ++i) {
    const PageId id = first + static_cast<PageId>(i);
    TrackChecksum(id, pages[i]);
    num_pages_.store(id + 1, std::memory_order_relaxed);
    RecordWrite(id);
  }
  return first;
}

Status PageManager::Sync() {
  CT_FAULT("storage.page.sync");
  return SyncFd(fd_, path_);
}

Status RemoveFileIfExists(const std::string& path) {
  CT_FAULT("storage.file.remove");
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("unlink " + path);
  }
  return Status::OK();
}

}  // namespace cubetree
