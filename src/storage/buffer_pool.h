#ifndef CUBETREE_STORAGE_BUFFER_POOL_H_
#define CUBETREE_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page.h"
#include "storage/page_manager.h"

namespace cubetree {

class BufferPool;

/// RAII pin on a buffered page. While a handle is alive the frame cannot be
/// evicted. Call MarkDirty() after mutating the page image so the pool
/// writes it back on eviction/flush.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle();

  bool valid() const { return pool_ != nullptr; }
  Page* page() const { return page_; }
  char* data() const { return page_->data; }
  PageId id() const { return id_; }
  void MarkDirty();

  /// Releases the pin early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, size_t frame, Page* page, PageId id)
      : pool_(pool), frame_(frame), page_(page), id_(id) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  Page* page_ = nullptr;
  PageId id_ = kInvalidPageId;
};

/// Cache hit/miss accounting for the pool.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;

  double HitRatio() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
  void Clear() { *this = BufferPoolStats{}; }
};

/// Fixed-capacity LRU buffer pool shared by every paged structure of one
/// engine configuration. Capacity is given in pages; the default benchmark
/// configuration sizes it to the paper's 32 MB machine.
///
/// Thread-safe: one internal mutex serializes all frame bookkeeping,
/// including the disk read of a miss (the pool is an LRU cache, not a
/// parallel I/O scheduler — see DESIGN.md §9). Fetch is additionally a
/// cancellation point for the ambient QueryContext, so queries observing a
/// deadline abort even when every page they touch is already cached.
class BufferPool {
 public:
  explicit BufferPool(size_t capacity_pages);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a pinned handle on page (file, id), reading it from disk on a
  /// miss. Fails with ResourceExhausted if every frame is pinned.
  Result<PageHandle> Fetch(PageManager* file, PageId id) EXCLUDES(mu_);

  /// Allocates a fresh zeroed page in `file` and returns it pinned and
  /// dirty.
  Result<PageHandle> New(PageManager* file) EXCLUDES(mu_);

  /// Writes back all dirty pages (keeps them cached).
  Status FlushAll() EXCLUDES(mu_);

  /// Writes back and evicts every cached page of `file`. Must be called
  /// before closing or replacing a file that went through the pool.
  Status DropFile(PageManager* file, bool write_back = true) EXCLUDES(mu_);

  size_t capacity() const { return capacity_; }
  /// Number of frames currently pinned by live PageHandles. Nonzero at
  /// shutdown means a handle leaked (the destructor logs and, under
  /// CT_DCHECK, aborts); the invariant checker reports it as a finding.
  size_t PinnedPages() const EXCLUDES(mu_);
  /// Counter reads are safe only once concurrent pool activity has
  /// quiesced (how every bench and checker uses them) — hence the analysis
  /// opt-out rather than a lock acquisition.
  const BufferPoolStats& stats() const NO_THREAD_SAFETY_ANALYSIS {
    return stats_;
  }
  BufferPoolStats* mutable_stats() NO_THREAD_SAFETY_ANALYSIS {
    return &stats_;
  }

 private:
  friend class PageHandle;

  struct Frame {
    PageManager* file = nullptr;
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    std::unique_ptr<Page> page;
    // Position in lru_ when unpinned; lru_.end() while pinned.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
  };

  using Key = std::pair<const PageManager*, PageId>;

  void Unpin(size_t frame_index) EXCLUDES(mu_);
  void MarkFrameDirty(size_t frame_index) EXCLUDES(mu_);
  // The private helpers below expect mu_ held by the caller.
  size_t PinnedPagesLocked() const REQUIRES(mu_);
  /// Finds a frame to (re)use, evicting the LRU unpinned page if needed.
  Result<size_t> GrabFrame() REQUIRES(mu_);
  Status EvictFrame(size_t frame_index, bool write_back) REQUIRES(mu_);

  size_t capacity_;
  mutable Mutex mu_;
  std::vector<Frame> frames_ GUARDED_BY(mu_);
  std::vector<size_t> free_frames_ GUARDED_BY(mu_);
  std::map<Key, size_t> page_table_ GUARDED_BY(mu_);
  /// Front = most recent, back = eviction victim.
  std::list<size_t> lru_ GUARDED_BY(mu_);
  BufferPoolStats stats_ GUARDED_BY(mu_);
};

}  // namespace cubetree

#endif  // CUBETREE_STORAGE_BUFFER_POOL_H_
