#include "storage/buffer_pool.h"

#include "common/assert.h"
#include "common/logging.h"
#include "common/query_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cubetree {

namespace {

/// Registry hooks for the pool's hot path; pointers resolved once.
struct PoolMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;

  static const PoolMetrics& Get() {
    static const PoolMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Instance();
      return PoolMetrics{reg.GetCounter("bufferpool.hits"),
                         reg.GetCounter("bufferpool.misses"),
                         reg.GetCounter("bufferpool.evictions")};
    }();
    return m;
  }
};

}  // namespace

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_ = other.page_;
    id_ = other.id_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::MarkDirty() {
  CT_ASSERT(pool_ != nullptr) << "MarkDirty on an invalid PageHandle";
  pool_->MarkFrameDirty(frame_);
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    page_ = nullptr;
  }
}

BufferPool::BufferPool(size_t capacity_pages)
    : capacity_(capacity_pages == 0 ? 1 : capacity_pages) {
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (size_t i = capacity_; i > 0; --i) free_frames_.push_back(i - 1);
}

BufferPool::~BufferPool() {
  {
    MutexLock lock(mu_);
    // A frame still pinned here means a PageHandle outlived the pool: its
    // page pointer is about to dangle. Surface the leak instead of
    // silently tearing down.
    const size_t pinned = PinnedPagesLocked();
    if (pinned > 0) {
      for (const Frame& f : frames_) {
        if (f.pin_count > 0) {
          CT_LOG(Error) << "buffer pool: page " << f.page_id << " of "
                        << (f.file != nullptr ? f.file->path() : "<none>")
                        << " still pinned " << f.pin_count
                        << " time(s) at pool shutdown";
        }
      }
      CT_DCHECK(pinned == 0)
          << pinned << " frame(s) still pinned at BufferPool shutdown";
    }
  }
  // Best effort: write back whatever is dirty. Errors here cannot be
  // reported; production callers should FlushAll() explicitly.
  (void)FlushAll();
}

size_t BufferPool::PinnedPagesLocked() const {
  size_t pinned = 0;
  for (const Frame& f : frames_) {
    if (f.file != nullptr && f.pin_count > 0) ++pinned;
  }
  return pinned;
}

size_t BufferPool::PinnedPages() const {
  MutexLock lock(mu_);
  return PinnedPagesLocked();
}

void BufferPool::Unpin(size_t frame_index) {
  MutexLock lock(mu_);
  Frame& f = frames_[frame_index];
  CT_ASSERT(f.pin_count > 0) << "unpin of page " << f.page_id
                             << " with zero pin count";
  --f.pin_count;
  if (f.pin_count == 0 && !f.in_lru) {
    lru_.push_front(frame_index);
    f.lru_pos = lru_.begin();
    f.in_lru = true;
  }
}

void BufferPool::MarkFrameDirty(size_t frame_index) {
  MutexLock lock(mu_);
  frames_[frame_index].dirty = true;
}

Status BufferPool::EvictFrame(size_t frame_index, bool write_back) {
  Frame& f = frames_[frame_index];
  CT_DCHECK(f.pin_count == 0) << "evicting pinned page " << f.page_id;
  if (f.dirty && write_back) {
    CT_RETURN_NOT_OK(f.file->WritePage(f.page_id, *f.page));
    ++stats_.dirty_writebacks;
  }
  if (f.in_lru) {
    lru_.erase(f.lru_pos);
    f.in_lru = false;
  }
  page_table_.erase({f.file, f.page_id});
  f.file = nullptr;
  f.page_id = kInvalidPageId;
  f.dirty = false;
  return Status::OK();
}

Result<size_t> BufferPool::GrabFrame() {
  if (!free_frames_.empty()) {
    size_t idx = free_frames_.back();
    // Frames allocate lazily, on first use.
    if (!frames_[idx].page) frames_[idx].page = std::make_unique<Page>();
    free_frames_.pop_back();
    return idx;
  }
  if (lru_.empty()) {
    return Status::ResourceExhausted(
        "buffer pool: all frames pinned, cannot evict");
  }
  size_t victim = lru_.back();
  CT_RETURN_NOT_OK(EvictFrame(victim, /*write_back=*/true));
  ++stats_.evictions;
  PoolMetrics::Get().evictions->Increment();
  return victim;
}

Result<PageHandle> BufferPool::Fetch(PageManager* file, PageId id) {
  // Cancellation point even on the hit path: a hot query whose pages are
  // all cached must still notice its deadline within one page touch.
  if (const QueryContext* ctx = QueryContext::Current()) {
    CT_RETURN_NOT_OK(ctx->Check());
  }
  MutexLock lock(mu_);
  auto it = page_table_.find({file, id});
  if (it != page_table_.end()) {
    ++stats_.hits;
    PoolMetrics::Get().hits->Increment();
    obs::NotePoolHit();
    size_t idx = it->second;
    Frame& f = frames_[idx];
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    ++f.pin_count;
    return PageHandle(this, idx, f.page.get(), id);
  }
  ++stats_.misses;
  PoolMetrics::Get().misses->Increment();
  CT_ASSIGN_OR_RETURN(size_t idx, GrabFrame());
  Frame& f = frames_[idx];
  Status read = file->ReadPage(id, f.page.get());
  if (!read.ok()) {
    // Failed-read invariant: the frame must return to the free list fully
    // disassociated. GrabFrame hands out frames with f.file == nullptr
    // (fresh ones start that way; evicted ones were cleared by EvictFrame),
    // the page-table entry is only inserted after a successful read, and
    // f.file/page_id/pin_count are only assigned below — so pushing the
    // frame back leaks nothing and leaves no stale mapping for this (file,
    // id) or the evicted predecessor. Exercised by the
    // FetchReadError* regression tests under an armed storage.page.read
    // failpoint.
    free_frames_.push_back(idx);
    return read;
  }
  f.file = file;
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = false;
  page_table_[{file, id}] = idx;
  return PageHandle(this, idx, f.page.get(), id);
}

Result<PageHandle> BufferPool::New(PageManager* file) {
  MutexLock lock(mu_);
  CT_ASSIGN_OR_RETURN(PageId id, file->AllocatePage());
  CT_ASSIGN_OR_RETURN(size_t idx, GrabFrame());
  Frame& f = frames_[idx];
  f.page->Zero();
  f.file = file;
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = true;
  page_table_[{file, id}] = idx;
  return PageHandle(this, idx, f.page.get(), id);
}

Status BufferPool::FlushAll() {
  MutexLock lock(mu_);
  for (Frame& f : frames_) {
    if (f.file != nullptr && f.dirty) {
      CT_RETURN_NOT_OK(f.file->WritePage(f.page_id, *f.page));
      ++stats_.dirty_writebacks;
      f.dirty = false;
    }
  }
  return Status::OK();
}

Status BufferPool::DropFile(PageManager* file, bool write_back) {
  MutexLock lock(mu_);
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (f.file == file) {
      if (f.pin_count != 0) {
        return Status::Internal("DropFile: page still pinned");
      }
      CT_RETURN_NOT_OK(EvictFrame(i, write_back));
      free_frames_.push_back(i);
    }
  }
  return Status::OK();
}

}  // namespace cubetree
