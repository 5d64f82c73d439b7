#include "common/parallel_for.h"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace cubetree {

unsigned RefreshThreadsFromEnv() {
  constexpr unsigned kMaxThreads = 64;
  const uint64_t threads = EnvUint64("CUBETREE_REFRESH_THREADS", 0);
  if (threads > 0) {
    return static_cast<unsigned>(std::min<uint64_t>(threads, kMaxThreads));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min(std::max(hw, 1u), kMaxThreads);
}

Status ParallelFor(size_t num_tasks, unsigned threads,
                   const std::function<Status(size_t, CancelFlag*)>& fn) {
  if (num_tasks == 0) return Status::OK();
  CancelFlag cancel;
  threads = static_cast<unsigned>(
      std::min<size_t>(std::max(threads, 1u), num_tasks));
  if (threads <= 1) {
    // Inline path: exceptions propagate naturally, errors return directly.
    // The flag still exists so fn can observe a cancellation it requested
    // itself (e.g. a mid-stream failure seen by a wrapped source).
    for (size_t t = 0; t < num_tasks; ++t) {
      if (cancel.cancelled()) break;
      Status st = fn(t, &cancel);
      if (!st.ok()) return st;
    }
    return Status::OK();
  }

  std::atomic<size_t> next{0};
  Mutex mu;
  Status first_error;             // GUARDED_BY(mu), but locals can't annotate.
  std::exception_ptr first_throw; // Likewise.
  const auto worker = [&]() {
    while (!cancel.cancelled()) {
      const size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= num_tasks) break;
      Status st;
      try {
        st = fn(t, &cancel);
      } catch (...) {
        MutexLock lock(mu);
        if (!first_throw) first_throw = std::current_exception();
        cancel.Cancel();
        break;
      }
      if (!st.ok()) {
        MutexLock lock(mu);
        // Keep the root cause: a sibling's Cancelled must not displace the
        // real error, so only the first failure is recorded. (Cancelled
        // statuses can only be produced after Cancel(), i.e. after some
        // first failure was already latched.)
        if (first_error.ok()) first_error = std::move(st);
        cancel.Cancel();
        break;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();

  if (first_throw) std::rethrow_exception(first_throw);
  return first_error;
}

}  // namespace cubetree
