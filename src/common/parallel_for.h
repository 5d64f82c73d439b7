#ifndef CUBETREE_COMMON_PARALLEL_FOR_H_
#define CUBETREE_COMMON_PARALLEL_FOR_H_

#include <atomic>
#include <cstddef>
#include <functional>

#include "common/status.h"

namespace cubetree {

/// Cooperative cancellation flag shared by the tasks of one ParallelFor
/// call. The first task to fail sets it; long-running sibling tasks are
/// expected to poll `cancelled()` at convenient points and bail out with
/// Status::Cancelled, so one worker's StorageFull does not leave the other
/// workers packing trees that will be thrown away anyway.
class CancelFlag {
 public:
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Resolves the refresh worker-pool width: CUBETREE_REFRESH_THREADS when
/// set to a positive integer, else std::thread::hardware_concurrency()
/// (itself floored at 1), both clamped to 64. The same width computes a
/// load's, refresh's or repair's views (CubeBuilder::ComputeAll) and packs
/// the forest's trees, one after the other.
unsigned RefreshThreadsFromEnv();

/// Runs fn(task_index, cancel) for every index in [0, num_tasks) on a
/// bounded pool of at most `threads` worker threads, dispatching indices
/// dynamically (an atomic counter, so short tasks backfill behind long
/// ones). Returns the first non-OK status, after all workers have
/// quiesced; the flag is cancelled on first error so siblings can stop
/// early, and no new task starts once it is set.
///
/// With threads <= 1 (or a single task) fn runs inline on the caller's
/// thread. Otherwise the caller only coordinates — it never runs tasks
/// itself — so fn may rely on being off the calling thread (e.g. to adopt
/// the caller's trace into a per-worker child trace).
///
/// If fn throws, the first exception is captured and rethrown on the
/// calling thread after the pool has been joined (fault-injected `throw`
/// actions keep their crash-test semantics); siblings are cancelled just
/// as for an error status.
Status ParallelFor(size_t num_tasks, unsigned threads,
                   const std::function<Status(size_t, CancelFlag*)>& fn);

}  // namespace cubetree

#endif  // CUBETREE_COMMON_PARALLEL_FOR_H_
