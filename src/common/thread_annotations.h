#ifndef CUBETREE_COMMON_THREAD_ANNOTATIONS_H_
#define CUBETREE_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

/// Clang Thread Safety Analysis support: capability attribute macros plus
/// annotated mutex wrappers. Under clang the annotations turn the locking
/// discipline documented in DESIGN.md §12 into compile errors
/// (-Wthread-safety -Werror=thread-safety, wired up in CMakeLists.txt when
/// the compiler is clang); under gcc they expand to nothing and the
/// wrappers cost exactly a std::mutex.
///
/// Usage pattern (see clang.llvm.org/docs/ThreadSafetyAnalysis.html):
///
///   class Account {
///     void Withdraw(int amount) EXCLUDES(mu_) {
///       MutexLock lock(mu_);
///       DebitLocked(amount);
///     }
///    private:
///     void DebitLocked(int amount) REQUIRES(mu_);
///     Mutex mu_;
///     int balance_ GUARDED_BY(mu_);
///   };
///
/// Every mutex in the library must be a wrapper from this header, never a
/// raw std::mutex — enforced by scripts/ct_lint.py (rule `raw-mutex`), so
/// no lock can silently opt out of the analysis.

#if defined(__clang__) && defined(__has_attribute)
#define CT_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define CT_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op outside clang
#endif

/// Declares a class to be a capability (lockable) type.
#define CAPABILITY(x) CT_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Declares an RAII class whose constructor acquires and destructor
/// releases a capability.
#define SCOPED_CAPABILITY CT_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// The annotated field may only be accessed while holding the given
/// capability.
#define GUARDED_BY(x) CT_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// The pointee of the annotated pointer field is protected by the given
/// capability (the pointer itself is not).
#define PT_GUARDED_BY(x) CT_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// The annotated function acquires the capability and does not release it.
#define ACQUIRE(...) \
  CT_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

/// The annotated function releases a capability acquired earlier.
#define RELEASE(...) \
  CT_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

/// The caller must hold the capability to call the annotated function
/// (internal helpers that expect the lock held, e.g. *Locked() methods).
#define REQUIRES(...) \
  CT_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

/// The caller must NOT hold the capability (the function acquires it
/// itself; calling with it held would self-deadlock).
#define EXCLUDES(...) CT_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (for code the analysis
/// cannot follow).
#define ASSERT_CAPABILITY(x) \
  CT_THREAD_ANNOTATION_ATTRIBUTE_(assert_capability(x))

/// The annotated function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) CT_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Turns the analysis off for one function. Reserve for deliberate,
/// documented exceptions (e.g. quiesced-read accessors).
#define NO_THREAD_SAFETY_ANALYSIS \
  CT_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

namespace cubetree {

class CondVar;

/// Annotated exclusive mutex. Identical cost to std::mutex; exists so
/// fields can be GUARDED_BY(mu_) and the analysis can prove the guard.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII exclusive lock on a Mutex (the library's std::lock_guard /
/// std::unique_lock). Holds a std::unique_lock internally so CondVar can
/// wait on it.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable that waits on a MutexLock. Waiting releases and
/// reacquires the lock internally; from the analysis' point of view the
/// capability is held across the wait, which is sound because it is held
/// both when Wait is called and when it returns.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      MutexLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.lock_, deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(MutexLock& lock,
                         const std::chrono::duration<Rep, Period>& timeout) {
    return cv_.wait_for(lock.lock_, timeout);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace cubetree

/// The issue-facing alias: docs and examples refer to ct::Mutex etc.
namespace ct = cubetree;

#endif  // CUBETREE_COMMON_THREAD_ANNOTATIONS_H_
