#ifndef CUBETREE_COMMON_STATUS_H_
#define CUBETREE_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace cubetree {

/// Error codes used across the library. Modeled after the RocksDB/Arrow
/// convention: library code reports failures through Status values instead of
/// exceptions, so every fallible call site is visible in the source.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kIOError = 3,
  kCorruption = 4,
  kNotSupported = 5,
  kAlreadyExists = 6,
  kResourceExhausted = 7,
  kInternal = 8,
  /// The target exists but is temporarily out of service (e.g. a
  /// quarantined Cubetree awaiting rebuild) — retry after repair.
  kUnavailable = 9,
  /// The caller abandoned the operation via its QueryContext token.
  kCancelled = 10,
  /// The operation's deadline expired before it completed.
  kDeadlineExceeded = 11,
  /// The underlying volume is out of space (ENOSPC/EDQUOT or a short
  /// write): distinct from kIOError because nothing is broken — the
  /// operation will succeed once space is reclaimed, so it is retriable.
  kStorageFull = 12,
};

/// A Status is either OK (cheap, no allocation) or an error code plus a
/// human-readable message describing what failed.
///
/// The class itself is [[nodiscard]]: every function returning a Status
/// forces its caller to consume the result, so an error can never be
/// dropped silently. A call site that genuinely cannot act on a failure
/// (a destructor, a best-effort cleanup path) must say so with an
/// explicit `(void)` cast next to a comment explaining why dropping is
/// safe.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string_view msg) {
    return Status(StatusCode::kInvalidArgument, msg);
  }
  static Status NotFound(std::string_view msg) {
    return Status(StatusCode::kNotFound, msg);
  }
  static Status IOError(std::string_view msg) {
    return Status(StatusCode::kIOError, msg);
  }
  static Status Corruption(std::string_view msg) {
    return Status(StatusCode::kCorruption, msg);
  }
  static Status NotSupported(std::string_view msg) {
    return Status(StatusCode::kNotSupported, msg);
  }
  static Status AlreadyExists(std::string_view msg) {
    return Status(StatusCode::kAlreadyExists, msg);
  }
  static Status ResourceExhausted(std::string_view msg) {
    return Status(StatusCode::kResourceExhausted, msg);
  }
  static Status Internal(std::string_view msg) {
    return Status(StatusCode::kInternal, msg);
  }
  static Status Unavailable(std::string_view msg) {
    return Status(StatusCode::kUnavailable, msg);
  }
  static Status Cancelled(std::string_view msg) {
    return Status(StatusCode::kCancelled, msg);
  }
  static Status DeadlineExceeded(std::string_view msg) {
    return Status(StatusCode::kDeadlineExceeded, msg);
  }
  static Status StorageFull(std::string_view msg) {
    return Status(StatusCode::kStorageFull, msg);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsStorageFull() const { return code_ == StatusCode::kStorageFull; }

  /// True for failures a caller may reasonably retry as-is: transient I/O
  /// errors, temporary unavailability (quarantine pending rebuild),
  /// resource exhaustion (all buffer frames pinned),
  /// and a full disk (space frees up as epochs are reclaimed or the operator
  /// intervenes). A DeadlineExceeded or Cancelled status is the *caller's*
  /// verdict, not a transient server condition, so it is deliberately not
  /// retriable here.
  bool IsRetriable() const {
    return code_ == StatusCode::kIOError ||
           code_ == StatusCode::kUnavailable ||
           code_ == StatusCode::kResourceExhausted ||
           code_ == StatusCode::kStorageFull;
  }

  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  Status(StatusCode code, std::string_view msg) : code_(code), msg_(msg) {}

  StatusCode code_ = StatusCode::kOk;
  std::string msg_;
};

/// Evaluates an expression returning Status and propagates any error to the
/// caller. Usage: CT_RETURN_NOT_OK(file.Write(...));
#define CT_RETURN_NOT_OK(expr)                 \
  do {                                         \
    ::cubetree::Status _st = (expr);           \
    if (!_st.ok()) return _st;                 \
  } while (0)

}  // namespace cubetree

#endif  // CUBETREE_COMMON_STATUS_H_
