#ifndef CUBETREE_COMMON_LOGGING_H_
#define CUBETREE_COMMON_LOGGING_H_

#include <cstdint>
#include <sstream>
#include <string>

namespace cubetree {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the minimum level that reaches stderr (default kInfo).
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Applies the CUBETREE_LOG_LEVEL environment variable (one of debug, info,
/// warn, error; case-insensitive) if set, so binaries can be made chatty or
/// quiet in the field without a rebuild. Unset or unrecognized values leave
/// the level untouched; unrecognized values also get a WARN line. Called at
/// startup by every example and bench binary.
void InitLogLevelFromEnv();

/// Reads the environment variable `name` as an unsigned decimal integer:
/// digits only (no sign, whitespace or trailing bytes) and below 2^64.
/// Returns `fallback` when it is unset or empty, and also, after one WARN
/// line naming the variable, when it is malformed. Every CUBETREE_*
/// integer setting is read through here; callers add their own range
/// checks.
uint64_t EnvUint64(const char* name, uint64_t fallback);

namespace internal {

/// Stream-style log line; emits to stderr on destruction if `level` passes
/// the global threshold.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

#define CT_LOG(level)                                                   \
  ::cubetree::internal::LogMessage(::cubetree::LogLevel::k##level,      \
                                   __FILE__, __LINE__)                  \
      .stream()

}  // namespace cubetree

#endif  // CUBETREE_COMMON_LOGGING_H_
