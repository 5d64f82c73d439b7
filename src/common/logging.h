#ifndef CUBETREE_COMMON_LOGGING_H_
#define CUBETREE_COMMON_LOGGING_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

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

/// Reads all of `text` as an unsigned decimal integer no greater than
/// `max`: digits only, so a sign, whitespace or trailing text is refused,
/// and so is overflow, which strtoull wraps or saturates. The one parser of
/// the unsigned integers a user hands the program: environment variables,
/// flags, failpoint specs and query literals.
std::optional<uint64_t> ParseUint(
    std::string_view text, uint64_t max = std::numeric_limits<uint64_t>::max());

/// Reads the environment variable `name` with ParseUint. Returns `fallback`
/// when it is unset or empty, and also, after one WARN line naming the
/// variable, when it is malformed. Every CUBETREE_* integer setting is read
/// through here; callers add their own range checks.
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
