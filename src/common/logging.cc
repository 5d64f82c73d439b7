#include "common/logging.h"

#include <atomic>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace cubetree {

namespace {
std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

void InitLogLevelFromEnv() {
  const char* value = std::getenv("CUBETREE_LOG_LEVEL");
  if (value == nullptr || value[0] == '\0') return;
  std::string lower(value);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "debug") {
    SetLogLevel(LogLevel::kDebug);
  } else if (lower == "info") {
    SetLogLevel(LogLevel::kInfo);
  } else if (lower == "warn" || lower == "warning") {
    SetLogLevel(LogLevel::kWarn);
  } else if (lower == "error") {
    SetLogLevel(LogLevel::kError);
  } else {
    CT_LOG(Warn) << "CUBETREE_LOG_LEVEL=" << value
                 << " not recognized (want debug|info|warn|error); keeping "
                 << LevelName(GetLogLevel());
  }
}

std::optional<uint64_t> ParseUint(std::string_view text, uint64_t max) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value > max) return std::nullopt;
  return value;
}

uint64_t EnvUint64(const char* name, uint64_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return fallback;
  const std::optional<uint64_t> value = ParseUint(text);
  if (!value.has_value()) {
    CT_LOG(Warn) << name << "='" << text
                 << "' is not a decimal integer below 2^64; using "
                 << fallback;
    return fallback;
  }
  return *value;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = std::strrchr(file, '/');
  stream_ << "[" << LevelName(level) << " " << (base ? base + 1 : file) << ":"
          << line << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) <
      g_min_level.load(std::memory_order_relaxed)) {
    return;
  }
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
}

}  // namespace internal

}  // namespace cubetree
