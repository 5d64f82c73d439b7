#include "check/invariant_checker.h"

#include <cstdio>
#include <sstream>

namespace cubetree {

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "INFO";
    case Severity::kWarning:
      return "WARNING";
    case Severity::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

namespace {

/// Escapes a string for inclusion in a JSON string literal.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void CheckReport::Add(Finding finding) {
  size_t same_code = 0;
  for (const Finding& f : findings_) {
    if (f.component == finding.component && f.code == finding.code) {
      ++same_code;
    }
  }
  switch (finding.severity) {
    case Severity::kError:
      ++errors_;
      break;
    case Severity::kWarning:
      ++warnings_;
      break;
    case Severity::kInfo:
      break;
  }
  if (same_code >= kMaxFindingsPerCode) {
    ++suppressed_;
    return;
  }
  findings_.push_back(std::move(finding));
}

void CheckReport::AddError(const std::string& component,
                           const std::string& code,
                           const std::string& message,
                           const std::string& context) {
  Add(Finding{Severity::kError, component, code, message, context});
}

void CheckReport::AddWarning(const std::string& component,
                             const std::string& code,
                             const std::string& message,
                             const std::string& context) {
  Add(Finding{Severity::kWarning, component, code, message, context});
}

void CheckReport::AddInfo(const std::string& component,
                          const std::string& code, const std::string& message,
                          const std::string& context) {
  Add(Finding{Severity::kInfo, component, code, message, context});
}

std::string CheckReport::ToString() const {
  std::ostringstream out;
  for (const Finding& f : findings_) {
    out << SeverityName(f.severity) << " [" << f.component << "/" << f.code
        << "] " << f.message;
    if (!f.context.empty()) out << " (" << f.context << ")";
    out << "\n";
  }
  out << errors_ << " error(s), " << warnings_ << " warning(s)";
  if (suppressed_ > 0) out << ", " << suppressed_ << " suppressed";
  out << "\n";
  return out.str();
}

std::string CheckReport::ToJson() const {
  std::ostringstream out;
  out << "{\"findings\":[";
  for (size_t i = 0; i < findings_.size(); ++i) {
    const Finding& f = findings_[i];
    if (i > 0) out << ",";
    out << "{\"severity\":\"" << SeverityName(f.severity)
        << "\",\"component\":\"" << JsonEscape(f.component)
        << "\",\"code\":\"" << JsonEscape(f.code) << "\",\"message\":\""
        << JsonEscape(f.message) << "\",\"context\":\""
        << JsonEscape(f.context) << "\"}";
  }
  out << "],\"errors\":" << errors_ << ",\"warnings\":" << warnings_
      << ",\"suppressed\":" << suppressed_ << ",\"clean\":"
      << (clean() ? "true" : "false") << "}";
  return out.str();
}

}  // namespace cubetree
