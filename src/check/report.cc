#include <sstream>

#include "check/check.h"
#include "obs/json.h"

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

Status CheckReport::FirstError(size_t from) const {
  for (size_t i = from; i < findings_.size(); ++i) {
    const Finding& f = findings_[i];
    if (f.severity != Severity::kError) continue;
    return Status::Corruption(f.code + ": " + f.message +
                              (f.context.empty() ? "" : " (" + f.context + ")"));
  }
  return Status::OK();
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
  using obs::JsonValue;
  JsonValue findings = JsonValue::MakeArray();
  for (const Finding& f : findings_) {
    JsonValue finding = JsonValue::MakeObject();
    finding.Set("severity", JsonValue(SeverityName(f.severity)));
    finding.Set("component", JsonValue(f.component));
    finding.Set("code", JsonValue(f.code));
    finding.Set("message", JsonValue(f.message));
    finding.Set("context", JsonValue(f.context));
    findings.Append(std::move(finding));
  }
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("findings", std::move(findings));
  doc.Set("errors", JsonValue(static_cast<uint64_t>(errors_)));
  doc.Set("warnings", JsonValue(static_cast<uint64_t>(warnings_)));
  doc.Set("suppressed", JsonValue(static_cast<uint64_t>(suppressed_)));
  doc.Set("clean", JsonValue(clean()));
  return doc.Dump(/*indent=*/-1);
}

}  // namespace cubetree
