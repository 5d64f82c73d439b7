#ifndef CUBETREE_CHECK_INVARIANT_CHECKER_H_
#define CUBETREE_CHECK_INVARIANT_CHECKER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace cubetree {

/// Severity of one invariant finding.
enum class Severity : int {
  /// Informational — surfaced in reports, never affects exit status.
  kInfo = 0,
  /// Suspicious but not provably corrupt (e.g. under-filled leaves).
  kWarning = 1,
  /// A structural invariant is violated; the store is corrupt.
  kError = 2,
};

const char* SeverityName(Severity severity);

/// One violated (or noteworthy) invariant, as reported by a checker.
struct Finding {
  Severity severity = Severity::kError;
  /// Component that owns the invariant: "rtree", "forest", "wal",
  /// "bufferpool", "btree".
  std::string component;
  /// Stable machine-readable code, e.g. "pack-order", "mbr-containment".
  std::string code;
  /// Human-readable description of what is wrong.
  std::string message;
  /// Where: file path, page id, view id... Free-form, may be empty.
  std::string context;
};

/// Accumulates findings across checkers. Checkers report as many distinct
/// violations as they can (capped per code so one systemic fault cannot
/// flood the report) instead of stopping at the first.
class CheckReport {
 public:
  /// Per-(component, code) cap on recorded findings; further ones only
  /// bump the suppressed counter.
  static constexpr size_t kMaxFindingsPerCode = 20;

  void Add(Finding finding);
  void AddError(const std::string& component, const std::string& code,
                const std::string& message, const std::string& context = "");
  void AddWarning(const std::string& component, const std::string& code,
                  const std::string& message, const std::string& context = "");
  void AddInfo(const std::string& component, const std::string& code,
               const std::string& message, const std::string& context = "");

  const std::vector<Finding>& findings() const { return findings_; }
  size_t errors() const { return errors_; }
  size_t warnings() const { return warnings_; }
  size_t suppressed() const { return suppressed_; }
  /// True when no error-severity finding was recorded.
  bool clean() const { return errors_ == 0; }

  /// Multi-line human-readable listing ("<SEV> [component/code] message
  /// (context)"), ending with a one-line summary.
  std::string ToString() const;
  /// The whole report as a JSON object (findings array + counts).
  std::string ToJson() const;

 private:
  std::vector<Finding> findings_;
  size_t errors_ = 0;
  size_t warnings_ = 0;
  size_t suppressed_ = 0;
};

/// One invariant checker (per component or per file). Run() returns
/// non-OK only when the check could not be performed at all (e.g. the
/// target file does not exist); invariant violations are reported as
/// findings, not as an error Status, so one corrupt structure does not
/// mask the rest of the report.
class Checker {
 public:
  virtual ~Checker() = default;
  virtual std::string name() const = 0;
  virtual Status Run(CheckReport* report) = 0;
};

}  // namespace cubetree

#endif  // CUBETREE_CHECK_INVARIANT_CHECKER_H_
