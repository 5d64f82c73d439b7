#ifndef CUBETREE_CHECK_CHECK_H_
#define CUBETREE_CHECK_CHECK_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "rtree/packed_rtree.h"
#include "storage/buffer_pool.h"

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

/// One violated (or noteworthy) invariant, as reported by a check.
struct Finding {
  Severity severity = Severity::kError;
  /// Component that owns the invariant: "rtree" or "forest".
  std::string component;
  /// Stable machine-readable code, e.g. "pack-order", "mbr-containment".
  std::string code;
  /// Human-readable description of what is wrong.
  std::string message;
  /// Where: file path, page id, view id... Free-form, may be empty.
  std::string context;
};

/// Accumulates findings across checks. A check reports as many distinct
/// violations as it can (capped per code so one systemic fault cannot
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
  /// Corruption naming the first error finding recorded after the first
  /// `from` findings ("code: message (context)"); OK when there is none.
  Status FirstError(size_t from = 0) const;

  /// Multi-line human-readable listing ("<SEV> [component/code] message
  /// (context)"), ending with a one-line summary.
  std::string ToString() const;
  /// The whole report as one line of JSON: {"findings": [{"severity",
  /// "component", "code", "message", "context"}...], "errors",
  /// "warnings", "suppressed", "clean"}.
  std::string ToJson() const;

 private:
  std::vector<Finding> findings_;
  size_t errors_ = 0;
  size_t warnings_ = 0;
  size_t suppressed_ = 0;
};

/// Checks one packed R-tree file in one forward pass, reading each page
/// once, front to back. The packer writes the leaves in pack order, then
/// each internal level bottom-up with the root last, so every child page
/// is checked before its parent claims it. Each page, as it arrives:
///   - its CRC against the `.crc` sidecar (checksum-missing,
///     checksum-sidecar, checksum-count, checksum-mismatch);
///   - page 0: the metadata (meta-magic, meta-dims, meta-counts,
///     meta-root, meta-height);
///   - its role by region, leaves at pages 1..num_leaf_pages and internal
///     nodes after them (page-role), and its header through the reader's
///     own CheckNodeHeader (leaf-arity, leaf-overflow, internal-overflow);
///     an empty node is empty-node;
///   - a leaf: strict pack order from the previous entry (pack-order), one
///     run per view (view-contiguity), every leaf of a run but its last
///     equally full (leaf-fill, a warning) and, when `view_arity` is
///     given, a view the tree stores (stray-view) at the arity the packer
///     stores it at (leaf-arity), zero beyond the view's arity
///     (zero-suppression);
///   - an internal node: each child an earlier page no other node claims
///     (child-pointer, page-shared), all children on one level
///     (leaf-depth), each child's actual bounds inside its entry's MBR
///     (mbr-containment).
/// Then, over the whole file: every leaf reachable from the root
/// (unreachable-leaf), the root's level equal to the recorded height
/// (depth) and the leaves' points equal to the recorded count
/// (point-count).
///
/// `view_arity` may be empty: a lone file's views are unknown, so its
/// stray views and zero suppression go unchecked. `view_points`, when
/// given, gains each leaf's count under its view: the stored points per
/// view, when the report gains no error.
///
/// Damage is a finding, a short read among it (unreadable-page). Any other
/// error opening or reading the file or its sidecar (NotFound, IOError,
/// StorageFull) means the check could not run, and is returned.
Status CheckTree(const std::string& path, const ViewArityFn& view_arity,
                 CheckReport* report,
                 std::map<uint32_t, uint64_t>* view_points = nullptr);

/// Checks a Cubetree forest: CubetreeForest::Open with `report`, which
/// checks every file the manifest names (a manifest that fails to load,
/// its plan included, is manifest-corrupt), then each file of the orphan
/// list (CubetreeForest::OrphanFiles, what Recover deletes) is an
/// unreferenced-file warning, and the volume's free space disk-space info.
/// Returns non-OK only when the check cannot run (no manifest, I/O).
Status CheckForest(const std::string& dir, const std::string& name,
                   BufferPool* pool, CheckReport* report);

}  // namespace cubetree

#endif  // CUBETREE_CHECK_CHECK_H_
