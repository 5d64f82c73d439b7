#ifndef CUBETREE_CUBETREE_SELECT_MAPPING_H_
#define CUBETREE_CUBETREE_SELECT_MAPPING_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "cubetree/view_def.h"

namespace cubetree {

/// The result of mapping a view set onto a minimal forest of Cubetrees.
struct ForestPlan {
  struct TreeSpec {
    /// Dimensionality of the tree = max arity of its views.
    uint8_t dims = 0;
    /// Views placed in this tree, at most one per arity, listed in
    /// descending arity.
    std::vector<uint32_t> view_ids;
  };

  std::vector<TreeSpec> trees;
  /// view id -> index into `trees`.
  std::map<uint32_t, size_t> view_to_tree;
};

/// The paper's SelectMapping algorithm (Figure 5), extended to arity-0
/// views: group views by arity, and while any remain, open a new Cubetree
/// of dimensionality equal to the current maximum remaining arity and give
/// it one view of each arity (in FIFO order within an arity class, so
/// feeding views in decreasing selection benefit reproduces the paper's
/// Table 5 / Figure 7 allocations).
///
/// The resulting forest is minimal in the number of trees, and no tree
/// contains two views of the same arity — which guarantees every view
/// occupies a distinct contiguous run of leaves after packing.
ForestPlan SelectMapping(const std::vector<ViewDef>& views);

/// Checks the invariants every plan a forest builds or reads back must
/// keep: each tree holds only declared views and at most one view per
/// arity, its dims are its views' largest arity (at least 1, at most
/// kMaxDims), every declared view is placed in exactly one tree, and
/// `view_to_tree` agrees with the trees. InvalidArgument naming the first
/// violation.
Status ValidatePlan(const ForestPlan& plan, const std::vector<ViewDef>& views);

}  // namespace cubetree

#endif  // CUBETREE_CUBETREE_SELECT_MAPPING_H_
