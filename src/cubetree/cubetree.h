#ifndef CUBETREE_CUBETREE_CUBETREE_H_
#define CUBETREE_CUBETREE_CUBETREE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "cubetree/view_def.h"
#include "rtree/packed_rtree.h"

namespace cubetree {

/// The arity of each of `views` by id, nullopt for any other view: what a
/// pack of those views stores, and what a check of a tree holding them
/// expects to find.
ViewArityFn ViewArityOf(std::vector<ViewDef> views);

/// One Cubetree: a packed R-tree together with the set of views it stores
/// (at most one per arity, per SelectMapping). Provides the view-level query
/// interface — translating a slice over a view into a range box in the
/// tree's index space, exactly the mapping of the paper's Figure 4.
///
/// Besides the main tree, a Cubetree may carry *delta trees*: small packed
/// trees holding recent refresh increments that have not been merge-packed
/// into the main tree yet. Queries search main and deltas and callers
/// combine aggregates of coinciding points; a compaction merge-packs
/// everything back into a single tree. This trades a little query work for
/// a refresh window proportional to the increment, not the whole view set.
///
/// The packed trees are held through shared_ptr so that several forest
/// generations can reference the same immutable tree file: a partial
/// refresh publishes a new Cubetree sharing the old main tree plus one more
/// delta, while snapshots pinned to the previous generation keep the old
/// object alive. A built tree is immutable, so concurrent QueryBox calls
/// from many threads are safe; the mutator AddDelta is reserved for
/// construction before the tree is published.
class Cubetree {
 public:
  Cubetree(std::vector<ViewDef> views, std::shared_ptr<PackedRTree> tree)
      : views_(std::move(views)), tree_(std::move(tree)) {}

  Cubetree(const Cubetree&) = delete;
  Cubetree& operator=(const Cubetree&) = delete;

  const std::vector<ViewDef>& views() const { return views_; }
  PackedRTree* rtree() { return tree_.get(); }
  const PackedRTree* rtree() const { return tree_.get(); }
  const std::shared_ptr<PackedRTree>& shared_rtree() const { return tree_; }
  uint8_t dims() const { return tree_->dims(); }

  /// Attaches one more delta tree (most recent last).
  void AddDelta(std::shared_ptr<PackedRTree> delta) {
    deltas_.push_back(std::move(delta));
  }
  size_t num_deltas() const { return deltas_.size(); }
  bool HasDeltas() const { return !deltas_.empty(); }
  /// The main tree followed by every pending delta tree.
  std::vector<PackedRTree*> main_and_deltas() {
    std::vector<PackedRTree*> trees = {tree_.get()};
    for (const auto& d : deltas_) trees.push_back(d.get());
    return trees;
  }
  const std::vector<std::shared_ptr<PackedRTree>>& shared_deltas() const {
    return deltas_;
  }

  /// Bytes across the main tree and all delta trees.
  uint64_t TotalSizeBytes() const {
    uint64_t total = tree_->FileSizeBytes();
    for (const auto& d : deltas_) total += d->FileSizeBytes();
    return total;
  }
  /// Stored points across main + deltas (coinciding group keys counted
  /// once per tree they appear in).
  uint64_t TotalPoints() const {
    uint64_t total = tree_->num_points();
    for (const auto& d : deltas_) total += d->num_points();
    return total;
  }

  Result<const ViewDef*> FindView(uint32_t view_id) const;

  /// Builds the query box of a slice over `view`: bindings[i] pins
  /// view.attrs[i] to an exact key, nullopt leaves it open. Coordinates
  /// beyond the view's arity are pinned to 0 and open coordinates to
  /// [1, max], so the box touches only this view's region of the tree.
  Result<Rect> SliceRect(
      uint32_t view_id,
      const std::vector<std::optional<Coord>>& bindings) const;

  /// Builds the query box from explicit per-attribute intervals
  /// (intervals.size() == the view's arity; use {1, kCoordMax} for an open
  /// attribute). Range predicates map to real intervals — the bounded
  /// boxes R-trees are best at.
  Result<Rect> BoxRect(
      uint32_t view_id,
      const std::vector<std::pair<Coord, Coord>>& intervals) const;

  /// Runs a slice query: emits each qualifying tuple of the view as its
  /// leaf entry, whose coordinates are in the view's attribute order.
  Status QuerySlice(uint32_t view_id,
                    const std::vector<std::optional<Coord>>& bindings,
                    const LeafEntryFn& emit);

  /// Box-query variant of QuerySlice with per-attribute intervals. Emits
  /// from the main tree and every delta tree, and from the view's leaves
  /// only; a group key present in several trees is emitted once per tree
  /// (callers aggregate).
  Status QueryBox(uint32_t view_id,
                  const std::vector<std::pair<Coord, Coord>>& intervals,
                  const LeafEntryFn& emit);

 private:
  std::vector<ViewDef> views_;
  std::shared_ptr<PackedRTree> tree_;
  std::vector<std::shared_ptr<PackedRTree>> deltas_;
};

}  // namespace cubetree

#endif  // CUBETREE_CUBETREE_CUBETREE_H_
