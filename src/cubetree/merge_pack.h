#ifndef CUBETREE_CUBETREE_MERGE_PACK_H_
#define CUBETREE_CUBETREE_MERGE_PACK_H_

#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "rtree/packed_rtree.h"

namespace cubetree {

/// Merges two pack-ordered point sources into one, combining the aggregate
/// payloads of points with identical coordinates (which, by the Cubetree
/// organization, always belong to the same view). This is the heart of the
/// paper's bulk-incremental update: old tree ∪ sorted delta, in linear time.
class MergePointSource : public PointSource {
 public:
  /// Either source may immediately report end-of-stream. `dims` is the
  /// dimensionality of the enclosing tree.
  MergePointSource(PointSource* a, PointSource* b, uint8_t dims);

  Status Next(const PointRecord** record) override {
    return (this->*next_)(record);
  }

 private:
  /// Next() for a D-dimensional tree; the constructor picks it once.
  template <size_t D>
  Status NextFixed(const PointRecord** record);

  PointSource* a_;
  PointSource* b_;
  Status (MergePointSource::*next_)(const PointRecord** record);
  const PointRecord* cur_a_ = nullptr;
  const PointRecord* cur_b_ = nullptr;
  bool primed_ = false;
  PointRecord merged_;
  // Debug-only: previous emitted coordinates, to CT_DCHECK that the merge
  // of two pack-ordered inputs stays pack-ordered.
  Coord prev_coords_[kMaxDims];
  bool have_prev_ = false;
};

/// Merge-packs `old_tree` (may be null for an initial build) with `delta`
/// (points sorted in pack order) into a brand-new packed tree at
/// `out_path`. The old tree is scanned sequentially, the output is written
/// sequentially; no random I/O except the two metadata pages.
Result<std::unique_ptr<PackedRTree>> MergePack(
    PackedRTree* old_tree, PointSource* delta, const std::string& out_path,
    const RTreeOptions& options, BufferPool* pool,
    std::function<uint8_t(uint32_t)> view_arity,
    std::shared_ptr<IoStats> io_stats = nullptr);

}  // namespace cubetree

#endif  // CUBETREE_CUBETREE_MERGE_PACK_H_
