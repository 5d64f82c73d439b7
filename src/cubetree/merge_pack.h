#ifndef CUBETREE_CUBETREE_MERGE_PACK_H_
#define CUBETREE_CUBETREE_MERGE_PACK_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rtree/packed_rtree.h"
#include "sort/external_sorter.h"

namespace cubetree {

/// The sorted-view input of a pack — a load's view data or a refresh's
/// increment: one RecordStream per view, each holding ViewRecordBytes(arity)
/// records in the view's pack order, the views in ascending arity. A view
/// record has the byte format of a compressed leaf entry, so spans of the
/// streams' pages pass to the packer as they are. Uncompressed leaves store
/// every view at the tree's full dims; records are then widened with zero
/// coordinates on the way.
class ViewStreamSource final : public ViewRunSource {
 public:
  struct ViewStream {
    uint32_t view = 0;
    uint8_t arity = 0;
    std::unique_ptr<RecordStream> stream;
  };

  explicit ViewStreamSource(std::vector<ViewStream> streams)
      : streams_(std::move(streams)) {}

  Status CurrentView(std::optional<uint32_t>* view) override;
  Status NextSpan(uint8_t leaf_arity, const char** records,
                  size_t* count) override;

 private:
  std::vector<ViewStream> streams_;
  size_t index_ = 0;
  std::vector<char> widened_;
};

/// Merge-packs `old_tree` (may be null for an initial build) with `delta`
/// (points sorted in pack order) into a brand-new packed tree at
/// `out_path`: PackedRTree::Build over the old tree's leaves and the
/// delta, the paper's old tree ∪ sorted delta in linear time. The old tree
/// is scanned sequentially and the output written sequentially; no random
/// I/O except the two metadata pages.
Result<std::unique_ptr<PackedRTree>> MergePack(
    PackedRTree* old_tree, PointSource* delta, const std::string& out_path,
    const RTreeOptions& options, BufferPool* pool,
    const ViewArityFn& view_arity, std::shared_ptr<IoStats> io_stats = nullptr);

}  // namespace cubetree

#endif  // CUBETREE_CUBETREE_MERGE_PACK_H_
