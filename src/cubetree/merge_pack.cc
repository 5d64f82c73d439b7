#include "cubetree/merge_pack.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "cubetree/cubetree.h"
#include "cubetree/view_def.h"
#include "rtree/geometry.h"

namespace cubetree {

MergePointSource::MergePointSource(PointSource* a, PointSource* b,
                                   uint8_t dims)
    : a_(a),
      b_(b),
      // Build refuses dims above kMaxDims before it pulls a point.
      next_(DispatchArity(std::min<size_t>(dims, kMaxDims), [](auto d) {
        return &MergePointSource::NextFixed<decltype(d)::value>;
      })) {}

template <size_t D>
Status MergePointSource::NextFixed(const PointRecord** record) {
  if (!primed_) {
    CT_RETURN_NOT_OK(a_->Next(&cur_a_));
    CT_RETURN_NOT_OK(b_->Next(&cur_b_));
    primed_ = true;
  }
  if (cur_a_ == nullptr && cur_b_ == nullptr) {
    *record = nullptr;
    return Status::OK();
  }
  int cmp;
  if (cur_a_ == nullptr) {
    cmp = 1;
  } else if (cur_b_ == nullptr) {
    cmp = -1;
  } else {
    cmp = PackOrderCompare(cur_a_->coords, cur_b_->coords, D);
  }
  if (cmp < 0) {
    merged_ = *cur_a_;
    CT_RETURN_NOT_OK(a_->Next(&cur_a_));
  } else if (cmp > 0) {
    merged_ = *cur_b_;
    CT_RETURN_NOT_OK(b_->Next(&cur_b_));
  } else {
    if (cur_a_->view_id != cur_b_->view_id) {
      return Status::Corruption(
          "merge-pack: identical coordinates from different views");
    }
    merged_ = *cur_a_;
    CT_RETURN_NOT_OK(
        MergeViewAggregate(merged_.view_id, cur_b_->agg, &merged_.agg));
    CT_RETURN_NOT_OK(a_->Next(&cur_a_));
    CT_RETURN_NOT_OK(b_->Next(&cur_b_));
  }
  if (CT_DCHECK_IS_ON()) {
    CT_DCHECK(!have_prev_ ||
              PackOrderCompare(prev_coords_, merged_.coords, D) < 0)
        << "merge-pack output left pack order";
    std::memcpy(prev_coords_, merged_.coords, sizeof(prev_coords_));
    have_prev_ = true;
  }
  *record = &merged_;
  return Status::OK();
}

Result<std::unique_ptr<PackedRTree>> MergePack(
    PackedRTree* old_tree, PointSource* delta, const std::string& out_path,
    const RTreeOptions& options, BufferPool* pool,
    std::function<uint8_t(uint32_t)> view_arity,
    std::shared_ptr<IoStats> io_stats) {
  if (old_tree == nullptr) {
    return PackedRTree::Build(out_path, options, pool, delta,
                              std::move(view_arity), std::move(io_stats));
  }
  ScannerPointSource old_source(old_tree);
  MergePointSource merged(&old_source, delta, options.dims);
  return PackedRTree::Build(out_path, options, pool, &merged,
                            std::move(view_arity), std::move(io_stats));
}

}  // namespace cubetree
