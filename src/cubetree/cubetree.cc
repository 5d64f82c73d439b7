#include "cubetree/cubetree.h"

#include <algorithm>

namespace cubetree {

Result<const ViewDef*> Cubetree::FindView(uint32_t view_id) const {
  for (const ViewDef& v : views_) {
    if (v.id == view_id) return &v;
  }
  return Status::NotFound("view " + std::to_string(view_id) +
                          " not stored in this Cubetree");
}

ViewArityFn ViewArityOf(std::vector<ViewDef> views) {
  return [views = std::move(views)](
             uint32_t view_id) -> std::optional<uint8_t> {
    for (const ViewDef& v : views) {
      if (v.id == view_id) return v.arity();
    }
    return std::nullopt;
  };
}

namespace {

/// A slice's bindings as box intervals: a bound attribute is its key, an
/// open one every real key.
std::vector<std::pair<Coord, Coord>> SliceIntervals(
    const std::vector<std::optional<Coord>>& bindings) {
  std::vector<std::pair<Coord, Coord>> intervals;
  intervals.reserve(bindings.size());
  for (const auto& binding : bindings) {
    if (binding.has_value()) {
      intervals.emplace_back(*binding, *binding);
    } else {
      intervals.emplace_back(1, kCoordMax);
    }
  }
  return intervals;
}

}  // namespace

Result<Rect> Cubetree::SliceRect(
    uint32_t view_id,
    const std::vector<std::optional<Coord>>& bindings) const {
  return BoxRect(view_id, SliceIntervals(bindings));
}

Result<Rect> Cubetree::BoxRect(
    uint32_t view_id,
    const std::vector<std::pair<Coord, Coord>>& intervals) const {
  CT_ASSIGN_OR_RETURN(const ViewDef* view, FindView(view_id));
  if (intervals.size() != view->arity()) {
    return Status::InvalidArgument("box intervals do not match view arity");
  }
  Rect rect;
  const size_t dims = tree_->dims();
  for (size_t i = 0; i < dims; ++i) {
    if (i < view->arity()) {
      // Real keys are >= 1; excluding 0 keeps points of lower-arity views
      // out of the box even for fully open dimensions.
      rect.lo[i] = std::max<Coord>(1, intervals[i].first);
      rect.hi[i] = intervals[i].second;
    } else {
      // Beyond the view's arity every coordinate is the implicit 0.
      rect.lo[i] = 0;
      rect.hi[i] = 0;
    }
  }
  return rect;
}

Status Cubetree::QuerySlice(
    uint32_t view_id, const std::vector<std::optional<Coord>>& bindings,
    const LeafEntryFn& emit) {
  return QueryBox(view_id, SliceIntervals(bindings), emit);
}

Status Cubetree::QueryBox(
    uint32_t view_id, const std::vector<std::pair<Coord, Coord>>& intervals,
    const LeafEntryFn& emit) {
  CT_ASSIGN_OR_RETURN(Rect rect, BoxRect(view_id, intervals));
  CT_RETURN_NOT_OK(tree_->Search(rect, emit, view_id));
  for (const auto& delta : deltas_) {
    CT_RETURN_NOT_OK(delta->Search(rect, emit, view_id));
  }
  return Status::OK();
}

}  // namespace cubetree
