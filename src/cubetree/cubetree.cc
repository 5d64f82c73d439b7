#include "cubetree/cubetree.h"

#include "common/assert.h"

namespace cubetree {

Result<const ViewDef*> Cubetree::FindView(uint32_t view_id) const {
  for (const ViewDef& v : views_) {
    if (v.id == view_id) return &v;
  }
  return Status::NotFound("view " + std::to_string(view_id) +
                          " not stored in this Cubetree");
}

uint8_t Cubetree::ViewArity(uint32_t view_id) const {
  for (const ViewDef& v : views_) {
    if (v.id == view_id) return v.arity();
  }
  return 0;
}

Result<Rect> Cubetree::SliceRect(
    uint32_t view_id,
    const std::vector<std::optional<Coord>>& bindings) const {
  std::vector<std::pair<Coord, Coord>> intervals;
  intervals.reserve(bindings.size());
  for (const auto& binding : bindings) {
    if (binding.has_value()) {
      intervals.emplace_back(*binding, *binding);
    } else {
      intervals.emplace_back(1, kCoordMax);
    }
  }
  return BoxRect(view_id, intervals);
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
    const std::function<void(const Coord*, const AggValue&)>& emit) {
  std::vector<std::pair<Coord, Coord>> intervals;
  intervals.reserve(bindings.size());
  for (const auto& binding : bindings) {
    if (binding.has_value()) {
      intervals.emplace_back(*binding, *binding);
    } else {
      intervals.emplace_back(1, kCoordMax);
    }
  }
  return QueryBox(view_id, intervals, emit);
}

Status Cubetree::QueryBox(
    uint32_t view_id, const std::vector<std::pair<Coord, Coord>>& intervals,
    const std::function<void(const Coord*, const AggValue&)>& emit) {
  CT_ASSIGN_OR_RETURN(Rect rect, BoxRect(view_id, intervals));
  auto filter = [&](const PointRecord& rec) {
    CT_DCHECK(rect.ContainsPoint(rec.coords, tree_->dims()))
        << "search emitted a point outside the query box";
    if (rec.view_id == view_id) emit(rec.coords, rec.agg);
  };
  CT_RETURN_NOT_OK(tree_->Search(rect, filter));
  for (const auto& delta : deltas_) {
    CT_RETURN_NOT_OK(delta->Search(rect, filter));
  }
  return Status::OK();
}

}  // namespace cubetree
