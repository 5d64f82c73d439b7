#include "rtree/geometry.h"

namespace cubetree {

Status AggregateOverflow(uint32_t view_id, const AggValue& agg,
                         const AggValue& other) {
  return Status::InvalidArgument(
      "view " + std::to_string(view_id) + ": aggregate overflow merging (" +
      std::to_string(agg.sum) + ", " + std::to_string(agg.count) +
      ") with (" + std::to_string(other.sum) + ", " +
      std::to_string(other.count) +
      "): the sum must fit int64 and the count uint32");
}

std::string Rect::ToString(size_t dims) const {
  std::string out = "[";
  for (size_t i = 0; i < dims; ++i) {
    if (i > 0) out += ",";
    out += std::to_string(lo[i]);
  }
  out += " .. ";
  for (size_t i = 0; i < dims; ++i) {
    if (i > 0) out += ",";
    out += std::to_string(hi[i]);
  }
  out += "]";
  return out;
}

}  // namespace cubetree
