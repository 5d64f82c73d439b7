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

}  // namespace cubetree
