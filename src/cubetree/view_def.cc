#include "cubetree/view_def.h"

namespace cubetree {

int CubeSchema::AttrIndex(const std::string& name) const {
  for (size_t i = 0; i < attr_names.size(); ++i) {
    if (attr_names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Status AggregateOverflow(uint32_t view_id, const AggValue& agg,
                         const AggValue& other) {
  return Status::InvalidArgument(
      "view " + std::to_string(view_id) + ": aggregate overflow merging (" +
      std::to_string(agg.sum) + ", " + std::to_string(agg.count) +
      ") with (" + std::to_string(other.sum) + ", " +
      std::to_string(other.count) +
      "): the sum must fit int64 and the count uint32");
}

std::string ViewDef::Name(const CubeSchema& schema) const {
  if (attrs.empty()) return "V{none}";
  std::string out = "V{";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ",";
    out += schema.attr_names[attrs[i]];
  }
  out += "}";
  return out;
}

}  // namespace cubetree
