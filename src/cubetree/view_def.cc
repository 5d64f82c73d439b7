#include "cubetree/view_def.h"

namespace cubetree {

int CubeSchema::AttrIndex(const std::string& name) const {
  for (size_t i = 0; i < attr_names.size(); ++i) {
    if (attr_names[i] == name) return static_cast<int>(i);
  }
  return -1;
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
