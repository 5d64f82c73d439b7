#ifndef CUBETREE_CUBETREE_VIEW_DEF_H_
#define CUBETREE_CUBETREE_VIEW_DEF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "rtree/geometry.h"

namespace cubetree {

/// The grouping-attribute universe of one warehouse workload: every
/// aggregate view projects an ordered subset of these attributes. Attribute
/// values are dense integer keys 1..domain (0 is reserved — see geometry.h).
struct CubeSchema {
  std::vector<std::string> attr_names;
  /// Number of distinct values of each attribute (keys are 1..domain).
  std::vector<uint32_t> attr_domains;
  /// Name of the aggregated measure (e.g. "quantity"); informational.
  std::string measure_name = "quantity";

  size_t num_attrs() const { return attr_names.size(); }
  /// Index of `name` or -1.
  int AttrIndex(const std::string& name) const;
};

/// One materialized aggregate view: SELECT attrs..., SUM(m), COUNT(*) FROM F
/// GROUP BY attrs... The order of `attrs` is the coordinate-axis order when
/// the view is placed in a Cubetree (attrs[0] -> x, attrs[1] -> y, ...), so
/// two ViewDefs with the same attribute *set* but different order are
/// different physical objects (that is exactly what a replica is).
struct ViewDef {
  uint32_t id = 0;
  /// Ordered projection list: indices into the CubeSchema attribute
  /// universe. Empty = the "none" super-aggregate view.
  std::vector<uint32_t> attrs;

  uint8_t arity() const { return static_cast<uint8_t>(attrs.size()); }

  /// Bitmask of the attribute *set* (order-insensitive).
  uint32_t AttrMask() const {
    uint32_t mask = 0;
    for (uint32_t a : attrs) mask |= (1u << a);
    return mask;
  }

  /// True if this view's attribute set contains `mask` (it can answer
  /// queries over those attributes, possibly with re-aggregation).
  bool Covers(uint32_t mask) const { return (AttrMask() & mask) == mask; }

  std::string Name(const CubeSchema& schema) const;

  bool operator==(const ViewDef&) const = default;
};

}  // namespace cubetree

#endif  // CUBETREE_CUBETREE_VIEW_DEF_H_
