#ifndef CUBETREE_CUBETREE_VIEW_DEF_H_
#define CUBETREE_CUBETREE_VIEW_DEF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/coding.h"
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

/// Fixed-width on-disk record of one view tuple: arity coordinates followed
/// by the 12-byte aggregate payload. This is the format of view spools, sort
/// runs and (identically) compressed Cubetree leaf entries.
constexpr size_t ViewRecordBytes(uint8_t arity) {
  return static_cast<size_t>(arity) * sizeof(Coord) + kAggValueBytes;
}

/// The aggregate payload that follows a view record's coordinates.
inline void EncodeAggPayload(char* dst, const AggValue& agg) {
  EncodeFixed64(dst, static_cast<uint64_t>(agg.sum));
  EncodeFixed32(dst + 8, agg.count);
}

inline AggValue DecodeAggPayload(const char* src) {
  return AggValue{static_cast<int64_t>(DecodeFixed64(src)),
                  DecodeFixed32(src + 8)};
}

/// `coords` may be null for the arity-0 apex view, which has no key.
inline void EncodeViewRecord(char* dst, const Coord* coords, uint8_t arity,
                             const AggValue& agg) {
  const size_t key_bytes = static_cast<size_t>(arity) * sizeof(Coord);
  if (key_bytes != 0) std::memcpy(dst, coords, key_bytes);
  EncodeAggPayload(dst + key_bytes, agg);
}

inline void DecodeViewRecord(const char* src, uint8_t arity, Coord* coords,
                             AggValue* agg) {
  const size_t key_bytes = static_cast<size_t>(arity) * sizeof(Coord);
  if (key_bytes != 0) std::memcpy(coords, src, key_bytes);
  *agg = DecodeAggPayload(src + key_bytes);
}

/// The error MergeViewAggregate returns when a merge overflows.
Status AggregateOverflow(uint32_t view_id, const AggValue& agg,
                         const AggValue& other);

/// Adds `other` into `*agg`, an aggregate of view `view_id`. A sum that
/// would leave int64 or a count that would leave uint32 is InvalidArgument
/// naming the view, and leaves `*agg` unchanged.
[[nodiscard]] inline Status MergeViewAggregate(uint32_t view_id,
                                               const AggValue& other,
                                               AggValue* agg) {
  if (agg->Merge(other)) return Status::OK();
  return AggregateOverflow(view_id, *agg, other);
}

/// Comparator for view records of one view in pack order: the LAST
/// projected attribute is the most significant sort key (the paper sorts
/// R{x,y} in (y, x) order).
inline int ViewRecordCompare(const char* a, const char* b, uint8_t arity) {
  for (size_t i = arity; i > 0; --i) {
    const Coord ca = DecodeFixed32(a + (i - 1) * sizeof(Coord));
    const Coord cb = DecodeFixed32(b + (i - 1) * sizeof(Coord));
    if (ca < cb) return -1;
    if (ca > cb) return 1;
  }
  return 0;
}

}  // namespace cubetree

#endif  // CUBETREE_CUBETREE_VIEW_DEF_H_
