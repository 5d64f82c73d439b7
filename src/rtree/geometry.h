#ifndef CUBETREE_RTREE_GEOMETRY_H_
#define CUBETREE_RTREE_GEOMETRY_H_

#include <cstdint>
#include <string>
#include <type_traits>

#include "common/assert.h"

namespace cubetree {

/// Maximum dimensionality of a Cubetree index space.
inline constexpr size_t kMaxDims = 8;

/// Calls `f(std::integral_constant<size_t, A>{})` with A == `arity` and
/// returns its result. The bulk-load and merge-pack record loops run inside
/// `f`, so each is compiled once per arity 0..kMaxDims and every copy,
/// comparison and codec call in it has a compile-time length; the switch
/// runs once per view run or leaf page, not once per record. `arity` must
/// be at most kMaxDims.
template <typename F>
decltype(auto) DispatchArity(size_t arity, F&& f) {
  static_assert(kMaxDims == 8, "DispatchArity lists arities 0..8");
  CT_ASSERT(arity <= kMaxDims) << "arity " << arity << " above kMaxDims";
  switch (arity) {
    case 0: return f(std::integral_constant<size_t, 0>{});
    case 1: return f(std::integral_constant<size_t, 1>{});
    case 2: return f(std::integral_constant<size_t, 2>{});
    case 3: return f(std::integral_constant<size_t, 3>{});
    case 4: return f(std::integral_constant<size_t, 4>{});
    case 5: return f(std::integral_constant<size_t, 5>{});
    case 6: return f(std::integral_constant<size_t, 6>{});
    case 7: return f(std::integral_constant<size_t, 7>{});
    default: return f(std::integral_constant<size_t, 8>{});
  }
}

/// Coordinates are unsigned 32-bit key values. The paper reserves 0 as the
/// "unused dimension" marker: every real key value (partkey, suppkey, ...)
/// is >= 1, and a view of arity k stored in a d-dimensional tree (k < d) has
/// coordinates k..d-1 equal to 0.
using Coord = uint32_t;

inline constexpr Coord kCoordMax = 0xFFFFFFFFu;

/// Aggregate payload carried by every point. Sum and count together support
/// SUM, COUNT and AVG — the paper's footnote 3 notes the scheme extends to
/// multiple aggregate functions per point.
struct AggValue {
  int64_t sum = 0;
  uint32_t count = 0;

  /// Adds `other` into this aggregate and returns true, or returns false
  /// and leaves it unchanged when the sum would leave int64 or the count
  /// would leave uint32. Storage and query paths merge through
  /// MergeViewAggregate (cubetree/view_def.h), which makes that a typed
  /// error; reference tallies over small test measures use it directly.
  bool Merge(const AggValue& other) {
    int64_t merged_sum = 0;
    uint32_t merged_count = 0;
    if (__builtin_add_overflow(sum, other.sum, &merged_sum) ||
        __builtin_add_overflow(count, other.count, &merged_count)) {
      return false;
    }
    sum = merged_sum;
    count = merged_count;
    return true;
  }

  double Avg() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }

  bool operator==(const AggValue&) const = default;
};

/// On-disk payload width: int64 sum + uint32 count.
inline constexpr size_t kAggValueBytes = 12;

/// A point of the multidimensional index space together with its view tag
/// and aggregate payload. Unused coordinates (>= arity of the owning view)
/// must be zero.
struct PointRecord {
  uint32_t view_id = 0;
  Coord coords[kMaxDims] = {0};
  AggValue agg;
};

/// Axis-aligned hyper-rectangle over the first `dims` coordinates.
struct Rect {
  Coord lo[kMaxDims] = {0};
  Coord hi[kMaxDims] = {0};

  /// A rect covering the full space in `dims` dimensions.
  static Rect Full(size_t dims) {
    Rect r;
    for (size_t i = 0; i < dims; ++i) {
      r.lo[i] = 0;
      r.hi[i] = kCoordMax;
    }
    return r;
  }

  /// The degenerate rect equal to a point.
  static Rect FromPoint(const Coord* coords, size_t dims) {
    Rect r;
    for (size_t i = 0; i < dims; ++i) {
      r.lo[i] = coords[i];
      r.hi[i] = coords[i];
    }
    return r;
  }

  bool ContainsPoint(const Coord* coords, size_t dims) const {
    for (size_t i = 0; i < dims; ++i) {
      if (coords[i] < lo[i] || coords[i] > hi[i]) return false;
    }
    return true;
  }

  bool Intersects(const Rect& other, size_t dims) const {
    for (size_t i = 0; i < dims; ++i) {
      if (other.hi[i] < lo[i] || other.lo[i] > hi[i]) return false;
    }
    return true;
  }

  /// Grows this rect to cover `coords`.
  void ExpandToPoint(const Coord* coords, size_t dims) {
    for (size_t i = 0; i < dims; ++i) {
      if (coords[i] < lo[i]) lo[i] = coords[i];
      if (coords[i] > hi[i]) hi[i] = coords[i];
    }
  }

  /// Grows this rect to cover `other`.
  void ExpandToRect(const Rect& other, size_t dims) {
    for (size_t i = 0; i < dims; ++i) {
      if (other.lo[i] < lo[i]) lo[i] = other.lo[i];
      if (other.hi[i] > hi[i]) hi[i] = other.hi[i];
    }
  }

  std::string ToString(size_t dims) const;
};

/// The Cubetree packing order: points are sorted by the LAST coordinate
/// first, then the one before it, and so on — e.g. R{x,y} sorts in (y, x)
/// order. Because unused coordinates are zero and real keys are >= 1, this
/// order places each view of a tree in its own contiguous range (lowest
/// arity first), which is what makes per-view leaf compression and
/// merge-packing possible.
///
/// Returns negative/zero/positive like memcmp.
inline int PackOrderCompare(const Coord* a, const Coord* b, size_t dims) {
  for (size_t i = dims; i > 0; --i) {
    if (a[i - 1] < b[i - 1]) return -1;
    if (a[i - 1] > b[i - 1]) return 1;
  }
  return 0;
}

}  // namespace cubetree

#endif  // CUBETREE_RTREE_GEOMETRY_H_
