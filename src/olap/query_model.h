#ifndef CUBETREE_OLAP_QUERY_MODEL_H_
#define CUBETREE_OLAP_QUERY_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cubetree/view_def.h"
#include "olap/lattice.h"

namespace cubetree {

/// A slice query (the TPC-D query model of Section 3.1): equality
/// predicates on a subset of one lattice node's attributes, aggregating the
/// measure grouped by the remaining attributes. For the node {partkey,
/// custkey} the four types are: nothing bound, partkey bound, custkey
/// bound, both bound.
struct SliceQuery {
  /// Lattice node being queried.
  uint32_t node_mask = 0;
  /// The node's attributes in canonical (ascending-index) order.
  std::vector<uint32_t> attrs;
  /// bindings[i] pins attrs[i] to a key value; nullopt = group-by attr.
  std::vector<std::optional<Coord>> bindings;
  /// Optional interval predicates (BETWEEN lo AND hi, inclusive), parallel
  /// to attrs. Empty vector = no range predicates; a range and an equality
  /// binding on the same attribute are mutually exclusive.
  std::vector<std::optional<std::pair<Coord, Coord>>> ranges;
  /// Which attrs appear in the output grouping, parallel to attrs. When
  /// empty, defaults to "every attr not equality-bound" — which keeps
  /// range-restricted attrs in the output ("totals per month for months
  /// 3..6"). An explicit vector can also collapse a range-restricted attr
  /// (SQL's WHERE x BETWEEN ... with x absent from GROUP BY).
  std::vector<bool> grouped;

  bool IsGrouped(size_t i) const {
    if (!grouped.empty()) return grouped[i];
    return !bindings[i].has_value();
  }

  /// Attributes restricted by equality.
  uint32_t BoundMask() const {
    uint32_t mask = 0;
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (bindings[i].has_value()) mask |= (1u << attrs[i]);
    }
    return mask;
  }
  uint32_t GroupMask() const { return node_mask & ~BoundMask(); }
  size_t NumBound() const {
    size_t n = 0;
    for (const auto& b : bindings) n += b.has_value();
    return n;
  }

  /// The [lo, hi] interval attrs[i] is restricted to (full key space when
  /// unconstrained; degenerate when equality-bound).
  std::pair<Coord, Coord> AttrInterval(size_t i) const {
    if (bindings[i].has_value()) return {*bindings[i], *bindings[i]};
    if (i < ranges.size() && ranges[i].has_value()) return *ranges[i];
    return {1, kCoordMax};
  }
  bool AttrConstrained(size_t i) const {
    return bindings[i].has_value() ||
           (i < ranges.size() && ranges[i].has_value());
  }

  std::string ToString(const CubeSchema& schema) const;
};

/// One output row of a slice query: values of the group-by attributes (in
/// the query's attr order, bound attrs omitted) plus the aggregate.
struct ResultRow {
  std::vector<Coord> group;
  AggValue agg;
};

/// A slice query's answer.
struct QueryResult {
  std::vector<uint32_t> group_attrs;
  std::vector<ResultRow> rows;

  /// Canonical ordering, for comparing answers across engines.
  void SortRows();
  bool SameRowsAs(const QueryResult& other) const;
};

/// Random slice-query generator mirroring the paper's experiment: uniform
/// over the query types of a node (optionally excluding the fully unbound
/// type, whose huge output "dilutes the actual retrieval cost"), with
/// predicate values drawn uniformly from each attribute's key domain.
class SliceQueryGenerator {
 public:
  /// The schema is copied; the generator is safe to outlive the caller's
  /// schema object.
  SliceQueryGenerator(CubeSchema schema, uint64_t seed)
      : schema_(std::move(schema)), rng_(seed) {}

  /// A random query on the node with the given canonical attrs.
  SliceQuery ForNode(const std::vector<uint32_t>& attrs,
                     bool exclude_unbound);

  /// A random range query on the node: each selected predicate becomes a
  /// BETWEEN interval covering ~`range_fraction` of the attribute's
  /// domain (the bounded-range workload of Section 3.1's closing remark).
  SliceQuery ForNodeRange(const std::vector<uint32_t>& attrs,
                          double range_fraction, bool exclude_unbound);

  /// A random query uniform over all (node, type) pairs of the lattice,
  /// optionally skipping the arity-0 node.
  SliceQuery UniformOverLattice(const CubeLattice& lattice,
                                bool exclude_unbound, bool skip_none_node);

 private:
  CubeSchema schema_;
  Rng rng_;
};

}  // namespace cubetree

#endif  // CUBETREE_OLAP_QUERY_MODEL_H_
