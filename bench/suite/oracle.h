#ifndef CUBETREE_BENCH_SUITE_ORACLE_H_
#define CUBETREE_BENCH_SUITE_ORACLE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "olap/cube_builder.h"
#include "olap/query_model.h"

namespace cubetree {
namespace suite {

/// Brute-force answers over the generator's raw facts, independent of every
/// storage structure the engine builds. The facts are kept as layers: layer
/// 0 is the base load and layer i the i-th applied increment, so one oracle
/// answers for every state a refresh stream passes through.
class Oracle {
 public:
  /// Aggregates `facts` by (partkey, suppkey, custkey) and appends them as
  /// the next layer.
  Status AddLayer(FactProvider* facts);

  /// The answer to `query` over the first `layers` fact layers, rows sorted
  /// as QueryResult::SortRows orders them.
  QueryResult Answer(const SliceQuery& query, size_t layers) const;

 private:
  static constexpr size_t kAttrs = 3;
  struct Cell {
    Coord attr[kAttrs];
    AggValue agg;
  };
  std::vector<std::vector<Cell>> layers_;
};

}  // namespace suite
}  // namespace cubetree

#endif  // CUBETREE_BENCH_SUITE_ORACLE_H_
