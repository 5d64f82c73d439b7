#ifndef CUBETREE_ENGINE_VIEW_STORE_H_
#define CUBETREE_ENGINE_VIEW_STORE_H_

#include <cstdint>

#include "common/result.h"
#include "common/status.h"
#include "obs/query_profile.h"
#include "olap/query_model.h"

namespace cubetree {

/// Common interface of the two storage organizations under comparison: the
/// conventional one (heap tables + B-trees) and the Cubetree forest. Both
/// materialize the same set of ROLAP views and answer the same slice
/// queries.
class ViewStore {
 public:
  virtual ~ViewStore() = default;

  /// Answers a slice query from the best materialized view available.
  /// `profile`, when non-null, receives the query's profile: its plan and
  /// points examined from both engines, every field from the Cubetree one.
  virtual Result<QueryResult> Execute(const SliceQuery& query,
                                      obs::QueryProfile* profile) = 0;

  /// Total bytes of the organization (data + indexing).
  virtual uint64_t StorageBytes() const = 0;
};

}  // namespace cubetree

#endif  // CUBETREE_ENGINE_VIEW_STORE_H_
