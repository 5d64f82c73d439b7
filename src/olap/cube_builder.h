#ifndef CUBETREE_OLAP_CUBE_BUILDER_H_
#define CUBETREE_OLAP_CUBE_BUILDER_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "cubetree/forest.h"
#include "cubetree/view_def.h"
#include "sort/external_sorter.h"
#include "sort/spool.h"

namespace cubetree {

/// Maximum grouping attributes in a fact tuple.
inline constexpr size_t kMaxCubeAttrs = 12;

/// One fact-table row projected onto the grouping-attribute universe, plus
/// the measure. The warehouse layer resolves dimension hierarchies (e.g.
/// part.brand, time.year) into these attribute values before the cube
/// builder sees them.
struct FactTuple {
  Coord attr_values[kMaxCubeAttrs] = {0};
  int64_t measure = 0;
};

/// Pull stream of fact tuples.
class FactSource {
 public:
  virtual ~FactSource() = default;
  /// Sets *tuple to the next fact or nullptr at end.
  virtual Status Next(const FactTuple** tuple) = 0;
};

/// Re-openable provider of the fact stream (the builder may need more than
/// one pass when several views have no materialized ancestor).
class FactProvider {
 public:
  virtual ~FactProvider() = default;
  virtual Result<std::unique_ptr<FactSource>> Open() = 0;
};

/// FactSource over an in-memory vector.
class VectorFactSource : public FactSource {
 public:
  explicit VectorFactSource(const std::vector<FactTuple>* tuples)
      : tuples_(tuples) {}

  Status Next(const FactTuple** tuple) override {
    if (pos_ >= tuples_->size()) {
      *tuple = nullptr;
      return Status::OK();
    }
    *tuple = &(*tuples_)[pos_++];
    return Status::OK();
  }

 private:
  const std::vector<FactTuple>* tuples_;
  size_t pos_ = 0;
};

/// The set of computed views: one sealed, pack-order-sorted spool of
/// aggregate records per view. Implements the forest's ViewDataProvider so
/// it can be fed straight into Cubetree packing, and is equally the input
/// of the conventional engine's view loader. Destroying it removes every
/// spool file.
class ComputedViews : public CubetreeForest::ViewDataProvider {
 public:
  Result<std::unique_ptr<RecordStream>> OpenViewStream(
      const ViewDef& view) override;
  /// Sum of the sealed spool files' sizes — an exact byte count of what
  /// the streams will supply, feeding the refresh disk-space preflight.
  uint64_t EstimatedInputBytes() const override;

  Result<RecordSpool*> spool(uint32_t view_id);
  Result<uint64_t> row_count(uint32_t view_id) const;
  uint64_t total_rows() const;
  const std::vector<ViewDef>& views() const { return views_; }

 private:
  friend class CubeBuilder;

  struct Entry {
    ViewDef view;
    std::unique_ptr<RecordSpool> spool;
  };

  std::vector<ViewDef> views_;
  std::map<uint32_t, Entry> entries_;
};

/// A view materialized outside the builder (a healthy view of a forest)
/// that ComputeAll may derive children from. `open` streams its
/// ViewRecordBytes(arity) records in no particular order, a key possibly
/// more than once, so a child of it is always sorted and combined.
struct MaterializedView {
  ViewDef view;
  uint64_t rows = 0;  // Ranks it among a child's candidate parents.
  std::function<Result<std::unique_ptr<RecordStream>>()> open;
};

/// Sort-based computation of a set of aggregate views from the fact table,
/// following the paper's loading pipeline (Figure 11): each view is
/// computed from its smallest already-computed parent (the dependency graph
/// of Figure 10, per [AAD+96]) — or from the fact stream when it has none —
/// by sorting the parent's tuples in the child's pack order and merging
/// adjacent groups. The sort is skipped when the child's projection list
/// is a suffix of a computed parent's, whose stream is then already in the
/// child's pack order ([AAD+96]-style pipelined aggregation). The outputs
/// double as the packing inputs, which is why the paper counts the sort as
/// part of the load, not as overhead. Since
/// SUM and COUNT are distributive, any covering view is an exact parent,
/// so a repair derives lost views the same way from the surviving ones.
class CubeBuilder {
 public:
  struct Options {
    std::string temp_dir = ".";
    /// In-memory budget of each external sort.
    size_t sort_budget_bytes = 16u << 20;
    /// Shared I/O accounting for sort runs and spools.
    std::shared_ptr<IoStats> io_stats;
  };

  CubeBuilder(const CubeSchema& schema, Options options)
      : schema_(&schema), options_(std::move(options)) {}

  /// Computes all `views` (any order, replicas included), each from the
  /// smallest covering view already computed or in `materialized`, else
  /// from the fact provider. With `facts` null such a view is Unavailable,
  /// naming it, before any view is computed. Spool files are named after
  /// `tag` in temp_dir.
  Result<std::unique_ptr<ComputedViews>> ComputeAll(
      const std::vector<ViewDef>& views, FactProvider* facts,
      const std::string& tag,
      const std::vector<MaterializedView>& materialized = {});

  /// Views of the last ComputeAll that skipped their sort (already in
  /// pack order when projected from their parent).
  uint64_t pipelined_views() const { return pipelined_views_; }
  /// Views of the last ComputeAll that went through a full sort.
  uint64_t sorted_views() const { return sorted_views_; }
  /// Views of the last ComputeAll computed from the fact stream.
  uint64_t fact_views() const { return fact_views_; }

 private:
  /// Computes `view` from `parent`, which is `materialized`'s view when
  /// that is set, else a view of `out`; from the facts when it is null.
  Status ComputeOne(const ViewDef& view, const ViewDef* parent,
                    const MaterializedView* materialized, ComputedViews* out,
                    FactProvider* facts, const std::string& tag);

  const CubeSchema* schema_;
  Options options_;
  uint64_t pipelined_views_ = 0;
  uint64_t sorted_views_ = 0;
  uint64_t fact_views_ = 0;
};

/// The sort key of view records of `arity`: their coordinates as 4-byte
/// fields, the last one most significant (pack order).
std::vector<KeyField> ViewRecordKey(uint8_t arity);

/// Appends the view records of arity A that `input` yields, which arrive in
/// pack order, to `spool`, each run of equal keys combined into one record:
/// the combine step of sort-based aggregation. The loop is compiled per
/// arity and calls `input->Next` on the stream's own type, so a final
/// stream class is called directly. A group whose sum would leave int64 or
/// whose count would leave uint32 is InvalidArgument naming `view_id`.
template <size_t A, typename Stream>
Status CombineEqualKeys(Stream* input, uint32_t view_id, RecordSpool* spool) {
  constexpr size_t kKeyBytes = A * sizeof(Coord);
  constexpr size_t kBytes = ViewRecordBytes(A);
  const char* record = nullptr;
  CT_RETURN_NOT_OK(input->Next(&record));
  if (record == nullptr) return Status::OK();
  char group[kBytes];
  std::memcpy(group, record, kBytes);
  AggValue agg = ViewRecordAgg(group, A);
  while (true) {
    CT_RETURN_NOT_OK(input->Next(&record));
    if (record != nullptr && std::memcmp(record, group, kKeyBytes) == 0) {
      CT_RETURN_NOT_OK(MergeViewAggregate(
          view_id, ViewRecordAgg(record, A), &agg));
      continue;
    }
    SetViewRecordAgg(group, A, agg);
    CT_RETURN_NOT_OK(spool->Append(group));
    if (record == nullptr) return Status::OK();
    std::memcpy(group, record, kBytes);
    agg = ViewRecordAgg(group, A);
  }
}

}  // namespace cubetree

#endif  // CUBETREE_OLAP_CUBE_BUILDER_H_
