#ifndef CUBETREE_ENGINE_CONVENTIONAL_ENGINE_H_
#define CUBETREE_ENGINE_CONVENTIONAL_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "cubetree/view_def.h"
#include "engine/view_store.h"
#include "engine/wal.h"
#include "olap/cube_builder.h"
#include "olap/selection.h"
#include "storage/buffer_pool.h"
#include "table/heap_table.h"
#include "table/schema.h"

namespace cubetree {

/// The paper's "conventional" configuration: every materialized view is a
/// relational heap table (attrs + SUM + COUNT columns), query acceleration
/// comes from composite-key B-trees whose entries point at heap rows, and
/// incremental maintenance touches one group row at a time through a
/// primary key index. This is a faithful stand-in for the IUS tables +
/// B-tree setup the paper measures against.
class ConventionalEngine : public ViewStore {
 public:
  struct Options {
    std::string dir = ".";
    std::string name = "conv";
    /// Shared physical-I/O accounting.
    std::shared_ptr<IoStats> io_stats;
    /// In-memory budget for index-build sorts.
    size_t sort_budget_bytes = 16u << 20;
    /// Log every inserted/updated row through a write-ahead log, as the
    /// relational engine the paper measured does on its SQL insert/update
    /// path. (The Cubetree bulk loader writes fresh files and swaps them,
    /// so its path carries no log — same as the real Datablade.)
    bool enable_wal = true;
  };

  static Result<std::unique_ptr<ConventionalEngine>> Create(
      const CubeSchema& schema, Options options, BufferPool* pool);

  ~ConventionalEngine() override;

  /// Materializes `views` from the computed spools (appending rows to fresh
  /// heap tables). Indices are built separately — see BuildIndices — so
  /// the two load phases can be timed apart, as in the paper's Table 6.
  Status LoadTables(const std::vector<ViewDef>& views, ComputedViews* data);

  /// Builds the selected secondary indices (CREATE INDEX equivalent:
  /// scan + external sort + bottom-up B-tree build).
  Status BuildIndices(const std::vector<IndexDef>& indices);

  /// Builds one primary-key B-tree per view (full group key -> RowId).
  /// These are the paper's footnote-7 "additional indexing" that makes
  /// per-tuple incremental maintenance possible at all.
  Status BuildMaintenanceIndices();

  /// Per-tuple incremental view maintenance (Table 7, row 1): for every
  /// delta group of every view, look up the existing row via the primary
  /// index and update it in place, or insert a new row and fix every index.
  Status ApplyDeltaIncremental(ComputedViews* delta);

  /// Recompute-from-scratch refresh (Table 7, row 2): drops all tables and
  /// indices and reloads from freshly computed full data.
  Status Rebuild(ComputedViews* full_data);

  Result<QueryResult> Execute(const SliceQuery& query,
                              obs::QueryProfile* profile) override;

  uint64_t StorageBytes() const override;
  uint64_t TableBytes() const;
  uint64_t IndexBytes() const;
  const std::vector<ViewDef>& views() const { return views_; }

 private:
  struct ViewState {
    ViewDef def;
    Schema table_schema;
    std::unique_ptr<HeapTable> table;
    /// Secondary (selected) indices: RowId payload.
    std::vector<std::pair<IndexDef, std::unique_ptr<BPlusTree>>> indices;
    /// Primary maintenance index on the full group key.
    std::unique_ptr<BPlusTree> primary;
    /// Row of the arity-0 view (which has no B-tree-indexable key).
    RowId scalar_row{kInvalidPageId, 0};
  };

  ConventionalEngine(const CubeSchema& schema, Options options,
                     BufferPool* pool)
      : schema_(schema), options_(std::move(options)), pool_(pool) {}

  Schema MakeTableSchema(const ViewDef& view) const;
  Status LoadOneTable(ViewState* state, ComputedViews* data);
  Status BuildOneIndex(ViewState* state, const IndexDef& def);
  Result<ViewState*> StateForView(uint32_t view_id);

  /// Chooses the cheapest (view, index-or-scan) plan for `query` using the
  /// GHRU tuple-cost model, then runs it.
  Status ExecuteScan(ViewState* state, const SliceQuery& query,
                     QueryResult* result, obs::QueryProfile* profile);
  Status ExecuteIndex(ViewState* state, size_t index_pos,
                      const SliceQuery& query, QueryResult* result,
                      obs::QueryProfile* profile);

  CubeSchema schema_;
  Options options_;
  BufferPool* pool_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::vector<ViewDef> views_;
  std::map<uint32_t, ViewState> states_;
  std::vector<IndexDef> selected_indices_;
  bool maintenance_ready_ = false;
};

}  // namespace cubetree

#endif  // CUBETREE_ENGINE_CONVENTIONAL_ENGINE_H_
