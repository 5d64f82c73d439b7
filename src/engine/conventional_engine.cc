#include "engine/conventional_engine.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/coding.h"
#include "obs/trace.h"
#include "sort/external_sorter.h"

namespace cubetree {

namespace {

/// Slotted-page emulation: bytes a relational engine spends per heap row
/// beyond the column data (row header + slot entry).
constexpr uint32_t kRowOverheadBytes = 8;
/// Per-index-entry overhead (slot entry) and the default CREATE INDEX fill
/// factor (IUS: FILLFACTOR 90).
constexpr uint32_t kIndexEntryOverheadBytes = 4;
constexpr double kIndexFill = 0.9;

/// Positions of `attrs` (schema attribute indices) inside a view's
/// projection list. Fails if the view does not project one of them.
Result<std::vector<size_t>> PositionsInView(const ViewDef& view,
                                            const std::vector<uint32_t>& attrs) {
  std::vector<size_t> positions;
  positions.reserve(attrs.size());
  for (uint32_t attr : attrs) {
    size_t pos = view.attrs.size();
    for (size_t i = 0; i < view.attrs.size(); ++i) {
      if (view.attrs[i] == attr) {
        pos = i;
        break;
      }
    }
    if (pos == view.attrs.size()) {
      return Status::Internal("attribute not projected by view");
    }
    positions.push_back(pos);
  }
  return positions;
}

/// EntrySource over a sorted stream of (composite key, RowId) records. The
/// emitted value is the 8-byte encoded RowId zero-padded to the index's
/// value width (the pad models the slot-entry overhead).
class SortedIndexEntrySource : public BPlusTree::EntrySource {
 public:
  SortedIndexEntrySource(RecordStream* stream, size_t key_parts,
                         size_t value_size)
      : stream_(stream), key_parts_(key_parts), key_(key_parts),
        value_(value_size, '\0') {}

  Status Next(const uint32_t** key, const char** value) override {
    const char* record = nullptr;
    CT_RETURN_NOT_OK(stream_->Next(&record));
    if (record == nullptr) {
      *key = nullptr;
      *value = nullptr;
      return Status::OK();
    }
    for (size_t i = 0; i < key_parts_; ++i) {
      key_[i] = DecodeFixed32(record + i * sizeof(uint32_t));
    }
    std::memcpy(value_.data(), record + key_parts_ * sizeof(uint32_t),
                sizeof(uint64_t));
    *key = key_.data();
    *value = value_.data();
    return Status::OK();
  }

 private:
  RecordStream* stream_;
  size_t key_parts_;
  std::vector<uint32_t> key_;
  std::vector<char> value_;
};

/// The filter-and-group loop of both query access paths: `next_row` yields
/// candidate rows of `view`'s table one at a time (nullptr at the end).
/// Each row inside every interval of `query` is merged into its group with
/// MergeViewAggregate, so an overflowing group is InvalidArgument naming
/// the view. The groups are appended to `result`.
template <typename NextRow>
Status FilterAndGroup(const ViewDef& view, const Schema& table_schema,
                      const SliceQuery& query, NextRow&& next_row,
                      QueryResult* result) {
  CT_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                      PositionsInView(view, query.attrs));
  const uint8_t arity = view.arity();
  std::map<std::vector<Coord>, AggValue> groups;
  std::vector<Coord> group;
  const char* row = nullptr;
  while (true) {
    CT_RETURN_NOT_OK(next_row(&row));
    if (row == nullptr) break;
    RowRef ref(&table_schema, const_cast<char*>(row));
    bool match = true;
    for (size_t i = 0; i < query.attrs.size() && match; ++i) {
      const auto [lo, hi] = query.AttrInterval(i);
      const Coord value = ref.GetUInt32(positions[i]);
      match = value >= lo && value <= hi;
    }
    if (!match) continue;
    group.clear();
    for (size_t i = 0; i < query.attrs.size(); ++i) {
      if (query.IsGrouped(i)) group.push_back(ref.GetUInt32(positions[i]));
    }
    CT_RETURN_NOT_OK(MergeViewAggregate(
        view.id, AggValue{ref.GetInt64(arity), ref.GetUInt32(arity + 1)},
        &groups[group]));
  }
  for (auto& [key, agg] : groups) {
    result->rows.push_back(ResultRow{key, agg});
  }
  return Status::OK();
}

}  // namespace

ConventionalEngine::~ConventionalEngine() = default;

Result<std::unique_ptr<ConventionalEngine>> ConventionalEngine::Create(
    const CubeSchema& schema, Options options, BufferPool* pool) {
  if (pool == nullptr) {
    return Status::InvalidArgument("conventional engine: pool required");
  }
  auto engine = std::unique_ptr<ConventionalEngine>(
      new ConventionalEngine(schema, std::move(options), pool));
  CT_ASSIGN_OR_RETURN(
      engine->wal_,
      WriteAheadLog::Create(
          engine->options_.dir + "/" + engine->options_.name + ".wal",
          engine->options_.io_stats));
  return engine;
}

Schema ConventionalEngine::MakeTableSchema(const ViewDef& view) const {
  std::vector<Column> columns;
  for (uint32_t attr : view.attrs) {
    columns.push_back(Schema::UInt32(schema_.attr_names[attr]));
  }
  columns.push_back(Schema::Int64("sum_" + schema_.measure_name));
  columns.push_back(Schema::UInt32("cnt"));
  return Schema(std::move(columns));
}

Status ConventionalEngine::LoadOneTable(ViewState* state,
                                        ComputedViews* data) {
  const ViewDef& view = state->def;
  const std::string path = options_.dir + "/" + options_.name + "_v" +
                           std::to_string(view.id) + ".tbl";
  CT_ASSIGN_OR_RETURN(state->table,
                      HeapTable::Create(path, &state->table_schema, pool_,
                                        options_.io_stats, kRowOverheadBytes));
  CT_ASSIGN_OR_RETURN(auto stream, data->OpenViewStream(view));
  const uint8_t arity = view.arity();
  RowBuffer row(&state->table_schema);
  Coord coords[kMaxDims];
  AggValue agg;
  const char* record = nullptr;
  while (true) {
    CT_RETURN_NOT_OK(stream->Next(&record));
    if (record == nullptr) break;
    DecodeViewRecord(record, arity, coords, &agg);
    RowRef ref = row.ref();
    for (size_t i = 0; i < arity; ++i) ref.SetUInt32(i, coords[i]);
    ref.SetInt64(arity, agg.sum);
    ref.SetUInt32(arity + 1, agg.count);
    CT_RETURN_NOT_OK(wal_->LogRecord(row.data(), row.size()));
    CT_ASSIGN_OR_RETURN(RowId rid, state->table->Append(row.data()));
    if (arity == 0) state->scalar_row = rid;
  }
  CT_RETURN_NOT_OK(wal_->Force());  // Commit the view's load transaction.
  return state->table->Flush();
}

Status ConventionalEngine::LoadTables(const std::vector<ViewDef>& views,
                                      ComputedViews* data) {
  states_.clear();
  views_ = views;
  selected_indices_.clear();
  maintenance_ready_ = false;
  for (const ViewDef& view : views_) {
    ViewState& state = states_[view.id];
    state.def = view;
    state.table_schema = MakeTableSchema(view);
    CT_RETURN_NOT_OK(LoadOneTable(&state, data));
  }
  return Status::OK();
}

Status ConventionalEngine::BuildOneIndex(ViewState* state,
                                         const IndexDef& def) {
  const size_t key_parts = def.key_attrs.size();
  if (key_parts == 0 || key_parts > kMaxBTreeKeyParts) {
    return Status::InvalidArgument("index: unsupported key arity");
  }
  CT_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                      PositionsInView(state->def, def.key_attrs));

  // CREATE INDEX: scan the table, sort (key, rid) entries, build bottom-up.
  const size_t record_bytes = key_parts * sizeof(uint32_t) + sizeof(uint64_t);
  ExternalSorter::Options sort_options;
  sort_options.record_size = record_bytes;
  sort_options.memory_budget_bytes = options_.sort_budget_bytes;
  sort_options.temp_dir = options_.dir;
  sort_options.io_stats = options_.io_stats;
  // The key parts in order, the first most significant.
  std::vector<KeyField> sort_key;
  sort_key.reserve(key_parts);
  for (size_t i = 0; i < key_parts; ++i) {
    sort_key.push_back(KeyField{static_cast<uint32_t>(i * sizeof(uint32_t)),
                                sizeof(uint32_t)});
  }
  ExternalSorter sorter(sort_options, std::move(sort_key));

  HeapTable::Iterator it = state->table->Scan();
  std::vector<char> record(record_bytes);
  const char* row = nullptr;
  while (true) {
    CT_RETURN_NOT_OK(it.Next(&row));
    if (row == nullptr) break;
    RowRef ref(&state->table_schema, const_cast<char*>(row));
    for (size_t i = 0; i < key_parts; ++i) {
      EncodeFixed32(record.data() + i * sizeof(uint32_t),
                    ref.GetUInt32(positions[i]));
    }
    EncodeFixed64(record.data() + key_parts * sizeof(uint32_t),
                  it.current_rid().Encode());
    CT_RETURN_NOT_OK(sorter.Add(record.data()));
  }
  CT_ASSIGN_OR_RETURN(auto sorted, sorter.Finish());

  BTreeOptions tree_options;
  tree_options.key_parts = static_cast<uint8_t>(key_parts);
  // Slot-entry overhead rides in the value so leaf capacity matches what a
  // slotted index page holds.
  tree_options.value_size = sizeof(uint64_t) + kIndexEntryOverheadBytes;
  const std::string path = options_.dir + "/" + options_.name + "_i" +
                           std::to_string(def.id) + "_v" +
                           std::to_string(def.view_id) + ".idx";
  CT_ASSIGN_OR_RETURN(auto tree, BPlusTree::Create(path, tree_options, pool_,
                                                   options_.io_stats));
  SortedIndexEntrySource source(sorted.get(), key_parts,
                                tree_options.value_size);
  CT_RETURN_NOT_OK(tree->BulkBuild(&source, kIndexFill));
  CT_RETURN_NOT_OK(tree->Flush());
  state->indices.emplace_back(def, std::move(tree));
  return Status::OK();
}

Status ConventionalEngine::BuildIndices(
    const std::vector<IndexDef>& indices) {
  for (const IndexDef& def : indices) {
    CT_ASSIGN_OR_RETURN(ViewState * state, StateForView(def.view_id));
    CT_RETURN_NOT_OK(BuildOneIndex(state, def));
    selected_indices_.push_back(def);
  }
  return Status::OK();
}

Status ConventionalEngine::BuildMaintenanceIndices() {
  uint32_t next_id = 1000;  // Distinct id space from selected indices.
  for (auto& [view_id, state] : states_) {
    if (state.primary != nullptr || state.def.arity() == 0) continue;
    IndexDef def;
    def.id = next_id++;
    def.view_id = view_id;
    def.key_attrs = state.def.attrs;
    // Reuse the bulk path, then move the built tree into the primary slot.
    CT_RETURN_NOT_OK(BuildOneIndex(&state, def));
    state.primary = std::move(state.indices.back().second);
    state.indices.pop_back();
  }
  maintenance_ready_ = true;
  return Status::OK();
}

Status ConventionalEngine::ApplyDeltaIncremental(ComputedViews* delta) {
  if (!maintenance_ready_) {
    return Status::InvalidArgument(
        "conventional engine: call BuildMaintenanceIndices first");
  }
  for (const ViewDef& view : views_) {
    CT_ASSIGN_OR_RETURN(ViewState * state, StateForView(view.id));
    CT_ASSIGN_OR_RETURN(auto stream, delta->OpenViewStream(view));
    const uint8_t arity = view.arity();
    Coord coords[kMaxDims];
    AggValue agg;
    RowBuffer row(&state->table_schema);
    std::vector<char> existing(state->table_schema.row_size());
    const char* record = nullptr;
    // Sized for the RowId plus the slot-overhead pad the indices carry.
    char rid_value[sizeof(uint64_t) + 8] = {0};
    while (true) {
      CT_RETURN_NOT_OK(stream->Next(&record));
      if (record == nullptr) break;
      DecodeViewRecord(record, arity, coords, &agg);

      // One-at-a-time: the group's row is the arity-0 view's single row,
      // or found through the primary index.
      RowId rid = state->scalar_row;
      bool found = arity == 0;
      if (!found) {
        CT_ASSIGN_OR_RETURN(found, state->primary->Lookup(coords, rid_value));
        if (found) rid = RowId::Decode(DecodeFixed64(rid_value));
      }
      if (found) {
        CT_RETURN_NOT_OK(state->table->Get(rid, existing.data()));
        RowRef ref(&state->table_schema, existing.data());
        AggValue merged{ref.GetInt64(arity), ref.GetUInt32(arity + 1)};
        CT_RETURN_NOT_OK(MergeViewAggregate(view.id, agg, &merged));
        ref.SetInt64(arity, merged.sum);
        ref.SetUInt32(arity + 1, merged.count);
        CT_RETURN_NOT_OK(wal_->LogRecord(existing.data(), existing.size()));
        CT_RETURN_NOT_OK(state->table->Update(rid, existing.data()));
      } else {
        RowRef ref = row.ref();
        for (size_t i = 0; i < arity; ++i) ref.SetUInt32(i, coords[i]);
        ref.SetInt64(arity, agg.sum);
        ref.SetUInt32(arity + 1, agg.count);
        CT_RETURN_NOT_OK(wal_->LogRecord(row.data(), row.size()));
        CT_ASSIGN_OR_RETURN(rid, state->table->Append(row.data()));
        EncodeFixed64(rid_value, rid.Encode());
        CT_RETURN_NOT_OK(state->primary->Insert(coords, rid_value));
        // Every secondary index on the view gains an entry too.
        uint32_t key[kMaxBTreeKeyParts];
        for (auto& [def, tree] : state->indices) {
          CT_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                              PositionsInView(view, def.key_attrs));
          for (size_t i = 0; i < positions.size(); ++i) {
            key[i] = coords[positions[i]];
          }
          CT_RETURN_NOT_OK(tree->Insert(key, rid_value));
        }
      }
    }
    CT_RETURN_NOT_OK(wal_->Force());  // Commit the view's delta batch.
    CT_RETURN_NOT_OK(state->table->Flush());
  }
  return pool_->FlushAll();
}

Status ConventionalEngine::Rebuild(ComputedViews* full_data) {
  const std::vector<ViewDef> views = views_;
  const std::vector<IndexDef> indices = selected_indices_;
  const bool had_maintenance = maintenance_ready_;
  CT_RETURN_NOT_OK(LoadTables(views, full_data));
  CT_RETURN_NOT_OK(BuildIndices(indices));
  if (had_maintenance) {
    CT_RETURN_NOT_OK(BuildMaintenanceIndices());
  }
  return Status::OK();
}

Result<ConventionalEngine::ViewState*> ConventionalEngine::StateForView(
    uint32_t view_id) {
  auto it = states_.find(view_id);
  if (it == states_.end()) {
    return Status::NotFound("conventional engine: view not materialized");
  }
  return &it->second;
}

Status ConventionalEngine::ExecuteScan(ViewState* state,
                                       const SliceQuery& query,
                                       QueryResult* result,
                                       obs::QueryProfile* profile) {
  const ViewDef& view = state->def;
  HeapTable::Iterator it = state->table->Scan();
  uint64_t accessed = 0;
  CT_RETURN_NOT_OK(FilterAndGroup(
      view, state->table_schema, query,
      [&](const char** row) -> Status {
        CT_RETURN_NOT_OK(it.Next(row));
        if (*row != nullptr) ++accessed;
        return Status::OK();
      },
      result));
  if (profile != nullptr) {
    profile->points_examined = accessed;
    profile->plan = "scan " + view.Name(schema_);
  }
  return Status::OK();
}

Status ConventionalEngine::ExecuteIndex(ViewState* state, size_t index_pos,
                                        const SliceQuery& query,
                                        QueryResult* result,
                                        obs::QueryProfile* profile) {
  const ViewDef& view = state->def;
  const IndexDef& def = state->indices[index_pos].first;
  BPlusTree* tree = state->indices[index_pos].second.get();

  // Constrained prefix of the index key: equality predicates extend the
  // prefix; the first range predicate bounds the scan and ends it (the
  // classic composite-key range rule).
  const size_t key_parts = def.key_attrs.size();
  std::vector<uint32_t> low(key_parts, 0), high(key_parts, 0xFFFFFFFFu);
  size_t prefix = 0;
  for (uint32_t attr : def.key_attrs) {
    bool is_equality = false;
    std::optional<std::pair<Coord, Coord>> interval;
    for (size_t i = 0; i < query.attrs.size(); ++i) {
      if (query.attrs[i] != attr || !query.AttrConstrained(i)) continue;
      interval = query.AttrInterval(i);
      is_equality = query.bindings[i].has_value();
    }
    if (!interval.has_value()) break;
    low[prefix] = interval->first;
    high[prefix] = interval->second;
    ++prefix;
    if (!is_equality) break;  // Range predicate ends the usable prefix.
  }

  // Each index entry in the key range costs an entry and a heap fetch.
  std::vector<char> heap_row(state->table_schema.row_size());
  uint64_t accessed = 0;
  BPlusTree::Iterator it = tree->Scan(low.data(), high.data());
  CT_RETURN_NOT_OK(FilterAndGroup(
      view, state->table_schema, query,
      [&](const char** row) -> Status {
        const uint32_t* key = nullptr;
        const char* value = nullptr;
        CT_RETURN_NOT_OK(it.Next(&key, &value));
        *row = nullptr;
        if (key == nullptr) return Status::OK();
        const RowId rid = RowId::Decode(DecodeFixed64(value));
        CT_RETURN_NOT_OK(state->table->Get(rid, heap_row.data()));
        accessed += 2;
        *row = heap_row.data();
        return Status::OK();
      },
      result));
  if (profile != nullptr) {
    profile->points_examined = accessed;
    profile->plan = "index " + def.Name(schema_) + " -> " + view.Name(schema_);
  }
  return Status::OK();
}

Result<QueryResult> ConventionalEngine::Execute(const SliceQuery& query,
                                                obs::QueryProfile* profile) {
  obs::TraceScope trace("query", options_.io_stats.get());
  trace.Annotate("engine", "conventional");
  // Plan: cheapest (view, access path) by the GHRU tuple-cost model.
  // Fraction of the key space attr is restricted to (1 = unconstrained),
  // plus whether the restriction is an equality (ranges end an index
  // prefix).
  auto selectivity = [&](uint32_t attr, bool* is_equality) -> double {
    *is_equality = false;
    for (size_t qi = 0; qi < query.attrs.size(); ++qi) {
      if (query.attrs[qi] != attr || !query.AttrConstrained(qi)) continue;
      *is_equality = query.bindings[qi].has_value();
      const auto [lo, hi] = query.AttrInterval(qi);
      const double domain =
          std::max<double>(1.0, schema_.attr_domains[attr]);
      return std::min(domain, static_cast<double>(hi) - lo + 1) / domain;
    }
    return 1.0;
  };

  ViewState* best_state = nullptr;
  int best_index = -1;  // -1 = scan.
  double best_cost = 0;
  {
    obs::Span route_span("route");
    for (auto& [view_id, state] : states_) {
      if (!state.def.Covers(query.node_mask)) continue;
      const double rows =
          static_cast<double>(std::max<uint64_t>(state.table->num_rows(), 1));
      // Scan path.
      if (best_state == nullptr || rows < best_cost) {
        best_state = &state;
        best_index = -1;
        best_cost = rows;
      }
      // Indexed paths (an index entry + a heap fetch per matching tuple).
      for (size_t i = 0; i < state.indices.size(); ++i) {
        double fraction = 1.0;
        for (uint32_t attr : state.indices[i].first.key_attrs) {
          bool is_equality = false;
          const double s = selectivity(attr, &is_equality);
          if (s >= 1.0) break;
          fraction *= s;
          if (!is_equality) break;
        }
        const double cost = std::max(1.0, 2.0 * rows * fraction);
        if (cost < best_cost) {
          best_state = &state;
          best_index = static_cast<int>(i);
          best_cost = cost;
        }
      }
    }
    if (best_state != nullptr && route_span.active()) {
      route_span.Annotate("view", best_state->def.Name(schema_));
      route_span.Annotate("access_path",
                          best_index < 0 ? "scan" : "index");
      route_span.Annotate("estimated_cost", best_cost);
    }
  }
  if (best_state == nullptr) {
    return Status::NotFound("no materialized view answers this query");
  }

  QueryResult result;
  for (size_t i = 0; i < query.attrs.size(); ++i) {
    if (query.IsGrouped(i)) {
      result.group_attrs.push_back(query.attrs[i]);
    }
  }
  if (best_index < 0) {
    obs::Span scan_span("scan");
    CT_RETURN_NOT_OK(ExecuteScan(best_state, query, &result, profile));
  } else {
    obs::Span index_span("index");
    CT_RETURN_NOT_OK(ExecuteIndex(best_state, static_cast<size_t>(best_index),
                                  query, &result, profile));
  }
  return result;
}

uint64_t ConventionalEngine::TableBytes() const {
  uint64_t total = 0;
  for (const auto& [id, state] : states_) {
    if (state.table != nullptr) total += state.table->FileSizeBytes();
  }
  return total;
}

uint64_t ConventionalEngine::IndexBytes() const {
  uint64_t total = 0;
  for (const auto& [id, state] : states_) {
    for (const auto& [def, tree] : state.indices) {
      total += tree->FileSizeBytes();
    }
    if (state.primary != nullptr) total += state.primary->FileSizeBytes();
  }
  return total;
}

uint64_t ConventionalEngine::StorageBytes() const {
  return TableBytes() + IndexBytes();
}

}  // namespace cubetree
