#include "olap/cube_builder.h"

#include <algorithm>
#include <cstring>

namespace cubetree {

std::vector<KeyField> ViewRecordKey(uint8_t arity) {
  std::vector<KeyField> key;
  key.reserve(arity);
  for (size_t i = arity; i > 0; --i) {
    key.push_back(KeyField{static_cast<uint32_t>((i - 1) * sizeof(Coord)),
                           sizeof(Coord)});
  }
  return key;
}

Result<std::unique_ptr<RecordStream>> ComputedViews::OpenViewStream(
    const ViewDef& view) {
  CT_ASSIGN_OR_RETURN(RecordSpool * s, spool(view.id));
  CT_ASSIGN_OR_RETURN(auto reader, s->NewReader());
  return std::unique_ptr<RecordStream>(std::move(reader));
}

uint64_t ComputedViews::EstimatedInputBytes() const {
  uint64_t total = 0;
  for (const auto& [id, entry] : entries_) {
    total += entry.spool->FileSizeBytes();
  }
  return total;
}

Result<RecordSpool*> ComputedViews::spool(uint32_t view_id) {
  auto it = entries_.find(view_id);
  if (it == entries_.end()) {
    return Status::NotFound("computed views: unknown view id");
  }
  return it->second.spool.get();
}

Result<uint64_t> ComputedViews::row_count(uint32_t view_id) const {
  auto it = entries_.find(view_id);
  if (it == entries_.end()) {
    return Status::NotFound("computed views: unknown view id");
  }
  return it->second.spool->num_records();
}

uint64_t ComputedViews::total_rows() const {
  uint64_t total = 0;
  for (const auto& [id, entry] : entries_) {
    total += entry.spool->num_records();
  }
  return total;
}

namespace {

/// True when `child`'s projection list is a suffix of `parent`'s, in
/// order — then the parent's pack order is also the child's, and the
/// child can be aggregated on the fly without a sort.
bool IsSuffixProjection(const ViewDef& child, const ViewDef& parent) {
  const size_t m = child.attrs.size();
  const size_t k = parent.attrs.size();
  if (m > k) return false;
  return std::equal(child.attrs.begin(), child.attrs.end(),
                    parent.attrs.end() - m);
}

}  // namespace

Result<std::unique_ptr<ComputedViews>> CubeBuilder::ComputeAll(
    const std::vector<ViewDef>& views, FactProvider* facts,
    const std::string& tag, const std::vector<MaterializedView>& materialized) {
  pipelined_views_ = 0;
  sorted_views_ = 0;
  fact_views_ = 0;
  for (const ViewDef& view : views) {
    // Covering is transitive: without the facts, a view is computable
    // exactly when a materialized view covers it.
    auto covers = [&](const MaterializedView& m) {
      return m.view.id != view.id && m.view.Covers(view.AttrMask());
    };
    if (facts == nullptr &&
        std::none_of(materialized.begin(), materialized.end(), covers)) {
      return Status::Unavailable("cube builder: no fact provider, and no "
                                 "materialized view covers " +
                                 view.Name(*schema_));
    }
  }
  auto out = std::make_unique<ComputedViews>();
  out->views_ = views;

  // Compute in descending arity so every view's potential parents (strict
  // or same-set supersets, e.g. a replica's original) are ready first.
  std::vector<const ViewDef*> order;
  for (const ViewDef& v : views) order.push_back(&v);
  std::stable_sort(order.begin(), order.end(),
                   [](const ViewDef* a, const ViewDef* b) {
                     return a->arity() > b->arity();
                   });

  for (const ViewDef* view : order) {
    // Smallest already-computed or materialized parent covering this
    // view's attribute set; also track the smallest computed parent whose
    // pack order the child can reuse without sorting (projection list a
    // suffix of the parent's).
    const ViewDef* parent = nullptr;
    const MaterializedView* parent_source = nullptr;
    uint64_t parent_rows = 0;
    const ViewDef* suffix_parent = nullptr;
    uint64_t suffix_rows = 0;
    for (const auto& [id, entry] : out->entries_) {
      if (id == view->id) continue;
      if ((entry.view.AttrMask() & view->AttrMask()) != view->AttrMask()) {
        continue;
      }
      const uint64_t rows = entry.spool->num_records();
      if (parent == nullptr || rows < parent_rows) {
        parent = &entry.view;
        parent_rows = rows;
      }
      if (IsSuffixProjection(*view, entry.view) &&
          (suffix_parent == nullptr || rows < suffix_rows)) {
        suffix_parent = &entry.view;
        suffix_rows = rows;
      }
    }
    for (const MaterializedView& m : materialized) {
      if (m.view.id == view->id || !m.view.Covers(view->AttrMask())) continue;
      if (parent == nullptr || m.rows < parent_rows) {
        parent = &m.view;
        parent_source = &m;
        parent_rows = m.rows;
      }
    }
    // Streaming a moderately larger parent beats sorting a smaller one:
    // the pipelined path reads once sequentially, the sorted path reads,
    // spills and merges. 4x is a conservative crossover.
    if (suffix_parent != nullptr && parent != nullptr &&
        suffix_rows <= 4 * parent_rows) {
      parent = suffix_parent;
      parent_source = nullptr;
    }
    CT_RETURN_NOT_OK(
        ComputeOne(*view, parent, parent_source, out.get(), facts, tag));
  }
  return out;
}

namespace {

/// Streams a child view's (unaggregated) records of arity A projected from
/// its parent's records, which `Reader` yields: a spool's reader, called
/// directly since that class is final, or any RecordStream. A view record
/// is its coordinates then the aggregate payload, so projecting copies A
/// coordinates and the payload verbatim.
template <size_t A, typename Reader>
class ProjectingStream {
 public:
  ProjectingStream(std::unique_ptr<Reader> reader, uint8_t parent_arity,
                   const std::vector<size_t>& positions)
      : reader_(std::move(reader)),
        payload_offset_(parent_arity * sizeof(Coord)) {
    for (size_t i = 0; i < A; ++i) {
      coord_offsets_[i] = positions[i] * sizeof(Coord);
    }
  }

  Status Next(const char** record) {
    const char* raw = nullptr;
    CT_RETURN_NOT_OK(reader_->Next(&raw));
    if (raw == nullptr) {
      *record = nullptr;
      return Status::OK();
    }
    for (size_t i = 0; i < A; ++i) {
      std::memcpy(record_ + i * sizeof(Coord), raw + coord_offsets_[i],
                  sizeof(Coord));
    }
    std::memcpy(record_ + A * sizeof(Coord), raw + payload_offset_,
                kAggValueBytes);
    *record = record_;
    return Status::OK();
  }

 private:
  std::unique_ptr<Reader> reader_;
  size_t coord_offsets_[kMaxDims] = {0};
  size_t payload_offset_;
  char record_[ViewRecordBytes(A)];
};

/// Adds every record `input` yields to `sorter`.
template <typename Stream>
Status AddAll(Stream* input, ExternalSorter* sorter) {
  const char* record = nullptr;
  while (true) {
    CT_RETURN_NOT_OK(input->Next(&record));
    if (record == nullptr) return Status::OK();
    CT_RETURN_NOT_OK(sorter->Add(record));
  }
}

}  // namespace

Status CubeBuilder::ComputeOne(const ViewDef& view, const ViewDef* parent,
                               const MaterializedView* materialized,
                               ComputedViews* out, FactProvider* facts,
                               const std::string& tag) {
  const uint8_t arity = view.arity();
  if (arity > kMaxDims) {
    return Status::InvalidArgument(
        "cube builder: view " + std::to_string(view.id) + " has arity " +
        std::to_string(arity) + " above " + std::to_string(kMaxDims));
  }
  const size_t record_bytes = ViewRecordBytes(arity);

  // Positions of this view's attributes inside the parent's projection.
  std::vector<size_t> positions;
  if (parent != nullptr) {
    for (uint32_t attr : view.attrs) {
      size_t pos = parent->attrs.size();
      for (size_t i = 0; i < parent->attrs.size(); ++i) {
        if (parent->attrs[i] == attr) {
          pos = i;
          break;
        }
      }
      if (pos == parent->attrs.size()) {
        return Status::Internal("cube builder: parent does not cover child");
      }
      positions.push_back(pos);
    }
  }
  // Pipelined path: the computed parent's order is the child's pack order.
  const bool already_sorted = parent != nullptr && materialized == nullptr &&
                              IsSuffixProjection(view, *parent);

  const std::string path = options_.temp_dir + "/" + tag + "_view" +
                           std::to_string(view.id) + ".spl";
  std::unique_ptr<RecordSpool> spool;
  ExternalSorter::Options sort_options;
  sort_options.record_size = record_bytes;
  sort_options.memory_budget_bytes = options_.sort_budget_bytes;
  sort_options.temp_dir = options_.temp_dir;
  sort_options.io_stats = options_.io_stats;
  ExternalSorter sorter(sort_options, ViewRecordKey(arity));
  // The projection, the sort input and the combine loop are compiled for
  // this view's arity; the combine loop appends straight to the spool.
  CT_RETURN_NOT_OK(DispatchArity(arity, [&](auto a) -> Status {
    constexpr uint8_t A = a;
    if (materialized != nullptr) {
      CT_ASSIGN_OR_RETURN(std::unique_ptr<RecordStream> stream,
                          materialized->open());
      ProjectingStream<A, RecordStream> input(std::move(stream),
                                              parent->arity(), positions);
      CT_RETURN_NOT_OK(AddAll(&input, &sorter));
    } else if (parent != nullptr) {
      CT_ASSIGN_OR_RETURN(RecordSpool * parent_spool, out->spool(parent->id));
      CT_ASSIGN_OR_RETURN(auto reader, parent_spool->NewReader());
      ProjectingStream<A, RecordSpool::Reader> input(
          std::move(reader), parent->arity(), positions);
      if (already_sorted) {
        ++pipelined_views_;
        CT_ASSIGN_OR_RETURN(spool, RecordSpool::Create(path, record_bytes,
                                                       options_.io_stats));
        return CombineEqualKeys<A>(&input, view.id, spool.get());
      }
      CT_RETURN_NOT_OK(AddAll(&input, &sorter));
    } else {
      // No parent: project straight off the fact stream.
      ++fact_views_;
      CT_ASSIGN_OR_RETURN(auto fact_stream, facts->Open());
      char record[ViewRecordBytes(A)];
      Coord coords[kMaxDims] = {0};
      const FactTuple* tuple = nullptr;
      while (true) {
        CT_RETURN_NOT_OK(fact_stream->Next(&tuple));
        if (tuple == nullptr) break;
        for (size_t i = 0; i < A; ++i) {
          coords[i] = tuple->attr_values[view.attrs[i]];
        }
        EncodeViewRecord(record, coords, A, AggValue{tuple->measure, 1});
        CT_RETURN_NOT_OK(sorter.Add(record));
      }
    }
    CT_ASSIGN_OR_RETURN(std::unique_ptr<SortedStream> sorted,
                        sorter.Finish());
    ++sorted_views_;
    CT_ASSIGN_OR_RETURN(spool, RecordSpool::Create(path, record_bytes,
                                                   options_.io_stats));
    return CombineEqualKeys<A>(sorted.get(), view.id, spool.get());
  }));
  CT_RETURN_NOT_OK(spool->Seal());
  out->entries_[view.id] = ComputedViews::Entry{view, std::move(spool)};
  return Status::OK();
}

}  // namespace cubetree
