#include "olap/cube_builder.h"

#include <algorithm>
#include <cstring>

namespace cubetree {

AggregatingStream::AggregatingStream(RecordStream* input, uint8_t arity)
    : input_(input), next_(DispatchArity(arity, [](auto a) {
        return &AggregatingStream::NextFixed<decltype(a)::value>;
      })) {}

template <size_t A>
Status AggregatingStream::NextFixed(const char** record) {
  constexpr size_t kBytes = ViewRecordBytes(A);
  if (done_ && !have_pending_) {
    *record = nullptr;
    return Status::OK();
  }
  // Load the first record of the next group.
  if (!have_pending_) {
    const char* first = nullptr;
    CT_RETURN_NOT_OK(input_->Next(&first));
    if (first == nullptr) {
      done_ = true;
      *record = nullptr;
      return Status::OK();
    }
    std::memcpy(pending_, first, kBytes);
    have_pending_ = true;
  }
  std::memcpy(current_, pending_, kBytes);
  have_pending_ = false;
  // Fold all subsequent records with the same group key into current_.
  Coord key[kMaxDims] = {0};
  AggValue agg;
  DecodeViewRecord(current_, A, key, &agg);
  while (true) {
    const char* next = nullptr;
    CT_RETURN_NOT_OK(input_->Next(&next));
    if (next == nullptr) {
      done_ = true;
      break;
    }
    if (ViewRecordCompare(current_, next, A) != 0) {
      std::memcpy(pending_, next, kBytes);
      have_pending_ = true;
      break;
    }
    AggValue more;
    DecodeViewRecord(next, A, key, &more);
    agg.Merge(more);
  }
  EncodeViewRecord(current_, key, A, agg);
  *record = current_;
  return Status::OK();
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
    if (entry.spool != nullptr) total += entry.spool->FileSizeBytes();
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

Status ComputedViews::Destroy() {
  for (auto& [id, entry] : entries_) {
    if (entry.spool != nullptr) {
      CT_RETURN_NOT_OK(entry.spool->Destroy());
      entry.spool.reset();
    }
  }
  entries_.clear();
  return Status::OK();
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
    const std::string& tag) {
  auto out = std::make_unique<ComputedViews>();
  out->views_ = views;
  pipelined_views_ = 0;
  sorted_views_ = 0;

  // Compute in descending arity so every view's potential parents (strict
  // or same-set supersets, e.g. a replica's original) are ready first.
  std::vector<const ViewDef*> order;
  for (const ViewDef& v : views) order.push_back(&v);
  std::stable_sort(order.begin(), order.end(),
                   [](const ViewDef* a, const ViewDef* b) {
                     return a->arity() > b->arity();
                   });

  for (const ViewDef* view : order) {
    // Smallest already-computed parent covering this view's attribute
    // set; also track the smallest parent whose pack order the child can
    // reuse without sorting (projection list a suffix of the parent's).
    const ViewDef* parent = nullptr;
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
    // Streaming a moderately larger parent beats sorting a smaller one:
    // the pipelined path reads once sequentially, the sorted path reads,
    // spills and merges. 4x is a conservative crossover.
    if (options_.pipelined_aggregation && suffix_parent != nullptr &&
        parent != nullptr && suffix_rows <= 4 * parent_rows) {
      parent = suffix_parent;
    }
    CT_RETURN_NOT_OK(ComputeOne(*view, parent, out.get(), facts, tag));
  }
  return out;
}

namespace {

/// Streams a child view's (unaggregated) records of arity A projected from
/// its parent's spool. A view record is its coordinates then the aggregate
/// payload, so projecting copies A coordinates and the payload verbatim.
template <size_t A>
class ProjectingStream : public RecordStream {
 public:
  ProjectingStream(std::unique_ptr<RecordSpool::Reader> reader,
                   uint8_t parent_arity, const std::vector<size_t>& positions)
      : reader_(std::move(reader)),
        payload_offset_(parent_arity * sizeof(Coord)) {
    for (size_t i = 0; i < A; ++i) {
      coord_offsets_[i] = positions[i] * sizeof(Coord);
    }
  }

  Status Next(const char** record) override {
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
  std::unique_ptr<RecordSpool::Reader> reader_;
  size_t coord_offsets_[kMaxDims] = {0};
  size_t payload_offset_;
  char record_[ViewRecordBytes(A)];
};

}  // namespace

Status CubeBuilder::ComputeOne(const ViewDef& view, const ViewDef* parent,
                               ComputedViews* out, FactProvider* facts,
                               const std::string& tag) {
  const uint8_t arity = view.arity();
  if (arity > kMaxDims) {
    return Status::InvalidArgument(
        "cube builder: view " + std::to_string(view.id) + " has arity " +
        std::to_string(arity) + " above " + std::to_string(kMaxDims));
  }
  const size_t record_bytes = ViewRecordBytes(arity);

  // Assemble the child's (unaggregated) input stream.
  std::unique_ptr<RecordStream> input;
  bool already_sorted = false;
  if (parent != nullptr) {
    // Positions of this view's attributes inside the parent's projection.
    std::vector<size_t> positions;
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
    already_sorted =
        options_.pipelined_aggregation && IsSuffixProjection(view, *parent);
    CT_ASSIGN_OR_RETURN(RecordSpool * parent_spool, out->spool(parent->id));
    CT_ASSIGN_OR_RETURN(auto reader, parent_spool->NewReader());
    input = DispatchArity(arity, [&](auto a) -> std::unique_ptr<RecordStream> {
      return std::make_unique<ProjectingStream<decltype(a)::value>>(
          std::move(reader), parent->arity(), positions);
    });
  }

  ExternalSorter::Options sort_options;
  sort_options.record_size = record_bytes;
  sort_options.memory_budget_bytes = options_.sort_budget_bytes;
  sort_options.temp_dir = options_.temp_dir;
  sort_options.io_stats = options_.io_stats;
  // The run sort calls the comparator for every comparison, so it is
  // compiled for this view's arity.
  ExternalSorter sorter(
      sort_options, DispatchArity(arity, [](auto a) -> RecordComparator {
        return [](const char* x, const char* y) {
          return ViewRecordCompare(x, y, decltype(a)::value) < 0;
        };
      }));

  std::unique_ptr<RecordStream> ordered;
  if (already_sorted) {
    // Pipelined path: the parent's order is the child's pack order.
    ordered = std::move(input);
    ++pipelined_views_;
  } else {
    if (input != nullptr) {
      const char* rec = nullptr;
      while (true) {
        CT_RETURN_NOT_OK(input->Next(&rec));
        if (rec == nullptr) break;
        CT_RETURN_NOT_OK(sorter.Add(rec));
      }
    } else {
      // No parent: project straight off the fact stream.
      CT_ASSIGN_OR_RETURN(auto fact_stream, facts->Open());
      CT_RETURN_NOT_OK(DispatchArity(arity, [&](auto a) -> Status {
        constexpr uint8_t A = a;
        char record[ViewRecordBytes(A)];
        Coord coords[kMaxDims] = {0};
        const FactTuple* tuple = nullptr;
        while (true) {
          CT_RETURN_NOT_OK(fact_stream->Next(&tuple));
          if (tuple == nullptr) return Status::OK();
          for (size_t i = 0; i < A; ++i) {
            coords[i] = tuple->attr_values[view.attrs[i]];
          }
          EncodeViewRecord(record, coords, A, AggValue{tuple->measure, 1});
          CT_RETURN_NOT_OK(sorter.Add(record));
        }
      }));
    }
    CT_ASSIGN_OR_RETURN(ordered, sorter.Finish());
    ++sorted_views_;
  }

  AggregatingStream aggregated(ordered.get(), arity);
  const std::string path = options_.temp_dir + "/" + tag + "_view" +
                           std::to_string(view.id) + ".spl";
  CT_ASSIGN_OR_RETURN(auto spool, RecordSpool::Create(path, record_bytes,
                                                      options_.io_stats));
  const char* agg_record = nullptr;
  while (true) {
    CT_RETURN_NOT_OK(aggregated.Next(&agg_record));
    if (agg_record == nullptr) break;
    CT_RETURN_NOT_OK(spool->Append(agg_record));
  }
  CT_RETURN_NOT_OK(spool->Seal());
  out->entries_[view.id] = ComputedViews::Entry{view, std::move(spool)};
  return Status::OK();
}

}  // namespace cubetree
