#include "olap/cube_builder.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/parallel_for.h"
#include "common/thread_annotations.h"
#include "obs/trace.h"

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

/// A child's parent: a computed view, a materialized one (`materialized`
/// set) or, when `view` is null, the fact stream.
struct Parent {
  const ViewDef* view = nullptr;
  const MaterializedView* materialized = nullptr;
};

/// The smallest covering parent of `view` among `computed`, in ascending
/// id order, each one's attribute set in `set_rows` (attribute mask to
/// row count), and `materialized`: ties go to the lowest id, then to the
/// first materialized view listed. A computed parent whose projection
/// list ends in the child's wins instead unless it is more than 4x
/// larger, since streaming it reads once sequentially where a sort reads,
/// spills and merges.
Parent ChooseParent(const ViewDef& view,
                    const std::vector<const ViewDef*>& computed,
                    const std::map<uint32_t, uint64_t>& set_rows,
                    const std::vector<MaterializedView>& materialized) {
  Parent parent;
  uint64_t parent_rows = 0;
  const ViewDef* suffix_parent = nullptr;
  uint64_t suffix_rows = 0;
  for (const ViewDef* c : computed) {
    const uint64_t rows = set_rows.at(c->AttrMask());
    if (parent.view == nullptr || rows < parent_rows) {
      parent.view = c;
      parent_rows = rows;
    }
    if (IsSuffixProjection(view, *c) &&
        (suffix_parent == nullptr || rows < suffix_rows)) {
      suffix_parent = c;
      suffix_rows = rows;
    }
  }
  for (const MaterializedView& m : materialized) {
    if (m.view.id == view.id || !m.view.Covers(view.AttrMask())) continue;
    if (parent.view == nullptr || m.rows < parent_rows) {
      parent = Parent{&m.view, &m};
      parent_rows = m.rows;
    }
  }
  if (suffix_parent != nullptr && parent.view != nullptr &&
      suffix_rows <= 4 * parent_rows) {
    parent = Parent{suffix_parent, nullptr};
  }
  return parent;
}

}  // namespace

/// Where ComputeOne reads a view's tuples: its parent's records, projected
/// onto the view, or the fact stream when `parent` is null.
struct CubeBuilder::Input {
  const ViewDef* parent = nullptr;
  /// A computed parent's spool; `pipelined` when its order is already the
  /// view's pack order.
  std::unique_ptr<RecordSpool::Reader> spool;
  bool pipelined = false;
  std::unique_ptr<RecordStream> materialized;
  std::unique_ptr<FactSource> facts;
};

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
  // or same-set supersets, e.g. a replica's original) come first.
  std::vector<const ViewDef*> order;
  for (const ViewDef& v : views) order.push_back(&v);
  std::stable_sort(order.begin(), order.end(),
                   [](const ViewDef* a, const ViewDef* b) {
                     return a->arity() > b->arity();
                   });

  // Task i computes order[i] and waits only for views before it, so the
  // earliest unfinished task never waits and width 1 is the serial loop.
  struct Shared {
    Mutex mu;
    CondVar changed;  // A view finished or a task failed.
    /// The row count of each attribute set a finished view has: a view's
    /// row count is the group count of its attribute set, so one view of
    /// a set tells it for the set's other views.
    std::map<uint32_t, uint64_t> set_rows GUARDED_BY(mu);
    Status failure GUARDED_BY(mu);
  } shared;
  const auto compute = [&](size_t i) -> Status {
    const ViewDef& view = *order[i];
    // The candidate parents: views before this one that cover it, in the
    // id order the serial loop met them.
    std::vector<const ViewDef*> covering;
    for (size_t j = 0; j < i; ++j) {
      if (order[j]->id != view.id && order[j]->Covers(view.AttrMask())) {
        covering.push_back(order[j]);
      }
    }
    std::stable_sort(covering.begin(), covering.end(),
                     [](const ViewDef* a, const ViewDef* b) {
                       return a->id < b->id;
                     });
    Input input;
    {
      MutexLock lock(shared.mu);
      for (const ViewDef* c : covering) {
        while (shared.failure.ok() &&
               shared.set_rows.count(c->AttrMask()) == 0) {
          shared.changed.Wait(lock);
        }
      }
      if (!shared.failure.ok()) {
        return Status::Cancelled("cube builder: another view failed");
      }
      const Parent parent =
          ChooseParent(view, covering, shared.set_rows, materialized);
      // A computed parent is read once its spool is sealed.
      while (shared.failure.ok() && parent.view != nullptr &&
             parent.materialized == nullptr &&
             out->entries_.count(parent.view->id) == 0) {
        shared.changed.Wait(lock);
      }
      if (!shared.failure.ok()) {
        return Status::Cancelled("cube builder: another view failed");
      }
      // Sources open one at a time, so providers need not be thread-safe.
      input.parent = parent.view;
      if (parent.materialized != nullptr) {
        CT_ASSIGN_OR_RETURN(input.materialized, parent.materialized->open());
        ++sorted_views_;
      } else if (parent.view != nullptr) {
        CT_ASSIGN_OR_RETURN(RecordSpool * spool, out->spool(parent.view->id));
        CT_ASSIGN_OR_RETURN(input.spool, spool->NewReader());
        input.pipelined = IsSuffixProjection(view, *parent.view);
        ++(input.pipelined ? pipelined_views_ : sorted_views_);
      } else {
        CT_ASSIGN_OR_RETURN(input.facts, facts->Open());
        ++fact_views_;
        ++sorted_views_;
      }
    }
    CT_ASSIGN_OR_RETURN(
        std::unique_ptr<RecordSpool> spool,
        ComputeOne(view, std::move(input),
                   options_.temp_dir + "/" + tag + "_view" +
                       std::to_string(view.id) + ".spl"));
    MutexLock lock(shared.mu);
    shared.set_rows.emplace(view.AttrMask(), spool->num_records());
    out->entries_[view.id] = ComputedViews::Entry{view, std::move(spool)};
    shared.changed.NotifyAll();
    return Status::OK();
  };
  const auto fail = [&shared](const Status& status) {
    MutexLock lock(shared.mu);
    if (shared.failure.ok()) shared.failure = status;
    shared.changed.NotifyAll();
  };
  // Each task's sorter spans, and its reads outside them, land under the
  // caller's span.
  obs::TraceHandoff handoff;
  const Status status = ParallelFor(
      order.size(), RefreshThreadsFromEnv(),
      [&](size_t i, CancelFlag*) -> Status {
        obs::TraceHandoff::Adopt adopt(handoff);
        Status result;
        try {
          result = compute(i);
        } catch (...) {
          fail(Status::Cancelled("cube builder: a view's task threw"));
          throw;
        }
        if (!result.ok()) fail(result);
        return result;
      });
  if (!status.ok()) {
    // The first failure, not a woken sibling's Cancelled.
    MutexLock lock(shared.mu);
    return shared.failure;
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

Result<std::unique_ptr<RecordSpool>> CubeBuilder::ComputeOne(
    const ViewDef& view, Input input, const std::string& path) {
  const uint8_t arity = view.arity();
  if (arity > kMaxDims) {
    return Status::InvalidArgument(
        "cube builder: view " + std::to_string(view.id) + " has arity " +
        std::to_string(arity) + " above " + std::to_string(kMaxDims));
  }
  const size_t record_bytes = ViewRecordBytes(arity);
  const ViewDef* parent = input.parent;

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
    if (input.materialized != nullptr) {
      ProjectingStream<A, RecordStream> projected(
          std::move(input.materialized), parent->arity(), positions);
      CT_RETURN_NOT_OK(AddAll(&projected, &sorter));
    } else if (input.spool != nullptr) {
      ProjectingStream<A, RecordSpool::Reader> projected(
          std::move(input.spool), parent->arity(), positions);
      if (input.pipelined) {
        CT_ASSIGN_OR_RETURN(spool, RecordSpool::Create(path, record_bytes,
                                                       options_.io_stats));
        return CombineEqualKeys<A>(&projected, view.id, spool.get());
      }
      CT_RETURN_NOT_OK(AddAll(&projected, &sorter));
    } else {
      // No parent: project straight off the fact stream.
      char record[ViewRecordBytes(A)];
      Coord coords[kMaxDims] = {0};
      const FactTuple* tuple = nullptr;
      while (true) {
        CT_RETURN_NOT_OK(input.facts->Next(&tuple));
        if (tuple == nullptr) break;
        for (size_t i = 0; i < A; ++i) {
          coords[i] = tuple->attr_values[view.attrs[i]];
          // 0 marks an unused dimension (rtree/geometry.h): stored below
          // the view's arity, it would move the record into another
          // view's region of the tree.
          if (coords[i] == 0) {
            return Status::InvalidArgument(
                "cube builder: view " + std::to_string(view.id) +
                ": a fact has key 0 in attribute " +
                schema_->attr_names[view.attrs[i]] +
                "; keys start at 1, 0 marks an unused dimension");
          }
        }
        EncodeViewRecord(record, coords, A, AggValue{tuple->measure, 1});
        CT_RETURN_NOT_OK(sorter.Add(record));
      }
    }
    CT_ASSIGN_OR_RETURN(std::unique_ptr<SortedStream> sorted,
                        sorter.Finish());
    CT_ASSIGN_OR_RETURN(spool, RecordSpool::Create(path, record_bytes,
                                                   options_.io_stats));
    return CombineEqualKeys<A>(sorted.get(), view.id, spool.get());
  }));
  CT_RETURN_NOT_OK(spool->Seal());
  return spool;
}

}  // namespace cubetree
