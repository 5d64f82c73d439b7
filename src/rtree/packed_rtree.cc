#include "rtree/packed_rtree.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/assert.h"

#include "common/coding.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "rtree/node.h"
#include "storage/checksum.h"
#include "storage/extent.h"

namespace cubetree {

Status CheckNodeHeader(const char* page, uint8_t dims, PageId id,
                       const std::string& path) {
  const uint16_t count = RNodeCount(page);
  if (RNodeIsLeaf(page)) {
    const uint8_t arity = RNodeArity(page);
    if (arity <= dims && count <= RLeafCapacity(arity)) return Status::OK();
    return Status::Corruption(
        "rtree: leaf page " + std::to_string(id) + " of " + path +
        " claims arity " + std::to_string(arity) + " and " +
        std::to_string(count) + " entries");
  }
  if (count <= RInternalCapacity(dims)) return Status::OK();
  return Status::Corruption("rtree: internal page " + std::to_string(id) +
                            " of " + path + " claims " +
                            std::to_string(count) + " entries");
}

namespace {

struct LevelEntry {
  Rect mbr;
  PageId page;
};

/// The pack loop: merges the inputs of one view run into full leaves of
/// the run's leaf arity A. Each step copies a span — the records of one
/// input below every other input's next key — into the current leaf with
/// one memcpy, then checks pack order and grows the leaf's MBR over the
/// copied entries in a loop compiled for A. Equal keys from several inputs
/// combine into one entry.
class LeafPacker {
 public:
  LeafPacker(const RTreeOptions& options, ExtentWriter* out,
             const CancelFlag* cancel)
      : options_(options), out_(out), cancel_(cancel) {}

  template <size_t A>
  Status PackRun(uint32_t view, const std::vector<ViewRunSource*>& inputs);

  std::vector<LevelEntry>& level() { return level_; }
  uint64_t num_points() const { return num_points_; }

 private:
  /// The unconsumed part of one input's current span.
  struct Cursor {
    ViewRunSource* input;
    const char* at;
    size_t left;
  };

  /// Moves `n` records of arity A into leaves, flushing each full leaf.
  template <size_t A>
  Status Emit(const char* records, size_t n);
  /// Copies `n` records into the current leaf, which has room for them.
  template <size_t A>
  Status Append(const char* records, size_t n);
  Status FlushLeaf(uint8_t arity);

  const RTreeOptions& options_;
  ExtentWriter* out_;
  const CancelFlag* cancel_;
  std::vector<LevelEntry> level_;
  uint64_t num_points_ = 0;
  std::vector<Cursor> cursors_;
  uint32_t view_ = 0;
  uint16_t leaf_target_ = 0;
  uint16_t in_leaf_ = 0;
  Rect leaf_mbr_;
  /// The last record packed, zero beyond its arity; the pack-order check
  /// compares every record with it.
  Coord prev_[kMaxDims] = {0};
  bool have_prev_ = false;
  bool run_start_ = false;
};

template <size_t A>
Status LeafPacker::PackRun(uint32_t view,
                           const std::vector<ViewRunSource*>& inputs) {
  constexpr size_t kBytes = ViewRecordBytes(A);
  view_ = view;
  run_start_ = true;
  leaf_target_ = RLeafCapacity(A);
  if (options_.max_leaf_entries > 0) {
    leaf_target_ = std::min(leaf_target_, options_.max_leaf_entries);
  }
  // Cursors stay in input order, which is the order equal keys combine in.
  cursors_.clear();
  for (ViewRunSource* input : inputs) {
    Cursor cursor{input, nullptr, 0};
    CT_RETURN_NOT_OK(input->NextSpan(A, &cursor.at, &cursor.left));
    if (cursor.left > 0) cursors_.push_back(cursor);
  }
  // Steps cursor j past `n` records, refilling it from its input and
  // dropping it once the input's run is over.
  const auto advance = [&](size_t j, size_t n) -> Status {
    Cursor& cursor = cursors_[j];
    cursor.at += n * kBytes;
    cursor.left -= n;
    if (cursor.left == 0) {
      CT_RETURN_NOT_OK(cursor.input->NextSpan(A, &cursor.at, &cursor.left));
      if (cursor.left == 0) cursors_.erase(cursors_.begin() + j);
    }
    return Status::OK();
  };
  char combined[ViewRecordBytes(kMaxDims)];
  while (!cursors_.empty()) {
    if (cursors_.size() == 1) {
      CT_RETURN_NOT_OK(Emit<A>(cursors_[0].at, cursors_[0].left));
      CT_RETURN_NOT_OK(advance(0, cursors_[0].left));
      continue;
    }
    // m: the first input holding the smallest next key; bound: the
    // smallest larger next key of the others.
    size_t m = 0;
    for (size_t j = 1; j < cursors_.size(); ++j) {
      if (ViewRecordCompare<A>(cursors_[j].at, cursors_[m].at) < 0) m = j;
    }
    const char* bound = nullptr;
    bool tie = false;
    for (size_t j = 0; j < cursors_.size(); ++j) {
      if (j == m) continue;
      if (ViewRecordCompare<A>(cursors_[j].at, cursors_[m].at) == 0) {
        tie = true;
      } else if (bound == nullptr ||
                 ViewRecordCompare<A>(cursors_[j].at, bound) < 0) {
        bound = cursors_[j].at;
      }
    }
    if (!tie) {
      // Input m's records below the bound pass on as one span.
      const Cursor& c = cursors_[m];
      size_t n = 1;
      while (n < c.left &&
             ViewRecordCompare<A>(c.at + n * kBytes, bound) < 0) {
        ++n;
      }
      CT_RETURN_NOT_OK(Emit<A>(c.at, n));
      CT_RETURN_NOT_OK(advance(m, n));
      continue;
    }
    // Equal keys: input m's record, with every later equal input's
    // aggregate added in input order.
    std::memcpy(combined, cursors_[m].at, kBytes);
    AggValue agg = ViewRecordAgg(combined, A);
    for (size_t j = m + 1; j < cursors_.size(); ++j) {
      if (ViewRecordCompare<A>(cursors_[j].at, combined) != 0) continue;
      CT_RETURN_NOT_OK(
          MergeViewAggregate(view, ViewRecordAgg(cursors_[j].at, A), &agg));
    }
    SetViewRecordAgg(combined, A, agg);
    CT_RETURN_NOT_OK(Emit<A>(combined, 1));
    // Backwards, so dropping an exhausted cursor keeps the rest in place.
    for (size_t j = cursors_.size(); j-- > m;) {
      if (j == m || ViewRecordCompare<A>(cursors_[j].at, combined) == 0) {
        CT_RETURN_NOT_OK(advance(j, 1));
      }
    }
  }
  return in_leaf_ > 0 ? FlushLeaf(A) : Status::OK();
}

template <size_t A>
Status LeafPacker::Emit(const char* records, size_t n) {
  while (n > 0) {
    const size_t take = std::min<size_t>(n, leaf_target_ - in_leaf_);
    CT_RETURN_NOT_OK(Append<A>(records, take));
    records += take * ViewRecordBytes(A);
    n -= take;
    if (in_leaf_ == leaf_target_) CT_RETURN_NOT_OK(FlushLeaf(A));
  }
  return Status::OK();
}

template <size_t A>
Status LeafPacker::Append(const char* records, size_t n) {
  constexpr size_t kBytes = ViewRecordBytes(A);
  char* dest = out_->page() + kRNodeHeaderSize + in_leaf_ * kBytes;
  std::memcpy(dest, records, n * kBytes);
  size_t i = 0;
  if (in_leaf_ == 0) {
    leaf_mbr_ = Rect();
    for (size_t d = 0; d < A; ++d) {
      leaf_mbr_.lo[d] = leaf_mbr_.hi[d] = ViewRecordCoord(dest, d);
    }
  }
  if (run_start_) {
    // The first record of a run follows the previous view's last record:
    // compare over all dimensions, both zero beyond their arity.
    Coord first[kMaxDims] = {0};
    for (size_t d = 0; d < A; ++d) first[d] = ViewRecordCoord(dest, d);
    if (options_.enforce_pack_order && have_prev_ &&
        PackOrderCompare(prev_, first, options_.dims) >= 0) {
      return Status::InvalidArgument(
          "rtree: bulk-load input not strictly ascending in pack order");
    }
    std::memcpy(prev_, first, sizeof(prev_));
    have_prev_ = true;
    run_start_ = false;
    i = 1;
  }
  for (; i < n; ++i) {
    const char* entry = dest + i * kBytes;
    // Inside a run both records are zero beyond A, so comparing A
    // coordinates is the full pack-order comparison.
    if (options_.enforce_pack_order) {
      int cmp = 0;
      for (size_t d = A; d > 0 && cmp == 0; --d) {
        const Coord c = ViewRecordCoord(entry, d - 1);
        if (prev_[d - 1] != c) cmp = prev_[d - 1] < c ? -1 : 1;
      }
      if (cmp >= 0) {
        return Status::InvalidArgument(
            "rtree: bulk-load input not strictly ascending in pack order");
      }
    }
    for (size_t d = 0; d < A; ++d) {
      const Coord c = ViewRecordCoord(entry, d);
      prev_[d] = c;
      leaf_mbr_.lo[d] = std::min(leaf_mbr_.lo[d], c);
      leaf_mbr_.hi[d] = std::max(leaf_mbr_.hi[d], c);
    }
  }
  in_leaf_ = static_cast<uint16_t>(in_leaf_ + n);
  return Status::OK();
}

Status LeafPacker::FlushLeaf(uint8_t arity) {
  RNodeSetHeader(out_->page(), /*is_leaf=*/true, arity, in_leaf_, view_);
  level_.push_back(LevelEntry{leaf_mbr_, out_->page_id()});
  const size_t used = kRNodeHeaderSize + in_leaf_ * ViewRecordBytes(arity);
  num_points_ += in_leaf_;
  in_leaf_ = 0;
  CT_RETURN_NOT_OK(out_->Commit(used));
  // A sibling worker's failure dooms this tree: stop within a page.
  if (cancel_ != nullptr && cancel_->cancelled()) {
    return Status::Cancelled(
        "rtree: pack cancelled by a sibling worker's failure");
  }
  return Status::OK();
}

}  // namespace

PackedRTree::PackedRTree(std::unique_ptr<PageManager> file,
                         RTreeOptions options, BufferPool* pool)
    : file_(std::move(file)), options_(options), pool_(pool) {}

PackedRTree::~PackedRTree() {
  if (pool_ != nullptr) (void)pool_->DropFile(file_.get(), /*write_back=*/false);
}

Result<std::unique_ptr<PackedRTree>> PackedRTree::Build(
    const std::string& path, const RTreeOptions& options, BufferPool* pool,
    PointSource* source, const ViewArityFn& view_arity,
    std::shared_ptr<IoStats> io_stats) {
  PointRunSource input(source, options.dims);
  return Build(path, options, pool, {&input}, view_arity,
               std::move(io_stats));
}

Result<std::unique_ptr<PackedRTree>> PackedRTree::Build(
    const std::string& path, const RTreeOptions& options, BufferPool* pool,
    const std::vector<ViewRunSource*>& inputs, const ViewArityFn& view_arity,
    std::shared_ptr<IoStats> io_stats, const CancelFlag* cancel) {
  if (options.dims == 0 || options.dims > kMaxDims) {
    return Status::InvalidArgument("rtree: dims out of range");
  }
  CT_FAULT("rtree.build.start");
  CT_RETURN_NOT_OK(RemoveFileIfExists(path));
  CT_RETURN_NOT_OK(RemoveChecksumSidecar(path));
  CT_ASSIGN_OR_RETURN(auto file,
                      PageManager::Create(path, std::move(io_stats)));
  auto tree = std::unique_ptr<PackedRTree>(
      new PackedRTree(std::move(file), options, pool));
  PageManager* pm = tree->file_.get();
  // A packed tree is immutable once built: compute per-page checksums now,
  // once per epoch, and verify on every subsequent read.
  pm->StartChecksumTracking();

  // Reserve the meta page; it is filled in (one random write) at the end.
  CT_RETURN_NOT_OK(pm->AllocatePage().status());

  // --- Leaf level -------------------------------------------------------
  // Pack order keeps each view's points in one contiguous run, and every
  // leaf holds a single view. Views come in ascending arity, which is pack
  // order across views; each run is packed by a loop compiled for its leaf
  // arity.
  ExtentWriter out(pm);
  LeafPacker packer(options, &out, cancel);
  std::vector<ViewRunSource*> run_inputs;
  while (true) {
    std::optional<uint32_t> next;
    uint8_t next_arity = 0;
    run_inputs.clear();
    for (ViewRunSource* input : inputs) {
      std::optional<uint32_t> view;
      CT_RETURN_NOT_OK(input->CurrentView(&view));
      if (!view.has_value()) continue;
      if (next == view) {
        run_inputs.push_back(input);
        continue;
      }
      const std::optional<uint8_t> arity = view_arity(*view);
      if (!arity.has_value()) {
        return Status::InvalidArgument("rtree: view " +
                                       std::to_string(*view) +
                                       " is not a view of this tree");
      }
      if (!next.has_value() || *arity < next_arity) {
        next = view;
        next_arity = *arity;
        run_inputs.assign(1, input);
      }
    }
    if (!next.has_value()) break;
    uint8_t leaf_arity = options.dims;
    if (options.compress_leaves) {
      if (next_arity > options.dims) {
        return Status::InvalidArgument(
            "rtree: view " + std::to_string(*next) + " has arity " +
            std::to_string(next_arity) + " above the tree's " +
            std::to_string(options.dims) + " dimensions");
      }
      leaf_arity = next_arity;
    }
    CT_RETURN_NOT_OK(DispatchArity(leaf_arity, [&](auto arity_constant) {
      return packer.PackRun<decltype(arity_constant)::value>(*next,
                                                            run_inputs);
    }));
  }
  std::vector<LevelEntry> level = std::move(packer.level());
  const uint64_t num_points = packer.num_points();
  tree->num_points_ = num_points;
  tree->num_leaf_pages_ = static_cast<PageId>(level.size());
  {
    // Every bulk load and every refresh packs through here.
    auto& reg = obs::MetricsRegistry::Instance();
    static obs::Counter* const points_packed =
        reg.GetCounter("rtree.points_packed");
    static obs::Counter* const leaves_written =
        reg.GetCounter("rtree.leaves_written");
    points_packed->Increment(num_points);
    leaves_written->Increment(level.size());
  }

  // --- Internal levels, bottom-up ---------------------------------------
  uint32_t height = level.empty() ? 0 : 1;
  uint16_t fanout = std::max<uint16_t>(2, RInternalCapacity(options.dims));
  if (options.max_internal_entries > 1) {
    fanout = std::min(fanout, options.max_internal_entries);
  }
  while (level.size() > 1) {
    std::vector<LevelEntry> next_level;
    size_t i = 0;
    while (i < level.size()) {
      const size_t children = std::min<size_t>(fanout, level.size() - i);
      char* node = out.page();
      RNodeSetHeader(node, /*is_leaf=*/false, options.dims,
                     static_cast<uint16_t>(children), 0);
      Rect mbr = level[i].mbr;
      for (size_t c = 0; c < children; ++c) {
        RInternalWriteEntry(
            node + kRNodeHeaderSize + c * RInternalEntryBytes(options.dims),
            level[i + c].mbr, options.dims, level[i + c].page);
        mbr.ExpandToRect(level[i + c].mbr, options.dims);
      }
      next_level.push_back(LevelEntry{mbr, out.page_id()});
      CT_RETURN_NOT_OK(out.Commit(kRNodeHeaderSize +
                                  children * RInternalEntryBytes(options.dims)));
      i += children;
    }
    level.swap(next_level);
    ++height;
  }
  CT_RETURN_NOT_OK(out.Finish());
  tree->root_ = level.empty() ? kInvalidPageId : level[0].page;
  tree->height_ = height;

  Page meta;
  RTreeEncodeMeta(meta.data, RTreeMeta{.dims = options.dims,
                                       .compress_leaves =
                                           options.compress_leaves,
                                       .root = tree->root_,
                                       .height = tree->height_,
                                       .num_points = num_points,
                                       .num_leaf_pages =
                                           tree->num_leaf_pages_});
  CT_RETURN_NOT_OK(pm->WritePage(0, meta));
  // Make the fresh tree durable before the forest manifest can name it:
  // the manifest commit protocol assumes every file it references has
  // already reached stable storage.
  CT_FAULT("rtree.build.sync");
  CT_RETURN_NOT_OK(pm->Sync());
  // Sidecar after data sync: the checksums describe what is durably on
  // disk, and both precede the manifest commit that names this file.
  CT_RETURN_NOT_OK(pm->FinalizeChecksums());
  return tree;
}

Result<std::unique_ptr<PackedRTree>> PackedRTree::Open(
    const std::string& path, BufferPool* pool,
    std::shared_ptr<IoStats> io_stats) {
  CT_ASSIGN_OR_RETURN(auto file, PageManager::Open(path, std::move(io_stats)));
  // Every tree is built with its sidecar, so a missing one means the file
  // set was torn or tampered with: the tree is quarantined, not trusted.
  const Status loaded = file->LoadChecksums();
  if (loaded.IsNotFound()) {
    return Status::Corruption("rtree: missing checksum sidecar " +
                              ChecksumSidecarPath(path));
  }
  CT_RETURN_NOT_OK(loaded);
  Page meta_page;
  CT_RETURN_NOT_OK(file->ReadPage(0, &meta_page));
  RTreeMeta meta;
  if (!RTreeDecodeMeta(meta_page.data, &meta)) {
    return Status::Corruption("rtree: bad magic in " + path);
  }
  RTreeOptions options;
  options.dims = meta.dims;
  options.compress_leaves = meta.compress_leaves;
  auto tree = std::unique_ptr<PackedRTree>(
      new PackedRTree(std::move(file), options, pool));
  tree->root_ = meta.root;
  tree->height_ = meta.height;
  tree->num_points_ = meta.num_points;
  tree->num_leaf_pages_ = meta.num_leaf_pages;
  return tree;
}

Status PackedRTree::CollectLeaves(PageId node_id, const Rect& query,
                                  std::vector<PageId>* leaves,
                                  uint64_t* internal_pages) {
  CT_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(file_.get(), node_id));
  const char* page = handle.data();
  CT_RETURN_NOT_OK(CheckNodeHeader(page, options_.dims, node_id, path()));
  if (RNodeIsLeaf(page)) {
    // Descent should never fetch a leaf (the id range test below keeps it
    // out of them); if the invariant is ever violated, still answer
    // correctly by handing the page to the scan phase.
    leaves->push_back(node_id);
    return Status::OK();
  }
  ++*internal_pages;
  const uint16_t count = RNodeCount(page);
  const size_t entry_bytes = RInternalEntryBytes(options_.dims);
  // Collect matching children first so the handle is released before
  // recursion (keeps pinned frames bounded by tree height). Children in
  // the leaf id range go straight to the candidate list; packing builds
  // each internal node over a single level, so a node's children are
  // either all leaves or all internal and DFS entry order is preserved.
  std::vector<PageId> matches;
  Rect mbr;
  PageId child;
  for (uint16_t i = 0; i < count; ++i) {
    RInternalReadEntry(page + kRNodeHeaderSize + i * entry_bytes,
                       options_.dims, &mbr, &child);
    if (!query.Intersects(mbr, options_.dims)) continue;
    if (child != 0 && child <= num_leaf_pages_) {
      leaves->push_back(child);
    } else {
      matches.push_back(child);
    }
  }
  handle.Release();
  for (PageId m : matches) {
    CT_RETURN_NOT_OK(CollectLeaves(m, query, leaves, internal_pages));
  }
  return Status::OK();
}

Status PackedRTree::ScanLeaf(PageId leaf_id, const Rect& query,
                             std::optional<uint32_t> view,
                             const LeafEntryFn& emit, uint64_t* examined,
                             uint64_t* emitted) {
  CT_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(file_.get(), leaf_id));
  const char* page = handle.data();
  if (!RNodeIsLeaf(page)) {
    return Status::Corruption("rtree: expected leaf page in " + path());
  }
  CT_RETURN_NOT_OK(CheckNodeHeader(page, options_.dims, leaf_id, path()));
  const uint16_t count = RNodeCount(page);
  const uint8_t arity = RNodeArity(page);
  const uint32_t view_id = RNodeViewId(page);
  *examined += count;
  if (view.has_value() && *view != view_id) return Status::OK();
  // Every entry is zero past the leaf's arity.
  for (size_t d = arity; d < options_.dims; ++d) {
    if (query.lo[d] != 0) return Status::OK();
  }
  const size_t entry_bytes = ViewRecordBytes(arity);
  const char* entry = page + kRNodeHeaderSize;
  for (uint16_t i = 0; i < count; ++i, entry += entry_bytes) {
    bool inside = true;
    for (size_t d = 0; d < arity && inside; ++d) {
      const Coord c = ViewRecordCoord(entry, d);
      inside = query.lo[d] <= c && c <= query.hi[d];
    }
    if (inside) {
      ++*emitted;
      emit(view_id, arity, entry);
    }
  }
  return Status::OK();
}

Status PackedRTree::Search(const Rect& query, const LeafEntryFn& emit,
                           std::optional<uint32_t> view) {
  if (root_ == kInvalidPageId) return Status::OK();
  // This call's work, counted in locals so its spans report their own
  // counts, then added to the ambient query profile once, on every path.
  uint64_t internal_pages = 0;
  uint64_t leaf_pages = 0;
  uint64_t examined = 0;
  uint64_t emitted = 0;
  std::vector<PageId> leaves;
  Status status;
  {
    obs::Span descent("rtree.descent");
    if (root_ != 0 && root_ <= num_leaf_pages_) {
      // Single-leaf tree: no internal levels to descend.
      leaves.push_back(root_);
    } else {
      status = CollectLeaves(root_, query, &leaves, &internal_pages);
    }
    if (status.ok() && descent.active()) {
      descent.Annotate("internal_pages", internal_pages);
      descent.Annotate("candidate_leaves",
                       static_cast<uint64_t>(leaves.size()));
    }
  }
  if (status.ok()) {
    obs::Span scan("rtree.scan");
    for (PageId leaf : leaves) {
      status = ScanLeaf(leaf, query, view, emit, &examined, &emitted);
      if (!status.ok()) break;
      ++leaf_pages;
    }
    if (status.ok() && scan.active()) {
      scan.Annotate("leaf_pages", leaf_pages);
      scan.Annotate("points_examined", examined);
      scan.Annotate("points_emitted", emitted);
    }
  }
  if (obs::QueryProfile* profile = obs::QueryProfile::Current()) {
    profile->internal_pages += internal_pages;
    profile->leaf_pages += leaf_pages;
    profile->points_examined += examined;
  }
  return status;
}

Status PackedRTree::Scanner::NextLeaf(const char** leaf) {
  // Pages 1..num_leaf_pages are leaves by the packed file layout.
  const char* page = nullptr;
  CT_RETURN_NOT_OK(pages_.Next(&page));
  if (page == nullptr) {
    *leaf = nullptr;
    return Status::OK();
  }
  if (!RNodeIsLeaf(page)) {
    return Status::Corruption("rtree: page " + std::to_string(leaf_page()) +
                              " in the leaf region of " + tree_->path() +
                              " is not a leaf");
  }
  CT_RETURN_NOT_OK(
      CheckNodeHeader(page, tree_->dims(), leaf_page(), tree_->path()));
  *leaf = page;
  return Status::OK();
}

Status PackedRTree::LeafRunSource::LeafError(const std::string& what) const {
  return Status::Corruption("merge-pack: leaf page " +
                            std::to_string(scanner_.leaf_page()) + " of " +
                            tree_->path() + " " + what);
}

Status PackedRTree::LeafRunSource::Load() {
  if (!consumed_) return Status::OK();
  CT_RETURN_NOT_OK(scanner_.NextLeaf(&leaf_));
  consumed_ = false;
  if (leaf_ == nullptr) return Status::OK();
  if (RNodeCount(leaf_) == 0) return LeafError("is empty");
  const uint32_t view = RNodeViewId(leaf_);
  if (have_view_ && view == last_view_) return Status::OK();
  // A new run of this tree: its view must be one the pack knows, and runs
  // ascend in view arity, each view's run appearing once.
  const std::optional<uint8_t> arity = view_arity_(view);
  if (!arity.has_value()) {
    return LeafError("holds view " + std::to_string(view) +
                     ", which the tree does not store");
  }
  if (have_view_) closed_views_.push_back(last_view_);
  if ((have_view_ && *arity < last_arity_) ||
      std::find(closed_views_.begin(), closed_views_.end(), view) !=
          closed_views_.end()) {
    return LeafError("holds view " + std::to_string(view) +
                     " out of pack order");
  }
  have_view_ = true;
  last_view_ = view;
  last_arity_ = *arity;
  return Status::OK();
}

Status PackedRTree::LeafRunSource::CurrentView(std::optional<uint32_t>* view) {
  CT_RETURN_NOT_OK(Load());
  *view = leaf_ == nullptr ? std::nullopt
                           : std::optional<uint32_t>(RNodeViewId(leaf_));
  return Status::OK();
}

Status PackedRTree::LeafRunSource::NextSpan(uint8_t leaf_arity,
                                            const char** records,
                                            size_t* count) {
  CT_RETURN_NOT_OK(Load());
  if (leaf_ == nullptr || (in_run_ && RNodeViewId(leaf_) != run_view_)) {
    in_run_ = false;
    *count = 0;
    return Status::OK();
  }
  if (!in_run_) {
    in_run_ = true;
    run_view_ = RNodeViewId(leaf_);
  }
  if (RNodeArity(leaf_) != leaf_arity) {
    return LeafError("holds view " + std::to_string(run_view_) +
                     " at arity " + std::to_string(RNodeArity(leaf_)) +
                     ", not the " + std::to_string(leaf_arity) +
                     " the pack stores it at");
  }
  *records = leaf_ + kRNodeHeaderSize;
  *count = RNodeCount(leaf_);
  consumed_ = true;
  return Status::OK();
}

Status PointRunSource::CurrentView(std::optional<uint32_t>* view) {
  if (!started_) {
    CT_RETURN_NOT_OK(source_->Next(&point_));
    started_ = true;
  }
  *view = point_ == nullptr ? std::nullopt
                            : std::optional<uint32_t>(point_->view_id);
  return Status::OK();
}

Status PointRunSource::NextSpan(uint8_t leaf_arity, const char** records,
                                size_t* count) {
  std::optional<uint32_t> view;
  CT_RETURN_NOT_OK(CurrentView(&view));
  if (!view.has_value() || (in_run_ && *view != run_view_)) {
    in_run_ = false;
    *count = 0;
    return Status::OK();
  }
  in_run_ = true;
  run_view_ = *view;
  buffer_.resize(kPageSize);
  // Encodes up to a page of the run's points, in a loop compiled for the
  // leaf arity.
  return DispatchArity(leaf_arity, [&](auto arity_constant) -> Status {
    constexpr uint8_t A = arity_constant;
    constexpr size_t kBytes = ViewRecordBytes(A);
    size_t n = 0;
    while (n < kPageSize / kBytes && point_ != nullptr &&
           point_->view_id == run_view_) {
      // A leaf of arity A stores A coordinates; a non-zero coordinate
      // beyond them would be dropped, so the point is refused.
      if constexpr (A < kMaxDims) {
        for (size_t d = A; d < dims_; ++d) {
          if (point_->coords[d] != 0) {
            return Status::InvalidArgument(
                "rtree: point of view " + std::to_string(run_view_) +
                " has non-zero coordinate " + std::to_string(d) +
                " beyond the view's arity " + std::to_string(A));
          }
        }
      }
      EncodeViewRecord(buffer_.data() + n * kBytes, point_->coords, A,
                      point_->agg);
      ++n;
      CT_RETURN_NOT_OK(source_->Next(&point_));
    }
    *records = buffer_.data();
    *count = n;
    return Status::OK();
  });
}

}  // namespace cubetree
