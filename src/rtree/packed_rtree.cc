#include "rtree/packed_rtree.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/assert.h"

#include "common/coding.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"
#include "obs/trace.h"
#include "rtree/node.h"
#include "storage/checksum.h"

namespace cubetree {

namespace {

constexpr uint32_t kRTreeMagic = 0x43545254;  // "CTRT"

// Meta page (page 0) layout:
//   [0..3]   magic
//   [4]      dims
//   [5]      compress flag
//   [6..7]   pad
//   [8..11]  root page
//   [12..15] height
//   [16..23] num_points
//   [24..27] num_leaf_pages

void WriteMetaPage(Page* page, const RTreeOptions& options, PageId root,
                   uint32_t height, uint64_t num_points,
                   PageId num_leaf_pages) {
  page->Zero();
  char* p = page->data;
  EncodeFixed32(p, kRTreeMagic);
  p[4] = static_cast<char>(options.dims);
  p[5] = options.compress_leaves ? 1 : 0;
  EncodeFixed32(p + 8, root);
  EncodeFixed32(p + 12, height);
  EncodeFixed64(p + 16, num_points);
  EncodeFixed32(p + 24, num_leaf_pages);
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
    PointSource* source, std::function<uint8_t(uint32_t)> view_arity,
    std::shared_ptr<IoStats> io_stats) {
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

  struct LevelEntry {
    Rect mbr;
    PageId page;
  };
  std::vector<LevelEntry> level;

  // --- Leaf level -------------------------------------------------------
  // Pack order keeps each view's points in one contiguous run, and every
  // leaf holds a single view. Each run is packed by a loop compiled for its
  // leaf arity A: the arity callback is asked once per run, and the
  // per-point copies and comparisons have fixed lengths.
  Page leaf;
  uint64_t num_points = 0;
  Coord prev_coords[kMaxDims] = {0};
  bool have_prev = false;
  const PointRecord* rec = nullptr;
  CT_RETURN_NOT_OK(source->Next(&rec));

  // Packs the run of rec's view into leaves of arity A, reading on until
  // the view changes or the input ends; rec is left at the next run.
  auto pack_run = [&](auto arity_constant) -> Status {
    constexpr uint8_t A = arity_constant;
    const uint32_t view = rec->view_id;
    uint16_t leaf_target = std::max<uint16_t>(
        1, static_cast<uint16_t>(RLeafCapacity(A) *
                                 std::clamp(options.leaf_fill, 0.1, 1.0)));
    if (options.max_leaf_entries > 0) {
      leaf_target = std::min(leaf_target, options.max_leaf_entries);
    }
    uint16_t in_leaf = 0;
    Rect leaf_mbr;
    auto flush_leaf = [&]() -> Status {
      RNodeSetCount(leaf.data, in_leaf);
      CT_ASSIGN_OR_RETURN(PageId id, pm->AppendPage(leaf));
      level.push_back(LevelEntry{leaf_mbr, id});
      in_leaf = 0;
      return Status::OK();
    };
    bool run_start = true;
    do {
      // A leaf of arity A stores A coordinates; a non-zero coordinate
      // beyond them would be dropped, so the point is refused instead.
      if constexpr (A < kMaxDims) {
        for (size_t d = A; d < options.dims; ++d) {
          if (rec->coords[d] != 0) {
            return Status::InvalidArgument(
                "rtree: point of view " + std::to_string(view) +
                " has non-zero coordinate " + std::to_string(d) +
                " beyond the view's arity " + std::to_string(A));
          }
        }
      }
      // Inside a run both points are zero beyond A, so comparing A
      // coordinates is the full pack-order comparison.
      if (options.enforce_pack_order && have_prev &&
          (run_start
               ? PackOrderCompare(prev_coords, rec->coords, options.dims)
               : PackOrderCompare(prev_coords, rec->coords, A)) >= 0) {
        return Status::InvalidArgument(
            "rtree: bulk-load input not strictly ascending in pack order");
      }
      std::memcpy(prev_coords, rec->coords, sizeof(prev_coords));
      have_prev = true;
      run_start = false;

      if (in_leaf == leaf_target) CT_RETURN_NOT_OK(flush_leaf());
      if (in_leaf == 0) {
        leaf.Zero();
        RNodeSetHeader(leaf.data, /*is_leaf=*/true, A, 0, view);
        leaf_mbr = Rect::FromPoint(rec->coords, A);
      }
      CT_DCHECK(in_leaf < RLeafCapacity(A)) << "leaf overflow during bulk load";
      RLeafWriteEntry(leaf.data + kRNodeHeaderSize +
                          static_cast<size_t>(in_leaf) * RLeafEntryBytes(A),
                      rec->coords, A, rec->agg);
      leaf_mbr.ExpandToPoint(rec->coords, A);
      ++in_leaf;
      ++num_points;
      CT_RETURN_NOT_OK(source->Next(&rec));
    } while (rec != nullptr && rec->view_id == view);
    return flush_leaf();
  };

  while (rec != nullptr) {
    uint8_t arity = options.dims;
    if (options.compress_leaves) {
      arity = view_arity(rec->view_id);
      if (arity > options.dims) {
        return Status::InvalidArgument(
            "rtree: view " + std::to_string(rec->view_id) + " has arity " +
            std::to_string(arity) + " above the tree's " +
            std::to_string(options.dims) + " dimensions");
      }
    }
    CT_RETURN_NOT_OK(DispatchArity(arity, pack_run));
  }
  tree->num_points_ = num_points;
  tree->num_leaf_pages_ = static_cast<PageId>(level.size());
  {
    // MergePack funnels through Build too, so these cover both the
    // initial bulk load and every incremental refresh.
    auto& reg = obs::MetricsRegistry::Instance();
    static obs::Counter* const points_packed =
        reg.GetCounter("rtree.points_packed");
    static obs::Counter* const leaves_written =
        reg.GetCounter("rtree.leaves_written");
    points_packed->Increment(num_points);
    leaves_written->Increment(level.size());
  }

  if (level.empty()) {
    tree->root_ = kInvalidPageId;
    tree->height_ = 0;
    Page meta;
    WriteMetaPage(&meta, options, kInvalidPageId, 0, 0, 0);
    CT_RETURN_NOT_OK(pm->WritePage(0, meta));
    CT_FAULT("rtree.build.sync");
    CT_RETURN_NOT_OK(pm->Sync());
    CT_RETURN_NOT_OK(pm->FinalizeChecksums());
    return tree;
  }

  // --- Internal levels, bottom-up ---------------------------------------
  uint32_t height = 1;
  uint16_t fanout = std::max<uint16_t>(2, RInternalCapacity(options.dims));
  if (options.max_internal_entries > 1) {
    fanout = std::min(fanout, options.max_internal_entries);
  }
  Page node;
  while (level.size() > 1) {
    std::vector<LevelEntry> next_level;
    size_t i = 0;
    while (i < level.size()) {
      const size_t children = std::min<size_t>(fanout, level.size() - i);
      node.Zero();
      RNodeSetHeader(node.data, /*is_leaf=*/false, options.dims,
                     static_cast<uint16_t>(children), 0);
      Rect mbr = level[i].mbr;
      for (size_t c = 0; c < children; ++c) {
        char* dest = node.data + kRNodeHeaderSize +
                     c * RInternalEntryBytes(options.dims);
        RInternalWriteEntry(dest, level[i + c].mbr, options.dims,
                            level[i + c].page);
        mbr.ExpandToRect(level[i + c].mbr, options.dims);
      }
      CT_ASSIGN_OR_RETURN(PageId id, pm->AppendPage(node));
      next_level.push_back(LevelEntry{mbr, id});
      i += children;
    }
    level.swap(next_level);
    ++height;
  }
  tree->root_ = level[0].page;
  tree->height_ = height;

  Page meta;
  WriteMetaPage(&meta, options, tree->root_, tree->height_, num_points,
                tree->num_leaf_pages_);
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
  if (Status cs = file->LoadChecksums(); !cs.ok()) {
    // NotFound = pre-checksum file (manifest v1): reads stay unverified
    // for back-compat. Anything else means the sidecar exists but is
    // unusable — surface it so the tree is quarantined, not trusted.
    if (!cs.IsNotFound()) return cs;
  }
  Page meta;
  CT_RETURN_NOT_OK(file->ReadPage(0, &meta));
  const char* p = meta.data;
  if (DecodeFixed32(p) != kRTreeMagic) {
    return Status::Corruption("rtree: bad magic in " + path);
  }
  RTreeOptions options;
  options.dims = static_cast<uint8_t>(p[4]);
  options.compress_leaves = p[5] != 0;
  auto tree = std::unique_ptr<PackedRTree>(
      new PackedRTree(std::move(file), options, pool));
  tree->root_ = DecodeFixed32(p + 8);
  tree->height_ = DecodeFixed32(p + 12);
  tree->num_points_ = DecodeFixed64(p + 16);
  tree->num_leaf_pages_ = DecodeFixed32(p + 24);
  return tree;
}

Status PackedRTree::CollectLeaves(PageId node_id, const Rect& query,
                                  std::vector<PageId>* leaves,
                                  uint64_t* internal_pages) {
  CT_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(file_.get(), node_id));
  const char* page = handle.data();
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

Status PackedRTree::ScanLeaf(
    PageId leaf_id, const Rect& query,
    const std::function<void(const PointRecord&)>& emit, uint64_t* examined,
    uint64_t* emitted) {
  CT_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(file_.get(), leaf_id));
  const char* page = handle.data();
  if (!RNodeIsLeaf(page)) {
    return Status::Corruption("rtree: expected leaf page in " + path());
  }
  const uint16_t count = RNodeCount(page);
  const uint8_t arity = RNodeArity(page);
  const uint32_t view_id = RNodeViewId(page);
  CT_DCHECK(arity <= options_.dims) << "corrupt leaf arity in " << path();
  CT_DCHECK(count <= RLeafCapacity(arity))
      << "corrupt leaf count in " << path();
  const size_t entry_bytes = RLeafEntryBytes(arity);
  PointRecord rec;
  for (uint16_t i = 0; i < count; ++i) {
    RLeafReadEntry(page + kRNodeHeaderSize + i * entry_bytes, arity, view_id,
                   &rec);
    ++*examined;
    if (query.ContainsPoint(rec.coords, options_.dims)) {
      ++*emitted;
      emit(rec);
    }
  }
  return Status::OK();
}

Status PackedRTree::Search(
    const Rect& query, const std::function<void(const PointRecord&)>& emit) {
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
      status = ScanLeaf(leaf, query, emit, &examined, &emitted);
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

namespace {

/// Recursion helper for Validate: computes the actual bounding box of the
/// subtree at `node` while checking invariants.
struct ValidateContext {
  PageManager* file;
  BufferPool* pool;
  uint8_t dims;
  uint64_t points = 0;
};

Status ValidateNode(ValidateContext* ctx, PageId node_id, Rect* bounds) {
  CT_ASSIGN_OR_RETURN(PageHandle handle,
                      ctx->pool->Fetch(ctx->file, node_id));
  const char* page = handle.data();
  const uint16_t count = RNodeCount(page);
  if (count == 0) {
    return Status::Corruption("rtree validate: empty node " +
                              std::to_string(node_id));
  }
  if (RNodeIsLeaf(page)) {
    const uint8_t arity = RNodeArity(page);
    const uint32_t view_id = RNodeViewId(page);
    const size_t entry_bytes = RLeafEntryBytes(arity);
    PointRecord rec;
    for (uint16_t i = 0; i < count; ++i) {
      RLeafReadEntry(page + kRNodeHeaderSize + i * entry_bytes, arity,
                     view_id, &rec);
      for (size_t d = arity; d < ctx->dims; ++d) {
        if (rec.coords[d] != 0) {
          return Status::Corruption(
              "rtree validate: non-zero suppressed coordinate");
        }
      }
      if (i == 0) {
        *bounds = Rect::FromPoint(rec.coords, ctx->dims);
      } else {
        bounds->ExpandToPoint(rec.coords, ctx->dims);
      }
      ++ctx->points;
    }
    return Status::OK();
  }
  const size_t entry_bytes = RInternalEntryBytes(ctx->dims);
  std::vector<std::pair<Rect, PageId>> children;
  Rect mbr;
  PageId child;
  for (uint16_t i = 0; i < count; ++i) {
    RInternalReadEntry(page + kRNodeHeaderSize + i * entry_bytes, ctx->dims,
                       &mbr, &child);
    children.push_back({mbr, child});
    if (i == 0) {
      *bounds = mbr;
    } else {
      bounds->ExpandToRect(mbr, ctx->dims);
    }
  }
  handle.Release();
  for (const auto& [claimed, child_id] : children) {
    Rect actual;
    CT_RETURN_NOT_OK(ValidateNode(ctx, child_id, &actual));
    for (size_t d = 0; d < ctx->dims; ++d) {
      if (actual.lo[d] < claimed.lo[d] || actual.hi[d] > claimed.hi[d]) {
        return Status::Corruption(
            "rtree validate: child " + std::to_string(child_id) +
            " exceeds its parent MBR in dim " + std::to_string(d));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status PackedRTree::Validate() {
  if (root_ == kInvalidPageId) {
    if (num_points_ != 0) {
      return Status::Corruption("rtree validate: no root but points > 0");
    }
    return Status::OK();
  }
  ValidateContext ctx{file_.get(), pool_, options_.dims};
  Rect bounds;
  CT_RETURN_NOT_OK(ValidateNode(&ctx, root_, &bounds));
  if (ctx.points != num_points_) {
    return Status::Corruption("rtree validate: point count mismatch");
  }
  // Global pack order and single-view leaves, via the sequential scan.
  Scanner scanner = ScanAll();
  Coord prev[kMaxDims];
  bool have_prev = false;
  uint64_t scanned = 0;
  uint32_t last_view = 0;
  std::set<uint32_t> closed_views;
  while (true) {
    const PointRecord* rec = nullptr;
    CT_RETURN_NOT_OK(scanner.Next(&rec));
    if (rec == nullptr) break;
    if (have_prev &&
        PackOrderCompare(prev, rec->coords, options_.dims) >= 0) {
      return Status::Corruption("rtree validate: leaves not in pack order");
    }
    std::memcpy(prev, rec->coords, sizeof(prev));
    have_prev = true;
    if (scanned == 0 || rec->view_id != last_view) {
      // A view's run must be contiguous: once left, it cannot reappear.
      if (scanned > 0) closed_views.insert(last_view);
      if (closed_views.count(rec->view_id)) {
        return Status::Corruption(
            "rtree validate: view leaves are interleaved");
      }
      last_view = rec->view_id;
    }
    ++scanned;
  }
  if (scanned != num_points_) {
    return Status::Corruption("rtree validate: scan count mismatch");
  }
  return Status::OK();
}

Status PackedRTree::Scanner::Next(const PointRecord** record) {
  while (slot_ == records_.size()) {
    if (next_page_ > tree_->num_leaf_pages_) {
      *record = nullptr;
      return Status::OK();
    }
    CT_RETURN_NOT_OK(LoadPage());
  }
  *record = &records_[slot_++];
  return Status::OK();
}

Status PackedRTree::Scanner::LoadPage() {
  CT_RETURN_NOT_OK(tree_->file_->ReadPage(next_page_, &page_));
  const char* page = page_.data;
  // Pages 1..num_leaf_pages are leaves by the packed file layout.
  CT_DCHECK(RNodeIsLeaf(page)) << "non-leaf page " << next_page_
                               << " in the leaf region of " << tree_->path();
  const uint8_t arity = RNodeArity(page);
  const uint16_t count = RNodeCount(page);
  if (arity > tree_->dims() || count > RLeafCapacity(arity)) {
    return Status::Corruption(
        "rtree: leaf page " + std::to_string(next_page_) + " of " +
        tree_->path() + " claims arity " + std::to_string(arity) + " and " +
        std::to_string(count) + " entries");
  }
  ++next_page_;
  const uint32_t view_id = RNodeViewId(page);
  records_.resize(count);
  slot_ = 0;
  DispatchArity(arity, [&](auto arity_constant) {
    constexpr uint8_t A = arity_constant;
    const char* entry = page + kRNodeHeaderSize;
    for (PointRecord& rec : records_) {
      RLeafReadEntry(entry, A, view_id, &rec);
      entry += RLeafEntryBytes(A);
    }
  });
  return Status::OK();
}

}  // namespace cubetree
