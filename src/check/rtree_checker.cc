#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "check/checkers.h"
#include "common/crc32.h"
#include "rtree/geometry.h"
#include "rtree/node.h"
#include "rtree/packed_rtree.h"
#include "storage/checksum.h"
#include "storage/page_manager.h"

namespace cubetree {

namespace {

std::string PageContext(const std::string& path, PageId page) {
  return path + " page " + std::to_string(page);
}

}  // namespace

struct RTreeChecker::Impl {
  std::string path;
  CheckOptions options;
  std::function<uint8_t(uint32_t)> view_arity;

  PageManager* file = nullptr;
  RTreeMeta meta;
  CheckReport* report = nullptr;

  void CheckMeta();
  void CheckChecksums();
  void CheckPageRoles();
  /// Recursive containment/reachability walk; fills `visited` and returns
  /// the subtree's actual bounding box in *bounds (false if unreadable).
  bool WalkNode(PageId node_id, uint32_t depth, Rect* bounds,
                std::set<PageId>* visited);
  void CheckLeafScan();

  void Error(const std::string& code, const std::string& message,
             const std::string& context = "") {
    report->AddError("rtree", code, message,
                     context.empty() ? path : context);
  }
  void Warning(const std::string& code, const std::string& message,
               const std::string& context = "") {
    report->AddWarning("rtree", code, message,
                       context.empty() ? path : context);
  }
};

RTreeChecker::RTreeChecker(std::string path, CheckOptions options,
                           std::function<uint8_t(uint32_t)> view_arity)
    : impl_(new Impl{std::move(path), options, std::move(view_arity)}) {}

RTreeChecker::~RTreeChecker() = default;

void RTreeChecker::Impl::CheckMeta() {
  if (meta.dims == 0 || meta.dims > kMaxDims) {
    Error("meta-dims", "dims " + std::to_string(meta.dims) +
                           " outside [1, " + std::to_string(kMaxDims) + "]");
  }
  if (meta.root == kInvalidPageId) {
    if (meta.num_points != 0) {
      Error("meta-counts", "empty tree (no root) but num_points = " +
                               std::to_string(meta.num_points));
    }
    if (meta.num_leaf_pages != 0) {
      Error("meta-counts", "empty tree (no root) but num_leaf_pages = " +
                               std::to_string(meta.num_leaf_pages));
    }
    return;
  }
  if (meta.root >= file->NumPages()) {
    Error("meta-root", "root page " + std::to_string(meta.root) +
                           " beyond end of file (" +
                           std::to_string(file->NumPages()) + " pages)");
    meta.root = kInvalidPageId;  // Nothing below can walk the tree.
    return;
  }
  if (meta.num_leaf_pages + 1 > file->NumPages()) {
    Error("meta-counts",
          "num_leaf_pages " + std::to_string(meta.num_leaf_pages) +
              " does not fit in a " + std::to_string(file->NumPages()) +
              "-page file");
  }
  // The packed layout writes leaves first, internal levels bottom-up, root
  // last: the root must be the file's final page.
  if (meta.root != file->NumPages() - 1) {
    Error("meta-root", "root page " + std::to_string(meta.root) +
                           " is not the last page of the file");
  }
  if (meta.height == 0) {
    Error("meta-height", "nonempty tree with height 0");
  }
}

void RTreeChecker::Impl::CheckChecksums() {
  // Verify the `.crc` sidecar independently of the PageManager's own
  // verify-on-read (which is deliberately not armed here), so every bad
  // page becomes one finding instead of aborting the structural walk.
  std::vector<uint32_t> table;
  if (Status loaded = LoadChecksumSidecar(path, &table); !loaded.ok()) {
    if (loaded.IsNotFound()) {
      Warning("checksum-missing",
              "no checksum sidecar (" + ChecksumSidecarPath(path) +
                  "): pages are unverifiable, runtime reads go unchecked");
    } else {
      Error("checksum-sidecar",
            "checksum sidecar invalid: " + loaded.ToString());
    }
    return;
  }
  if (table.size() != file->NumPages()) {
    Error("checksum-count",
          "sidecar covers " + std::to_string(table.size()) +
              " pages, file has " + std::to_string(file->NumPages()));
    return;
  }
  Page page;
  for (PageId id = 0; id < file->NumPages(); ++id) {
    if (!file->ReadPage(id, &page).ok()) {
      Error("unreadable-page", "cannot read page while verifying checksums",
            PageContext(path, id));
      return;
    }
    const uint32_t computed = Crc32c(page.data, kPageSize);
    if (computed != table[id]) {
      Error("checksum-mismatch",
            "stored CRC " + std::to_string(table[id]) + " != computed " +
                std::to_string(computed),
            PageContext(path, id));
    }
  }
}

void RTreeChecker::Impl::CheckPageRoles() {
  // Pages 1..num_leaf_pages must be leaves; everything after must be
  // internal. One mislabeled page is enough to report per region.
  Page page;
  for (PageId id = 1; id < file->NumPages(); ++id) {
    if (!file->ReadPage(id, &page).ok()) {
      Error("unreadable-page", "cannot read page", PageContext(path, id));
      return;
    }
    const bool should_be_leaf = id <= meta.num_leaf_pages;
    if (RNodeIsLeaf(page.data) != should_be_leaf) {
      Error("page-role",
            should_be_leaf
                ? "page in the leaf region is not marked as a leaf"
                : "page in the internal region is marked as a leaf",
            PageContext(path, id));
    }
  }
}

bool RTreeChecker::Impl::WalkNode(PageId node_id, uint32_t depth,
                                  Rect* bounds, std::set<PageId>* visited) {
  if (node_id == 0 || node_id >= file->NumPages()) {
    Error("child-pointer", "child pointer " + std::to_string(node_id) +
                               " out of range");
    return false;
  }
  if (!visited->insert(node_id).second) {
    Error("page-shared", "page referenced more than once (cycle or shared "
                         "subtree)",
          PageContext(path, node_id));
    return false;
  }
  if (depth > meta.height) {
    Error("depth", "node deeper than the recorded height " +
                       std::to_string(meta.height),
          PageContext(path, node_id));
    return false;
  }
  Page page;
  if (!file->ReadPage(node_id, &page).ok()) {
    Error("unreadable-page", "cannot read page", PageContext(path, node_id));
    return false;
  }
  const uint16_t count = RNodeCount(page.data);
  if (count == 0) {
    Error("empty-node", "node holds zero entries", PageContext(path, node_id));
    return false;
  }
  if (RNodeIsLeaf(page.data)) {
    if (depth != meta.height) {
      Error("leaf-depth", "leaf at depth " + std::to_string(depth) +
                              ", expected " + std::to_string(meta.height),
            PageContext(path, node_id));
    }
    const uint8_t arity = RNodeArity(page.data);
    const uint32_t view_id = RNodeViewId(page.data);
    if (arity > meta.dims) {
      Error("leaf-arity", "leaf arity " + std::to_string(arity) +
                              " exceeds tree dims " +
                              std::to_string(meta.dims),
            PageContext(path, node_id));
      return false;
    }
    if (count > RLeafCapacity(arity)) {
      Error("leaf-overflow", "leaf count " + std::to_string(count) +
                                 " exceeds capacity " +
                                 std::to_string(RLeafCapacity(arity)),
            PageContext(path, node_id));
      return false;
    }
    const size_t entry_bytes = ViewRecordBytes(arity);
    PointRecord rec;
    char scratch[kPageSize];
    for (uint16_t i = 0; i < count; ++i) {
      const char* src = page.data + kRNodeHeaderSize + i * entry_bytes;
      RLeafReadEntry(src, arity, view_id, &rec);
      if (options.deep) {
        // Compression round-trip: re-encoding the decoded entry must
        // reproduce the on-page bytes exactly (the implicit-zero
        // suppression is lossless).
        EncodeViewRecord(scratch, rec.coords, arity, rec.agg);
        if (std::memcmp(scratch, src, entry_bytes) != 0) {
          Error("compression-roundtrip",
                "leaf entry " + std::to_string(i) +
                    " does not survive a decode/re-encode round-trip",
                PageContext(path, node_id));
        }
        if (view_arity) {
          const uint8_t expected = view_arity(view_id);
          for (size_t d = expected; d < meta.dims; ++d) {
            if (rec.coords[d] != 0) {
              Error("zero-suppression",
                    "view " + std::to_string(view_id) +
                        " point has nonzero coordinate " +
                        std::to_string(d) + " beyond its arity " +
                        std::to_string(expected),
                    PageContext(path, node_id));
              break;
            }
          }
        }
      }
      if (i == 0) {
        *bounds = Rect::FromPoint(rec.coords, meta.dims);
      } else {
        bounds->ExpandToPoint(rec.coords, meta.dims);
      }
    }
    return true;
  }
  // Internal node.
  if (node_id <= meta.num_leaf_pages) {
    // Already reported by CheckPageRoles; do not recurse into garbage.
    return false;
  }
  const size_t entry_bytes = RInternalEntryBytes(meta.dims);
  if (count > RInternalCapacity(meta.dims)) {
    Error("internal-overflow", "internal count " + std::to_string(count) +
                                   " exceeds capacity " +
                                   std::to_string(RInternalCapacity(meta.dims)),
          PageContext(path, node_id));
    return false;
  }
  std::vector<std::pair<Rect, PageId>> children;
  children.reserve(count);
  Rect mbr;
  PageId child;
  for (uint16_t i = 0; i < count; ++i) {
    RInternalReadEntry(page.data + kRNodeHeaderSize + i * entry_bytes,
                       meta.dims, &mbr, &child);
    children.emplace_back(mbr, child);
    if (i == 0) {
      *bounds = mbr;
    } else {
      bounds->ExpandToRect(mbr, meta.dims);
    }
  }
  for (const auto& [claimed, child_id] : children) {
    Rect actual;
    if (!WalkNode(child_id, depth + 1, &actual, visited)) continue;
    for (size_t d = 0; d < meta.dims; ++d) {
      if (actual.lo[d] < claimed.lo[d] || actual.hi[d] > claimed.hi[d]) {
        Error("mbr-containment",
              "child " + std::to_string(child_id) +
                  " exceeds its parent MBR in dim " + std::to_string(d),
              PageContext(path, node_id));
        break;
      }
    }
  }
  return true;
}

void RTreeChecker::Impl::CheckLeafScan() {
  // Sequential scan over the leaf region: global pack order, single-view
  // contiguous runs, uniform fill within a run, point-count agreement.
  Page page;
  Coord prev[kMaxDims] = {0};
  bool have_prev = false;
  uint64_t points = 0;
  uint32_t run_view = 0;
  uint16_t run_max_count = 0;
  uint16_t prev_count = 0;
  bool in_run = false;
  std::set<uint32_t> closed_views;
  PointRecord rec;

  auto close_run = [&]() {
    if (in_run) closed_views.insert(run_view);
  };

  for (PageId id = 1; id <= meta.num_leaf_pages && id < file->NumPages();
       ++id) {
    if (!file->ReadPage(id, &page).ok()) {
      Error("unreadable-page", "cannot read leaf page",
            PageContext(path, id));
      return;
    }
    if (!RNodeIsLeaf(page.data)) continue;  // Reported by CheckPageRoles.
    const uint8_t arity = RNodeArity(page.data);
    const uint32_t view_id = RNodeViewId(page.data);
    const uint16_t count = RNodeCount(page.data);
    if (arity > meta.dims || count == 0 || count > RLeafCapacity(arity)) {
      continue;  // Reported by the tree walk.
    }
    if (!in_run || view_id != run_view) {
      close_run();
      if (closed_views.count(view_id) != 0) {
        Error("view-contiguity",
              "view " + std::to_string(view_id) +
                  " leaves are interleaved (run reopened)",
              PageContext(path, id));
      }
      run_view = view_id;
      run_max_count = count;
      in_run = true;
    } else {
      // Packed build invariant: within one view's run every leaf except
      // the last is filled to the run's uniform target.
      if (prev_count < run_max_count) {
        Warning("leaf-fill",
                "under-filled leaf inside view " +
                    std::to_string(view_id) + "'s run (" +
                    std::to_string(prev_count) + " < " +
                    std::to_string(run_max_count) + " entries)",
                PageContext(path, id - 1));
      }
      if (count > run_max_count) run_max_count = count;
    }
    prev_count = count;
    const size_t entry_bytes = ViewRecordBytes(arity);
    for (uint16_t i = 0; i < count; ++i) {
      RLeafReadEntry(page.data + kRNodeHeaderSize + i * entry_bytes, arity,
                     view_id, &rec);
      if (have_prev &&
          PackOrderCompare(prev, rec.coords, meta.dims) >= 0) {
        Error("pack-order",
              "points not strictly ascending in pack order at leaf entry " +
                  std::to_string(i),
              PageContext(path, id));
      }
      std::memcpy(prev, rec.coords, sizeof(prev));
      have_prev = true;
      ++points;
    }
  }
  if (points != meta.num_points) {
    Error("point-count", "leaf scan found " + std::to_string(points) +
                             " points, metadata records " +
                             std::to_string(meta.num_points));
  }
}

Status RTreeChecker::Run(CheckReport* report) {
  Impl& ctx = *impl_;
  ctx.report = report;
  auto file_result = PageManager::Open(ctx.path);
  if (!file_result.ok()) return file_result.status();
  auto file = std::move(file_result).value();
  ctx.file = file.get();

  if (file->NumPages() == 0) {
    ctx.Error("meta-missing", "file has no pages");
    return Status::OK();
  }
  if (ctx.options.checksums) ctx.CheckChecksums();
  Page meta_page;
  CT_RETURN_NOT_OK(file->ReadPage(0, &meta_page));
  if (!RTreeDecodeMeta(meta_page.data, &ctx.meta)) {
    ctx.Error("meta-magic", "bad magic in metadata page");
    return Status::OK();
  }
  ctx.CheckMeta();
  if (ctx.meta.dims == 0 || ctx.meta.dims > kMaxDims) return Status::OK();
  if (ctx.meta.root == kInvalidPageId) return Status::OK();

  ctx.CheckPageRoles();
  if (ctx.options.deep) {
    std::set<PageId> visited;
    Rect bounds;
    ctx.WalkNode(ctx.meta.root, 1, &bounds, &visited);
    // Every leaf page must be reachable from the root.
    for (PageId id = 1;
         id <= ctx.meta.num_leaf_pages && id < file->NumPages(); ++id) {
      if (visited.count(id) == 0) {
        ctx.Error("unreachable-leaf", "leaf page not reachable from the root",
                  PageContext(ctx.path, id));
      }
    }
    ctx.CheckLeafScan();
  }
  return Status::OK();
}

}  // namespace cubetree
