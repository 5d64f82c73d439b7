#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "check/check.h"
#include "common/crc32.h"
#include "rtree/node.h"
#include "storage/checksum.h"
#include "storage/extent.h"
#include "storage/page_manager.h"

namespace cubetree {

namespace {

std::string PageContext(const std::string& path, PageId page) {
  return path + " page " + std::to_string(page);
}

/// The state of one forward pass over a tree file's pages. Each page is
/// checked as it arrives and leaves behind only what its parent needs: its
/// level, the page claiming it and the bounding box of its entries.
class TreePass {
 public:
  TreePass(const std::string& path, const ViewArityFn& view_arity,
           PageId num_pages, std::map<uint32_t, uint64_t>* view_points,
           CheckReport* report)
      : path_(path),
        view_arity_(view_arity),
        num_pages_(num_pages),
        view_points_(view_points),
        report_(report) {}

  /// Decodes and checks the metadata page. False when the other pages
  /// cannot be checked against it: bad magic, dims out of range, or no
  /// root to reach them from.
  bool Meta(const char* page);
  /// Checks node page `id`, 0 < id < num_pages.
  void Node(PageId id, const char* page);
  /// The checks over the whole file, once every page has passed.
  void Finish();

  void Error(const char* code, const std::string& message,
             const std::string& context = "") {
    report_->AddError("rtree", code, message,
                      context.empty() ? path_ : context);
  }

 private:
  /// What a parent needs of a page that passed.
  struct PageInfo {
    /// 1 for a leaf, one more than its children for an internal node; 0
    /// for a page that failed its own checks, whose parent then checks
    /// nothing against it.
    uint32_t level = 0;
    /// The internal node that claims the page as a child, 0 for none.
    PageId parent = 0;
    /// The bounding box of the page's entries.
    Rect bounds;
  };

  template <size_t A>
  void Leaf(PageId id, const char* page);
  void Internal(PageId id, const char* page);
  /// A leaf of `view` opens a run: it must be the view's only run, and a
  /// view the tree stores.
  void StartRun(PageId id, uint32_t view);

  const std::string& path_;
  const ViewArityFn& view_arity_;
  const PageId num_pages_;
  std::map<uint32_t, uint64_t>* view_points_;
  CheckReport* report_;
  RTreeMeta meta_;
  std::vector<PageInfo> pages_;

  // The leaf scan, in pack order.
  Coord prev_[kMaxDims] = {0};  // The previous entry, zero beyond its arity.
  bool have_prev_ = false;
  uint64_t points_ = 0;
  bool in_run_ = false;
  uint32_t run_view_ = 0;
  /// The run's view's arity; nullopt when unknown or stray.
  std::optional<uint8_t> run_arity_;
  uint16_t run_max_count_ = 0;
  PageId prev_leaf_ = 0;
  uint16_t prev_count_ = 0;
  std::vector<uint32_t> closed_views_;
};

bool TreePass::Meta(const char* page) {
  if (!RTreeDecodeMeta(page, &meta_)) {
    Error("meta-magic", "bad magic in metadata page");
    return false;
  }
  if (meta_.dims == 0 || meta_.dims > kMaxDims) {
    Error("meta-dims", "dims " + std::to_string(meta_.dims) +
                           " outside [1, " + std::to_string(kMaxDims) + "]");
    return false;
  }
  if (meta_.root == kInvalidPageId) {
    if (meta_.num_points != 0) {
      Error("meta-counts", "empty tree (no root) but num_points = " +
                               std::to_string(meta_.num_points));
    }
    if (meta_.num_leaf_pages != 0) {
      Error("meta-counts", "empty tree (no root) but num_leaf_pages = " +
                               std::to_string(meta_.num_leaf_pages));
    }
    return false;
  }
  if (meta_.root >= num_pages_) {
    Error("meta-root", "root page " + std::to_string(meta_.root) +
                           " beyond end of file (" +
                           std::to_string(num_pages_) + " pages)");
    return false;
  }
  if (meta_.num_leaf_pages + 1 > num_pages_) {
    Error("meta-counts",
          "num_leaf_pages " + std::to_string(meta_.num_leaf_pages) +
              " does not fit in a " + std::to_string(num_pages_) +
              "-page file");
  }
  // The packed layout writes the root last.
  if (meta_.root != num_pages_ - 1) {
    Error("meta-root", "root page " + std::to_string(meta_.root) +
                           " is not the last page of the file");
  }
  if (meta_.height == 0) {
    Error("meta-height", "nonempty tree with height 0");
  }
  pages_.resize(num_pages_);
  return true;
}

void TreePass::Node(PageId id, const char* page) {
  const bool leaf_region = id <= meta_.num_leaf_pages;
  if (RNodeIsLeaf(page) != leaf_region) {
    Error("page-role",
          leaf_region ? "page in the leaf region is not marked as a leaf"
                      : "page in the internal region is marked as a leaf",
          PageContext(path_, id));
    return;
  }
  if (Status header = CheckNodeHeader(page, meta_.dims, id, path_);
      !header.ok()) {
    const char* code = !leaf_region ? "internal-overflow"
                       : RNodeArity(page) > meta_.dims ? "leaf-arity"
                                                       : "leaf-overflow";
    Error(code, header.message(), PageContext(path_, id));
    return;
  }
  if (RNodeCount(page) == 0) {
    Error("empty-node", "node holds zero entries", PageContext(path_, id));
    return;
  }
  if (leaf_region) {
    DispatchArity(RNodeArity(page), [&](auto arity_constant) {
      Leaf<decltype(arity_constant)::value>(id, page);
    });
  } else {
    Internal(id, page);
  }
}

void TreePass::StartRun(PageId id, uint32_t view) {
  if (in_run_) closed_views_.push_back(run_view_);
  if (std::find(closed_views_.begin(), closed_views_.end(), view) !=
      closed_views_.end()) {
    Error("view-contiguity",
          "view " + std::to_string(view) +
              " leaves are interleaved (run reopened)",
          PageContext(path_, id));
  }
  in_run_ = true;
  run_view_ = view;
  run_arity_.reset();
  if (view_arity_) {
    run_arity_ = view_arity_(view);
    if (!run_arity_.has_value()) {
      Error("stray-view",
            "tree stores points of view " + std::to_string(view) +
                ", which is not one of its views",
            PageContext(path_, id));
    }
  }
}

template <size_t A>
void TreePass::Leaf(PageId id, const char* page) {
  constexpr size_t kBytes = ViewRecordBytes(A);
  const uint32_t view = RNodeViewId(page);
  const uint16_t count = RNodeCount(page);
  if (!in_run_ || view != run_view_) {
    StartRun(id, view);
    run_max_count_ = count;
  } else {
    // The packer fills every leaf of a view's run to one target, all but
    // the run's last. The arriving leaf shows the previous one was not the
    // last, and counts toward the target it is held to.
    run_max_count_ = std::max(run_max_count_, count);
    if (prev_count_ < run_max_count_) {
      report_->AddWarning(
          "rtree", "leaf-fill",
          "under-filled leaf inside view " + std::to_string(view) +
              "'s run (" + std::to_string(prev_count_) + " < " +
              std::to_string(run_max_count_) + " entries)",
          PageContext(path_, prev_leaf_));
    }
  }
  prev_leaf_ = id;
  prev_count_ = count;
  points_ += count;
  if (view_points_ != nullptr) (*view_points_)[view] += count;

  // Coordinates from zero_from up to A must be zero: the view has fewer.
  size_t zero_from = A;
  if (run_arity_.has_value()) {
    const size_t stored = meta_.compress_leaves ? *run_arity_ : meta_.dims;
    if (A != stored) {
      Error("leaf-arity",
            "leaf of view " + std::to_string(view) + " stores " +
                std::to_string(A) + " coordinates per entry, the tree " +
                "stores that view at " + std::to_string(stored),
            PageContext(path_, id));
    }
    zero_from = std::min<size_t>(*run_arity_, A);
  }

  Rect& box = pages_[id].bounds;
  const char* entry = page + kRNodeHeaderSize;
  for (uint16_t i = 0; i < count; ++i, entry += kBytes) {
    Coord coords[kMaxDims] = {0};
    for (size_t d = 0; d < A; ++d) coords[d] = ViewRecordCoord(entry, d);
    // Within a leaf both entries are zero beyond A; the first entry
    // follows the previous leaf, which may hold another view.
    if (have_prev_ &&
        PackOrderCompare(prev_, coords, i == 0 ? meta_.dims : A) >= 0) {
      Error("pack-order",
            "points not strictly ascending in pack order at leaf entry " +
                std::to_string(i),
            PageContext(path_, id));
    }
    for (size_t d = zero_from; d < A; ++d) {
      if (coords[d] != 0) {
        Error("zero-suppression",
              "view " + std::to_string(view) +
                  " point has nonzero coordinate " + std::to_string(d) +
                  " beyond its arity " + std::to_string(zero_from),
              PageContext(path_, id));
        break;
      }
    }
    if (i == 0) {
      box = Rect::FromPoint(coords, A);
    } else {
      box.ExpandToPoint(coords, A);
    }
    std::memcpy(prev_, coords, sizeof(prev_));
    have_prev_ = true;
  }
  pages_[id].level = 1;
}

void TreePass::Internal(PageId id, const char* page) {
  const uint8_t dims = meta_.dims;
  const uint16_t count = RNodeCount(page);
  const size_t entry_bytes = RInternalEntryBytes(dims);
  PageInfo& node = pages_[id];
  uint32_t child_level = 0;
  Rect mbr;
  PageId child = 0;
  for (uint16_t i = 0; i < count; ++i) {
    RInternalReadEntry(page + kRNodeHeaderSize + i * entry_bytes, dims, &mbr,
                       &child);
    if (i == 0) {
      node.bounds = mbr;
    } else {
      node.bounds.ExpandToRect(mbr, dims);
    }
    if (child == 0 || child >= id) {
      Error("child-pointer",
            "child pointer " + std::to_string(child) +
                " is not an earlier page",
            PageContext(path_, id));
      continue;
    }
    PageInfo& claimed = pages_[child];
    if (claimed.parent != 0) {
      Error("page-shared",
            "page " + std::to_string(child) + " is a child of pages " +
                std::to_string(claimed.parent) + " and " + std::to_string(id),
            PageContext(path_, id));
      continue;
    }
    claimed.parent = id;
    if (claimed.level == 0) continue;  // Reported when it passed.
    if (child_level == 0) {
      child_level = claimed.level;
    } else if (claimed.level != child_level) {
      Error("leaf-depth",
            "children on levels " + std::to_string(child_level) + " and " +
                std::to_string(claimed.level) +
                ": leaves sit at different depths",
            PageContext(path_, id));
    }
    for (size_t d = 0; d < dims; ++d) {
      if (claimed.bounds.lo[d] < mbr.lo[d] ||
          claimed.bounds.hi[d] > mbr.hi[d]) {
        Error("mbr-containment",
              "child " + std::to_string(child) +
                  " exceeds its parent MBR in dim " + std::to_string(d),
              PageContext(path_, id));
        break;
      }
    }
  }
  node.level = child_level == 0 ? 0 : child_level + 1;
}

void TreePass::Finish() {
  // A child is always an earlier page than its parent, so following the
  // claims up from a page ends at the root exactly when the root reaches
  // it, and a descending sweep settles each page after its parent.
  std::vector<bool> reachable(num_pages_, false);
  for (PageId id = num_pages_ - 1; id > 0; --id) {
    const PageId parent = pages_[id].parent;
    reachable[id] = id == meta_.root || (parent != 0 && reachable[parent]);
  }
  for (PageId id = 1; id <= meta_.num_leaf_pages && id < num_pages_; ++id) {
    if (!reachable[id]) {
      Error("unreachable-leaf", "leaf page not reachable from the root",
            PageContext(path_, id));
    }
  }
  const uint32_t root_level = pages_[meta_.root].level;
  if (root_level != 0 && root_level != meta_.height) {
    Error("depth", "the root stands " + std::to_string(root_level) +
                       " level(s) above the leaves, the metadata records "
                       "height " + std::to_string(meta_.height));
  }
  if (points_ != meta_.num_points) {
    Error("point-count", "leaf scan found " + std::to_string(points_) +
                             " points, metadata records " +
                             std::to_string(meta_.num_points));
  }
}

}  // namespace

Status CheckTree(const std::string& path, const ViewArityFn& view_arity,
                 CheckReport* report,
                 std::map<uint32_t, uint64_t>* view_points) {
  // Damage is a finding; any other failure to open or read the file means
  // the check could not run.
  const auto damaged = [&](const Status& status) {
    if (!status.IsCorruption()) return status;
    report->AddError("rtree", "unreadable-page", status.ToString(), path);
    return Status::OK();
  };
  auto opened = PageManager::Open(path);
  if (!opened.ok()) return damaged(opened.status());
  const std::unique_ptr<PageManager> file = std::move(opened).value();
  const PageId num_pages = file->NumPages();
  TreePass pass(path, view_arity, num_pages, view_points, report);
  // The file is read unverified and each page's CRC compared here, so a
  // mismatch is one finding rather than the end of the pass, and no page
  // is re-read to heal it.
  std::vector<uint32_t> crcs;
  bool verify = false;
  if (Status loaded = LoadChecksumSidecar(path, &crcs); loaded.IsNotFound()) {
    pass.Error("checksum-missing",
               "no checksum sidecar (" + ChecksumSidecarPath(path) + ")");
  } else if (loaded.IsCorruption()) {
    pass.Error("checksum-sidecar",
               "checksum sidecar invalid: " + loaded.ToString());
  } else if (!loaded.ok()) {
    return loaded;
  } else if (crcs.size() != num_pages) {
    pass.Error("checksum-count",
               "sidecar covers " + std::to_string(crcs.size()) +
                   " pages, file has " + std::to_string(num_pages));
  } else {
    verify = true;
  }
  if (num_pages == 0) {
    pass.Error("meta-missing", "file has no pages");
    return Status::OK();
  }
  ExtentReader pages(file.get(), 0, num_pages);
  bool structure = false;
  while (true) {
    const char* page = nullptr;
    if (Status read = pages.Next(&page); !read.ok()) return damaged(read);
    if (page == nullptr) break;
    const PageId id = pages.page_id();
    if (verify) {
      const uint32_t computed = Crc32c(page, kPageSize);
      if (computed != crcs[id]) {
        pass.Error("checksum-mismatch",
                   "stored CRC " + std::to_string(crcs[id]) +
                       " != computed " + std::to_string(computed),
                   PageContext(path, id));
      }
    }
    if (id == 0) {
      structure = pass.Meta(page);
    } else if (structure) {
      pass.Node(id, page);
    }
  }
  if (structure) pass.Finish();
  return Status::OK();
}

}  // namespace cubetree
