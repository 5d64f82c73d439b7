#ifndef CUBETREE_RTREE_PACKED_RTREE_H_
#define CUBETREE_RTREE_PACKED_RTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rtree/geometry.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"

namespace cubetree {

/// Build/search options of one packed R-tree file.
struct RTreeOptions {
  /// Dimensionality of the index space (1..kMaxDims).
  uint8_t dims = 3;
  /// Leaf fill fraction; 1.0 = packed to capacity (the paper's setting).
  /// Internal nodes are always packed to capacity.
  double leaf_fill = 1.0;
  /// Hard caps on entries per node (0 = page capacity). Used by tests and
  /// the paper-example program to reproduce the small fan-out figures.
  uint16_t max_leaf_entries = 0;
  uint16_t max_internal_entries = 0;
  /// Suppress implicit-zero coordinates on leaves (the paper's compression).
  /// Off stores full-width entries — kept as an ablation switch.
  bool compress_leaves = true;
  /// Verify at build time that the input arrives in strict pack order.
  /// Disable ONLY to bulk-load an alternative sort order (e.g. the Z-order
  /// ablation); such a tree still answers box queries correctly, but view
  /// runs are no longer contiguous and merge-pack no longer applies.
  bool enforce_pack_order = true;
};

/// Pull stream of points in pack order; the input to bulk loading.
class PointSource {
 public:
  virtual ~PointSource() = default;
  /// Sets *record to the next point or nullptr at end.
  virtual Status Next(const PointRecord** record) = 0;
};

/// PointSource over an in-memory vector (used by tests and small builds).
class VectorPointSource : public PointSource {
 public:
  explicit VectorPointSource(std::vector<PointRecord> points)
      : points_(std::move(points)) {}

  Status Next(const PointRecord** record) override {
    if (pos_ >= points_.size()) {
      *record = nullptr;
      return Status::OK();
    }
    *record = &points_[pos_++];
    return Status::OK();
  }

 private:
  std::vector<PointRecord> points_;
  size_t pos_ = 0;
};

/// A packed, compressed R-tree: the physical half of a Cubetree.
///
/// The tree is immutable once built. Bulk loading consumes points sorted in
/// pack order (PackOrderCompare) and writes the file strictly sequentially:
/// leaves first, then each internal level bottom-up, root last, finally the
/// metadata page (page 0). Each leaf holds points of exactly one view, so
/// leaves store only the view's arity coordinates per entry (zero
/// suppression). Updates are performed by merge-packing into a new file (see
/// cubetree/merge_pack.h) — there is no in-place insert, by design.
class PackedRTree {
 public:
  /// Bulk-builds a tree at `path` from `source` (sorted in pack order; view
  /// boundaries must be respected by the order, which SelectMapping
  /// guarantees). `view_arity(view_id)` gives the number of significant
  /// coordinates of each view; it is called once per view run. With
  /// compressed leaves, a view arity above options.dims, or a point with a
  /// non-zero coordinate at or beyond its view's arity (which its leaf
  /// could not store), is InvalidArgument.
  static Result<std::unique_ptr<PackedRTree>> Build(
      const std::string& path, const RTreeOptions& options, BufferPool* pool,
      PointSource* source, std::function<uint8_t(uint32_t)> view_arity,
      std::shared_ptr<IoStats> io_stats = nullptr);

  /// Opens an existing tree file.
  static Result<std::unique_ptr<PackedRTree>> Open(
      const std::string& path, BufferPool* pool,
      std::shared_ptr<IoStats> io_stats = nullptr);

  ~PackedRTree();

  PackedRTree(const PackedRTree&) = delete;
  PackedRTree& operator=(const PackedRTree&) = delete;

  /// Emits every point contained in `query` (over the first dims()
  /// coordinates). Points carry their view_id; callers typically restrict
  /// the query rect so only one view's region matches. The call's pages
  /// and points are added once to the ambient obs::QueryProfile, if any.
  Status Search(const Rect& query,
                const std::function<void(const PointRecord&)>& emit);

  /// Sequential pack-order scan over all points (merge-pack input). Reads
  /// leaf pages directly (sequential I/O, bypassing the pool) and decodes
  /// each one whole, at its arity.
  class Scanner {
   public:
    /// Sets *record to the next point or nullptr at end. The record stays
    /// valid until the scan moves past its leaf page.
    Status Next(const PointRecord** record);

   private:
    friend class PackedRTree;
    explicit Scanner(PackedRTree* tree) : tree_(tree) {}

    /// Reads leaf page next_page_ and decodes its entries into records_.
    Status LoadPage();

    PackedRTree* tree_;
    Page page_;
    PageId next_page_ = 1;  // Leaves start right after the meta page.
    std::vector<PointRecord> records_;
    size_t slot_ = 0;
  };

  Scanner ScanAll() { return Scanner(this); }

  /// Structural self-check: verifies that every internal entry's MBR
  /// contains its child's actual bounding box, that leaf points are in
  /// strict pack order globally, that each leaf holds a single view, and
  /// that the point count matches the metadata. O(file size); intended
  /// for tests and offline fsck-style tooling.
  Status Validate();

  uint8_t dims() const { return options_.dims; }
  uint64_t num_points() const { return num_points_; }
  uint32_t height() const { return height_; }
  PageId num_leaf_pages() const { return num_leaf_pages_; }
  uint64_t FileSizeBytes() const { return file_->FileSizeBytes(); }
  const std::string& path() const { return file_->path(); }
  const RTreeOptions& tree_options() const { return options_; }
  /// True when every page read of this tree is checksum-verified (the
  /// `.crc` sidecar was written at build time or loaded at open).
  bool checksums_enabled() const { return file_->checksums_enabled(); }

 private:
  PackedRTree(std::unique_ptr<PageManager> file, RTreeOptions options,
              BufferPool* pool);

  /// Search runs in two phases so traces show honest "descent" and "scan"
  /// costs. Descent walks internal pages only, collecting qualifying leaf
  /// page ids in DFS entry order (the layout invariant — leaves occupy
  /// pages 1..num_leaf_pages_ — lets a child be classified without
  /// fetching it); the scan phase then fetches each collected leaf and
  /// emits its matching points. Emission order matches the old interleaved
  /// recursion exactly, because every internal node's children live on one
  /// level (bottom-up packing), so no node mixes leaf and internal
  /// children.
  Status CollectLeaves(PageId node, const Rect& query,
                       std::vector<PageId>* leaves, uint64_t* internal_pages);
  Status ScanLeaf(PageId leaf, const Rect& query,
                  const std::function<void(const PointRecord&)>& emit,
                  uint64_t* examined, uint64_t* emitted);

  std::unique_ptr<PageManager> file_;
  RTreeOptions options_;
  BufferPool* pool_;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;
  uint64_t num_points_ = 0;
  PageId num_leaf_pages_ = 0;
};

}  // namespace cubetree

#endif  // CUBETREE_RTREE_PACKED_RTREE_H_
