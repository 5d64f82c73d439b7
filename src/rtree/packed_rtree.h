#ifndef CUBETREE_RTREE_PACKED_RTREE_H_
#define CUBETREE_RTREE_PACKED_RTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "common/result.h"
#include "common/status.h"
#include "rtree/geometry.h"
#include "storage/buffer_pool.h"
#include "storage/extent.h"
#include "storage/page_manager.h"

namespace cubetree {

/// Build/search options of one packed R-tree file.
struct RTreeOptions {
  /// Dimensionality of the index space (1..kMaxDims).
  uint8_t dims = 3;
  /// Hard caps on entries per node (0 = page capacity, the paper's fully
  /// packed setting). Used by tests and the paper-example program to
  /// reproduce the small fan-out figures and to build under-full leaves.
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

/// The number of significant coordinates of each view a tree stores, by
/// view id; nullopt for a view the tree does not hold.
using ViewArityFn = std::function<std::optional<uint8_t>(uint32_t)>;

/// Receives one stored point of a search: the view and the stored arity of
/// its leaf, and its entry, a view record of that arity (rtree/geometry.h)
/// read where it lies on the leaf page and valid for the call. An
/// uncompressed leaf stores more coordinates than its view has; those past
/// the view's arity are zero.
using LeafEntryFn =
    std::function<void(uint32_t view_id, uint8_t arity, const char* entry)>;

/// Checks node page `id` of the tree at `path`, read from disk, before any
/// entry is decoded: a leaf's arity must be at most the tree's `dims` and
/// its entry count must fit its page, as must an internal node's; anything
/// else is Corruption. Search and the leaf scan run it on every page they
/// read, and CheckTree on every page it checks. A CRC describes the bytes
/// the packer wrote, so it cannot vouch for a header the packer got wrong;
/// this check is what stands between such a header and a read past the
/// page frame.
Status CheckNodeHeader(const char* page, uint8_t dims, PageId id,
                       const std::string& path);

/// One input of a bulk load or merge-pack: the records of one or more
/// views, each view's records in one run, a span of encoded leaf entries at
/// a time. Within a run the records ascend in pack order; across an input,
/// runs come in ascending view arity. Spools, sort output and the leaves of
/// an existing tree all hold view records (rtree/geometry.h), so the packer
/// moves them into leaves as bytes.
class ViewRunSource {
 public:
  virtual ~ViewRunSource() = default;

  /// Sets *view to the view of the current run, or nullopt once the input
  /// is exhausted.
  virtual Status CurrentView(std::optional<uint32_t>* view) = 0;

  /// Advances over the current run, whose records the packer stores at
  /// `leaf_arity` coordinates: sets *records to the first of *count leaf
  /// entries of that arity that lie back to back (valid until the next
  /// call). *count is 0 once the run is over; the input then stands at its
  /// next run.
  virtual Status NextSpan(uint8_t leaf_arity, const char** records,
                          size_t* count) = 0;
};

/// Pull stream of points in pack order; the input to bulk loading from
/// decoded points (tests, examples and the ablation benches). Readers of a
/// tree get its entries as view records, never as points.
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

/// Presents a PointSource as a ViewRunSource: a run per stretch of one
/// view's points, encoded as leaf entries a page's worth at a time. A point
/// with a non-zero coordinate at or beyond its leaf arity, which the leaf
/// could not store, is InvalidArgument.
class PointRunSource final : public ViewRunSource {
 public:
  PointRunSource(PointSource* source, uint8_t dims)
      : source_(source), dims_(dims) {}

  Status CurrentView(std::optional<uint32_t>* view) override;
  Status NextSpan(uint8_t leaf_arity, const char** records,
                  size_t* count) override;

 private:
  PointSource* source_;
  uint8_t dims_;
  const PointRecord* point_ = nullptr;
  bool started_ = false;
  bool in_run_ = false;
  uint32_t run_view_ = 0;
  std::vector<char> buffer_;
};

/// A packed, compressed R-tree: the physical half of a Cubetree.
///
/// The tree is immutable once built. Bulk loading consumes points sorted in
/// pack order (PackOrderCompare) and writes the file strictly sequentially:
/// leaves first, then each internal level bottom-up, root last, finally the
/// metadata page (page 0). Each leaf holds points of exactly one view, so
/// leaves store only the view's arity coordinates per entry (zero
/// suppression). Updates are performed by merge-packing into a new file —
/// Build over the old tree's leaves and the sorted increment — there is no
/// in-place insert, by design.
class PackedRTree {
 public:
  /// The one packer: bulk-builds a tree at `path` by merging `inputs` view
  /// by view, in ascending view arity. Records of one view from several
  /// inputs merge in pack order; equal keys combine through
  /// MergeViewAggregate, in input order. Leaf entries move as bytes: a span
  /// of records below every other input's next key is copied into its leaf
  /// with one memcpy, and pages leave kExtentPages per write.
  ///
  /// `view_arity` gives each view's number of significant coordinates; with
  /// compressed leaves a view is stored at that arity, and an arity above
  /// options.dims is InvalidArgument, as is a view it does not know. The
  /// output must ascend strictly in pack order, record by record, unless
  /// options.enforce_pack_order is off. `cancel`, when set by a sibling
  /// worker, stops the pack at its next leaf page with Cancelled.
  static Result<std::unique_ptr<PackedRTree>> Build(
      const std::string& path, const RTreeOptions& options, BufferPool* pool,
      const std::vector<ViewRunSource*>& inputs, const ViewArityFn& view_arity,
      std::shared_ptr<IoStats> io_stats = nullptr,
      const CancelFlag* cancel = nullptr);

  /// Build over one stream of decoded points (sorted in pack order; view
  /// boundaries must be respected by the order, which SelectMapping
  /// guarantees), through PointRunSource.
  static Result<std::unique_ptr<PackedRTree>> Build(
      const std::string& path, const RTreeOptions& options, BufferPool* pool,
      PointSource* source, const ViewArityFn& view_arity,
      std::shared_ptr<IoStats> io_stats = nullptr);

  /// Opens an existing tree file and its checksum sidecar, which arms
  /// verify-on-read; a missing or invalid sidecar is Corruption.
  static Result<std::unique_ptr<PackedRTree>> Open(
      const std::string& path, BufferPool* pool,
      std::shared_ptr<IoStats> io_stats = nullptr);

  ~PackedRTree();

  PackedRTree(const PackedRTree&) = delete;
  PackedRTree& operator=(const PackedRTree&) = delete;

  /// Emits every stored point contained in `query` (over the first dims()
  /// coordinates); with `view` set, only that view's points, which the
  /// leaf header settles since a leaf holds one view. The box is tested
  /// against the entries where they lie, and once per leaf for the
  /// coordinates past the leaf's arity, which are zero. Every entry of a
  /// scanned leaf counts as examined. The call's pages and points are
  /// added once to the ambient obs::QueryProfile, if any.
  Status Search(const Rect& query, const LeafEntryFn& emit,
                std::optional<uint32_t> view = std::nullopt);

  /// Sequential pack-order scan over all leaves. Reads leaf pages directly
  /// (sequential I/O, bypassing the pool), kExtentPages per read, and
  /// checks each leaf's header: a page that is not a leaf, or whose arity
  /// or entry count its page cannot hold, is Corruption.
  class Scanner {
   public:
    /// Sets *leaf to the next leaf page, or nullptr at end. The page stays
    /// valid until the next call.
    Status NextLeaf(const char** leaf);

    /// Page id of the leaf NextLeaf returned last.
    PageId leaf_page() const { return pages_.page_id(); }

   private:
    friend class PackedRTree;
    /// Leaves start right after the meta page.
    explicit Scanner(PackedRTree* tree)
        : tree_(tree),
          pages_(tree->file_.get(), 1, tree->num_leaf_pages_ + 1) {}

    PackedRTree* tree_;
    ExtentReader pages_;
  };

  Scanner ScanAll() { return Scanner(this); }

  /// The tree's leaves as the old-tree input of a merge-pack: each span is
  /// one leaf page's entries, handed on as they lie on the page. A leaf
  /// whose view `view_arity` does not know, whose view comes out of order
  /// (after a higher-arity view, or after its own run ended), or whose
  /// arity is not the one the pack stores its view at is Corruption.
  class LeafRunSource final : public ViewRunSource {
   public:
    LeafRunSource(PackedRTree* tree, ViewArityFn view_arity)
        : tree_(tree),
          scanner_(tree->ScanAll()),
          view_arity_(std::move(view_arity)) {}

    Status CurrentView(std::optional<uint32_t>* view) override;
    Status NextSpan(uint8_t leaf_arity, const char** records,
                    size_t* count) override;

   private:
    /// Makes leaf_ the next unconsumed leaf (nullptr at end), checking its
    /// view where a new run of this input starts.
    Status Load();
    Status LeafError(const std::string& what) const;

    PackedRTree* tree_;
    Scanner scanner_;
    ViewArityFn view_arity_;
    const char* leaf_ = nullptr;
    bool consumed_ = true;
    bool in_run_ = false;
    uint32_t run_view_ = 0;
    bool have_view_ = false;
    uint32_t last_view_ = 0;
    uint8_t last_arity_ = 0;
    std::vector<uint32_t> closed_views_;
  };

  uint8_t dims() const { return options_.dims; }
  uint64_t num_points() const { return num_points_; }
  uint32_t height() const { return height_; }
  PageId num_leaf_pages() const { return num_leaf_pages_; }
  uint64_t FileSizeBytes() const { return file_->FileSizeBytes(); }
  const std::string& path() const { return file_->path(); }
  const RTreeOptions& tree_options() const { return options_; }

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
                  std::optional<uint32_t> view, const LeafEntryFn& emit,
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
