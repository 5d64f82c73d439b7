#ifndef CUBETREE_RTREE_NODE_H_
#define CUBETREE_RTREE_NODE_H_

#include <cstdint>
#include <cstring>

#include "common/coding.h"
#include "rtree/geometry.h"
#include "storage/page.h"

namespace cubetree {

// On-page layouts of packed R-tree nodes and of the tree's metadata page.
//
// Every node starts with an 8-byte header:
//   [0]    uint8  is_leaf
//   [1]    uint8  arity   (leaves: stored coordinates per entry)
//   [2..3] uint16 entry count
//   [4..7] uint32 view_id (leaves) / unused (internal)
//
// Leaf entries (compressed) are view records (rtree/geometry.h) of the
// leaf's arity: arity * 4 bytes of coordinates followed by the 12-byte
// aggregate payload. Coordinates arity..dims-1 are implicitly zero — this
// is the paper's leaf compression, legal because packing places each view
// in its own contiguous run of leaves.
//
// Internal entries: 2 * dims * 4 bytes MBR (lo then hi) + 4-byte child page.

inline constexpr size_t kRNodeHeaderSize = 8;

inline bool RNodeIsLeaf(const char* page) { return page[0] != 0; }
inline uint8_t RNodeArity(const char* page) {
  return static_cast<uint8_t>(page[1]);
}
inline uint16_t RNodeCount(const char* page) {
  uint16_t v;
  std::memcpy(&v, page + 2, sizeof(v));
  return v;
}
inline uint32_t RNodeViewId(const char* page) { return DecodeFixed32(page + 4); }

inline void RNodeSetHeader(char* page, bool is_leaf, uint8_t arity,
                           uint16_t count, uint32_t view_id) {
  page[0] = is_leaf ? 1 : 0;
  page[1] = static_cast<char>(arity);
  std::memcpy(page + 2, &count, sizeof(count));
  EncodeFixed32(page + 4, view_id);
}
inline void RNodeSetCount(char* page, uint16_t count) {
  std::memcpy(page + 2, &count, sizeof(count));
}

inline size_t RInternalEntryBytes(uint8_t dims) {
  return 2 * static_cast<size_t>(dims) * sizeof(Coord) + sizeof(uint32_t);
}

inline uint16_t RLeafCapacity(uint8_t arity) {
  return static_cast<uint16_t>((kPageSize - kRNodeHeaderSize) /
                               ViewRecordBytes(arity));
}
inline uint16_t RInternalCapacity(uint8_t dims) {
  return static_cast<uint16_t>((kPageSize - kRNodeHeaderSize) /
                               RInternalEntryBytes(dims));
}

/// Writes one internal entry (MBR + child) at `dest`.
inline void RInternalWriteEntry(char* dest, const Rect& mbr, uint8_t dims,
                                PageId child) {
  std::memcpy(dest, mbr.lo, static_cast<size_t>(dims) * sizeof(Coord));
  std::memcpy(dest + static_cast<size_t>(dims) * sizeof(Coord), mbr.hi,
              static_cast<size_t>(dims) * sizeof(Coord));
  EncodeFixed32(dest + 2 * static_cast<size_t>(dims) * sizeof(Coord), child);
}

/// Reads one internal entry.
inline void RInternalReadEntry(const char* src, uint8_t dims, Rect* mbr,
                               PageId* child) {
  std::memcpy(mbr->lo, src, static_cast<size_t>(dims) * sizeof(Coord));
  std::memcpy(mbr->hi, src + static_cast<size_t>(dims) * sizeof(Coord),
              static_cast<size_t>(dims) * sizeof(Coord));
  for (size_t i = dims; i < kMaxDims; ++i) {
    mbr->lo[i] = 0;
    mbr->hi[i] = 0;
  }
  *child = DecodeFixed32(src + 2 * static_cast<size_t>(dims) * sizeof(Coord));
}

// Metadata page (page 0) of a packed R-tree file:
//   [0..3]   uint32 magic "CTRT"
//   [4]      uint8  dims
//   [5]      uint8  compress flag
//   [6..7]   pad
//   [8..11]  PageId root
//   [12..15] uint32 height
//   [16..23] uint64 num_points
//   [24..27] PageId num_leaf_pages
// The rest of the page is zero.

inline constexpr uint32_t kRTreeMagic = 0x43545254;  // "CTRT"
inline constexpr size_t kRTreeMetaDims = 4;
inline constexpr size_t kRTreeMetaCompress = 5;
inline constexpr size_t kRTreeMetaRoot = 8;
inline constexpr size_t kRTreeMetaHeight = 12;
inline constexpr size_t kRTreeMetaNumPoints = 16;
inline constexpr size_t kRTreeMetaNumLeafPages = 24;

/// Decoded image of the metadata page.
struct RTreeMeta {
  uint8_t dims = 0;
  bool compress_leaves = true;
  PageId root = kInvalidPageId;
  uint32_t height = 0;
  uint64_t num_points = 0;
  PageId num_leaf_pages = 0;
};

/// Writes `meta` as a whole metadata page at `page` (kPageSize bytes).
inline void RTreeEncodeMeta(char* page, const RTreeMeta& meta) {
  std::memset(page, 0, kPageSize);
  EncodeFixed32(page, kRTreeMagic);
  page[kRTreeMetaDims] = static_cast<char>(meta.dims);
  page[kRTreeMetaCompress] = meta.compress_leaves ? 1 : 0;
  EncodeFixed32(page + kRTreeMetaRoot, meta.root);
  EncodeFixed32(page + kRTreeMetaHeight, meta.height);
  EncodeFixed64(page + kRTreeMetaNumPoints, meta.num_points);
  EncodeFixed32(page + kRTreeMetaNumLeafPages, meta.num_leaf_pages);
}

/// Decodes the metadata page at `page` into *meta. Returns false, leaving
/// *meta untouched, when the page does not start with kRTreeMagic.
inline bool RTreeDecodeMeta(const char* page, RTreeMeta* meta) {
  if (DecodeFixed32(page) != kRTreeMagic) return false;
  meta->dims = static_cast<uint8_t>(page[kRTreeMetaDims]);
  meta->compress_leaves = page[kRTreeMetaCompress] != 0;
  meta->root = DecodeFixed32(page + kRTreeMetaRoot);
  meta->height = DecodeFixed32(page + kRTreeMetaHeight);
  meta->num_points = DecodeFixed64(page + kRTreeMetaNumPoints);
  meta->num_leaf_pages = DecodeFixed32(page + kRTreeMetaNumLeafPages);
  return true;
}

}  // namespace cubetree

#endif  // CUBETREE_RTREE_NODE_H_
