#ifndef CUBETREE_STORAGE_PAGE_H_
#define CUBETREE_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>

namespace cubetree {

/// All persistent structures (heap tables, B+-trees, packed R-trees) are laid
/// out in fixed-size pages; this is the unit of I/O and of buffer-pool
/// caching.
inline constexpr size_t kPageSize = 8192;

/// Page number within one file, starting at 0.
using PageId = uint32_t;

inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// Pages moved by one pread or pwrite on the sequential paths: packed-tree
/// writes, old-leaf scans and spool reads. Eight pages (64 KiB per stream)
/// already take most of the system time of single-page calls away; larger
/// extents save little more and cost resident memory per open stream.
inline constexpr size_t kExtentPages = 8;

/// A raw page image. Callers overlay their own layouts on `data`.
struct Page {
  char data[kPageSize];

  void Zero() { std::memset(data, 0, sizeof(data)); }
};

}  // namespace cubetree

#endif  // CUBETREE_STORAGE_PAGE_H_
