#ifndef CUBETREE_CHECK_CHECKERS_H_
#define CUBETREE_CHECK_CHECKERS_H_

#include <functional>
#include <memory>
#include <string>

#include "check/invariant_checker.h"
#include "storage/buffer_pool.h"

namespace cubetree {

/// Options shared by the file-level checkers.
struct CheckOptions {
  /// Deep mode reads every page: containment, pack order, fill factors,
  /// compression round-trips, CRC verification. Shallow mode stops at
  /// metadata-level consistency.
  bool deep = true;
  /// Verify every page of each data file against its `.crc` checksum
  /// sidecar (independently of deep mode's structural checks). Findings:
  ///   checksum-missing   (warning) — no sidecar; pre-checksum file, reads
  ///                      are unverified at runtime too
  ///   checksum-sidecar   (error)   — sidecar present but itself invalid
  ///   checksum-count     (error)   — sidecar entry count != file pages
  ///   checksum-mismatch  (error)   — page bytes do not match stored CRC
  bool checksums = false;
};

/// Deep-validates one packed R-tree (.ctr) file:
///   - metadata: magic, dims in range, root/height/leaf-count agreement,
///     root written last (packed layout), leaves before internal nodes;
///   - structure: every page reachable exactly once, uniform leaf depth,
///     internal MBRs contain their children's actual bounding boxes;
///   - leaves: nonzero entry counts within capacity, uniform fill within a
///     view's run (all but the run's last leaf equally packed), per-entry
///     compression round-trip (decode+re-encode is byte-identical), and —
///     when `view_arity` is provided — implicit-zero suppressed
///     coordinates;
///   - global pack order (x_max,...,x_1) over the sequential leaf scan,
///     single-view leaves, per-view contiguity, and point-count agreement
///     with the metadata page.
class RTreeChecker : public Checker {
 public:
  RTreeChecker(std::string path, CheckOptions options = {},
               std::function<uint8_t(uint32_t)> view_arity = nullptr);
  ~RTreeChecker() override;

  std::string name() const override { return "rtree"; }
  Status Run(CheckReport* report) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Validates a Cubetree forest (manifest + every tree file):
///   - manifest parses and references openable tree files;
///   - SelectMapping invariant: within one tree at most one view per
///     arity, and tree dimensionality equals its views' maximum arity;
///   - every view is placed in exactly one tree;
///   - per-view leaf runs are contiguous and belong to planned views;
///   - forest point totals agree with per-tree metadata;
///   - in deep mode, runs RTreeChecker over every main and delta tree.
class ForestChecker : public Checker {
 public:
  ForestChecker(std::string dir, std::string forest_name, BufferPool* pool,
                CheckOptions options = {});
  ~ForestChecker() override;

  std::string name() const override { return "forest"; }
  Status Run(CheckReport* report) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Reports buffer-pool pin leaks: any frame still pinned when the checker
/// runs (intended at shutdown, after all structures released their pages)
/// is a leaked PageHandle.
class BufferPoolChecker : public Checker {
 public:
  explicit BufferPoolChecker(const BufferPool* pool);
  ~BufferPoolChecker() override;

  std::string name() const override { return "bufferpool"; }
  Status Run(CheckReport* report) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cubetree

#endif  // CUBETREE_CHECK_CHECKERS_H_
