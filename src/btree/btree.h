#ifndef CUBETREE_BTREE_BTREE_H_
#define CUBETREE_BTREE_BTREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_manager.h"

namespace cubetree {

/// Maximum number of uint32 components in a composite key.
inline constexpr size_t kMaxBTreeKeyParts = 8;

/// Configuration of one B+-tree file.
struct BTreeOptions {
  /// Number of uint32 components per key (1..kMaxBTreeKeyParts).
  uint8_t key_parts = 1;
  /// Fixed payload bytes stored with each leaf entry.
  uint32_t value_size = 8;
};

/// Disk-based B+-tree over composite little-endian uint32 keys, compared
/// lexicographically component by component. This is the secondary/covering
/// index of the paper's conventional configuration: entries are inserted one
/// at a time (random I/O through the buffer pool), or bottom-up bulk-built
/// from a sorted stream as a fair stand-in for CREATE INDEX.
///
/// Page 0 is a metadata page; leaves are chained left-to-right for range
/// scans.
class BPlusTree {
 public:
  static Result<std::unique_ptr<BPlusTree>> Create(
      const std::string& path, const BTreeOptions& options, BufferPool* pool,
      std::shared_ptr<IoStats> io_stats = nullptr);

  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Inserts (key, value). Fails with AlreadyExists if the key is present.
  Status Insert(const uint32_t* key, const char* value);

  /// Looks up `key`; if found copies value_size bytes into `value_out` (may
  /// be null to test existence only) and returns true.
  Result<bool> Lookup(const uint32_t* key, char* value_out);

  /// Overwrites the value of an existing key; NotFound if absent.
  Status Update(const uint32_t* key, const char* value);

  /// Bottom-up bulk build from entries in strictly ascending key order,
  /// filling leaves to `fill` fraction (1.0 = packed). The tree must be
  /// empty. Each call to `next` yields pointers to the key parts and the
  /// value, or sets them to null at end.
  class EntrySource {
   public:
    virtual ~EntrySource() = default;
    virtual Status Next(const uint32_t** key, const char** value) = 0;
  };
  Status BulkBuild(EntrySource* source, double fill = 1.0);

  /// In-order iterator over keys in [low, high] (inclusive, lexicographic).
  class Iterator {
   public:
    /// Sets *key/*value to the next entry or both to nullptr at end.
    Status Next(const uint32_t** key, const char** value);

   private:
    friend class BPlusTree;
    Iterator(BPlusTree* tree, std::vector<uint32_t> low,
             std::vector<uint32_t> high)
        : tree_(tree), low_(std::move(low)), high_(std::move(high)) {}

    BPlusTree* tree_;
    std::vector<uint32_t> low_;
    std::vector<uint32_t> high_;
    PageHandle handle_;
    uint16_t slot_ = 0;
    bool primed_ = false;
    bool done_ = false;
    std::vector<uint32_t> key_buf_;
    std::vector<char> value_buf_;
  };

  Iterator Scan(const uint32_t* low, const uint32_t* high);

  /// Flushes pool pages and the metadata page.
  Status Flush();

  uint64_t num_entries() const { return num_entries_; }
  uint32_t height() const { return height_; }
  uint64_t FileSizeBytes() const { return file_->FileSizeBytes(); }
  const BTreeOptions& options() const { return options_; }
  PageManager* file() { return file_.get(); }

 private:
  struct SplitResult {
    std::vector<uint32_t> separator;  // First key routed to the new page.
    PageId new_page = kInvalidPageId;
  };

  BPlusTree(std::unique_ptr<PageManager> file, BTreeOptions options,
            BufferPool* pool);

  size_t KeyBytes() const { return options_.key_parts * sizeof(uint32_t); }
  size_t LeafEntryBytes() const { return KeyBytes() + options_.value_size; }
  size_t InternalEntryBytes() const { return KeyBytes() + sizeof(PageId); }
  uint16_t LeafCapacity() const;
  uint16_t InternalCapacity() const;

  int CompareKeys(const uint32_t* a, const uint32_t* b) const;

  Status InsertRecursive(PageId node, const uint32_t* key, const char* value,
                         std::optional<SplitResult>* split);
  Status WriteMeta();

  /// Descends to the leaf that would contain `key`; returns its page id.
  Result<PageId> FindLeaf(const uint32_t* key);

  std::unique_ptr<PageManager> file_;
  BTreeOptions options_;
  BufferPool* pool_;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;  // 1 = root is a leaf.
  uint64_t num_entries_ = 0;
};

}  // namespace cubetree

#endif  // CUBETREE_BTREE_BTREE_H_
