#include "btree/btree.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "common/coding.h"

namespace cubetree {

namespace {

// Node header (8 bytes):
//   [0]    uint8  is_leaf
//   [1]    uint8  reserved
//   [2..3] uint16 entry count
//   [4..7] PageId next_leaf (leaves) / leftmost child (internal nodes)
//
// Meta page (page 0):
//   [0..3]   magic "CTBT"
//   [4]      uint8  key_parts
//   [8..11]  uint32 value_size
//   [12..15] PageId root
//   [16..19] uint32 height (1 = root is a leaf)
//   [20..27] uint64 num_entries
constexpr size_t kNodeHeaderSize = 8;
constexpr uint32_t kMetaMagic = 0x43544254;  // "CTBT"

bool NodeIsLeaf(const char* page) { return page[0] != 0; }
void SetNodeIsLeaf(char* page, bool leaf) { page[0] = leaf ? 1 : 0; }
uint16_t NodeCount(const char* page) {
  uint16_t v;
  std::memcpy(&v, page + 2, sizeof(v));
  return v;
}
void SetNodeCount(char* page, uint16_t count) {
  std::memcpy(page + 2, &count, sizeof(count));
}
PageId NodeLink(const char* page) { return DecodeFixed32(page + 4); }
void SetNodeLink(char* page, PageId link) { EncodeFixed32(page + 4, link); }

}  // namespace

BPlusTree::BPlusTree(std::unique_ptr<PageManager> file, BTreeOptions options,
                     BufferPool* pool)
    : file_(std::move(file)), options_(options), pool_(pool) {}

BPlusTree::~BPlusTree() {
  if (pool_ != nullptr) (void)pool_->DropFile(file_.get());
}

Result<std::unique_ptr<BPlusTree>> BPlusTree::Create(
    const std::string& path, const BTreeOptions& options, BufferPool* pool,
    std::shared_ptr<IoStats> io_stats) {
  if (options.key_parts == 0 || options.key_parts > kMaxBTreeKeyParts) {
    return Status::InvalidArgument("btree: key_parts out of range");
  }
  CT_RETURN_NOT_OK(RemoveFileIfExists(path));
  CT_ASSIGN_OR_RETURN(auto file,
                      PageManager::Create(path, std::move(io_stats)));
  auto tree = std::unique_ptr<BPlusTree>(
      new BPlusTree(std::move(file), options, pool));
  // Page 0: metadata. Page 1: initial (empty) root leaf.
  CT_ASSIGN_OR_RETURN(PageHandle meta, pool->New(tree->file_.get()));
  meta.Release();
  CT_ASSIGN_OR_RETURN(PageHandle root, pool->New(tree->file_.get()));
  SetNodeIsLeaf(root.data(), true);
  SetNodeCount(root.data(), 0);
  SetNodeLink(root.data(), kInvalidPageId);
  root.MarkDirty();
  tree->root_ = root.id();
  tree->height_ = 1;
  CT_RETURN_NOT_OK(tree->WriteMeta());
  return tree;
}

uint16_t BPlusTree::LeafCapacity() const {
  return static_cast<uint16_t>((kPageSize - kNodeHeaderSize) /
                               LeafEntryBytes());
}

uint16_t BPlusTree::InternalCapacity() const {
  return static_cast<uint16_t>((kPageSize - kNodeHeaderSize) /
                               InternalEntryBytes());
}

int BPlusTree::CompareKeys(const uint32_t* a, const uint32_t* b) const {
  for (size_t i = 0; i < options_.key_parts; ++i) {
    if (a[i] < b[i]) return -1;
    if (a[i] > b[i]) return 1;
  }
  return 0;
}

namespace {

/// Reads the key stored at a raw entry pointer into an aligned buffer.
inline void LoadKey(const char* entry, uint32_t* out, size_t parts) {
  std::memcpy(out, entry, parts * sizeof(uint32_t));
}

}  // namespace

Status BPlusTree::WriteMeta() {
  CT_ASSIGN_OR_RETURN(PageHandle meta, pool_->Fetch(file_.get(), 0));
  char* page = meta.data();
  EncodeFixed32(page, kMetaMagic);
  page[4] = static_cast<char>(options_.key_parts);
  EncodeFixed32(page + 8, options_.value_size);
  EncodeFixed32(page + 12, root_);
  EncodeFixed32(page + 16, height_);
  EncodeFixed64(page + 20, num_entries_);
  meta.MarkDirty();
  return Status::OK();
}

Result<PageId> BPlusTree::FindLeaf(const uint32_t* key) {
  PageId node = root_;
  uint32_t key_buf[kMaxBTreeKeyParts];
  while (true) {
    CT_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(file_.get(), node));
    const char* page = handle.data();
    if (NodeIsLeaf(page)) return node;
    const uint16_t count = NodeCount(page);
    // Children: [link, c1..c_count]; keys k1..k_count. Route to the last
    // child whose key is <= search key.
    PageId child = NodeLink(page);
    // Binary search for the last key <= search key.
    size_t lo = 0, hi = count;  // Invariant: keys[0..lo) <= key.
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      const char* entry = page + kNodeHeaderSize + mid * InternalEntryBytes();
      LoadKey(entry, key_buf, options_.key_parts);
      if (CompareKeys(key_buf, key) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo > 0) {
      const char* entry =
          page + kNodeHeaderSize + (lo - 1) * InternalEntryBytes();
      child = DecodeFixed32(entry + KeyBytes());
    }
    node = child;
  }
}

Status BPlusTree::InsertRecursive(PageId node_id, const uint32_t* key,
                                  const char* value,
                                  std::optional<SplitResult>* split) {
  CT_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(file_.get(), node_id));
  char* page = handle.data();
  uint32_t key_buf[kMaxBTreeKeyParts];

  if (NodeIsLeaf(page)) {
    const uint16_t count = NodeCount(page);
    CT_DCHECK(count <= LeafCapacity())
        << "corrupt leaf count in " << file_->path();
    const size_t entry_bytes = LeafEntryBytes();
    // Lower bound position for the new key.
    size_t lo = 0, hi = count;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      LoadKey(page + kNodeHeaderSize + mid * entry_bytes, key_buf,
              options_.key_parts);
      if (CompareKeys(key_buf, key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < count) {
      LoadKey(page + kNodeHeaderSize + lo * entry_bytes, key_buf,
              options_.key_parts);
      if (CompareKeys(key_buf, key) == 0) {
        return Status::AlreadyExists("btree: duplicate key");
      }
    }
    if (count < LeafCapacity()) {
      char* base = page + kNodeHeaderSize;
      std::memmove(base + (lo + 1) * entry_bytes, base + lo * entry_bytes,
                   (count - lo) * entry_bytes);
      std::memcpy(base + lo * entry_bytes, key, KeyBytes());
      std::memcpy(base + lo * entry_bytes + KeyBytes(), value,
                  options_.value_size);
      SetNodeCount(page, count + 1);
      handle.MarkDirty();
      return Status::OK();
    }
    // Split: assemble all count+1 entries, distribute half and half.
    std::vector<char> all(static_cast<size_t>(count + 1) * entry_bytes);
    char* base = page + kNodeHeaderSize;
    std::memcpy(all.data(), base, lo * entry_bytes);
    std::memcpy(all.data() + lo * entry_bytes, key, KeyBytes());
    std::memcpy(all.data() + lo * entry_bytes + KeyBytes(), value,
                options_.value_size);
    std::memcpy(all.data() + (lo + 1) * entry_bytes, base + lo * entry_bytes,
                (count - lo) * entry_bytes);
    const size_t total = count + 1;
    const size_t left = total / 2;
    const size_t right = total - left;

    CT_ASSIGN_OR_RETURN(PageHandle new_handle, pool_->New(file_.get()));
    char* new_page = new_handle.data();
    SetNodeIsLeaf(new_page, true);
    SetNodeCount(new_page, static_cast<uint16_t>(right));
    SetNodeLink(new_page, NodeLink(page));
    std::memcpy(new_page + kNodeHeaderSize, all.data() + left * entry_bytes,
                right * entry_bytes);
    new_handle.MarkDirty();

    SetNodeCount(page, static_cast<uint16_t>(left));
    SetNodeLink(page, new_handle.id());
    std::memcpy(base, all.data(), left * entry_bytes);
    handle.MarkDirty();

    SplitResult result;
    result.new_page = new_handle.id();
    result.separator.resize(options_.key_parts);
    LoadKey(all.data() + left * entry_bytes, result.separator.data(),
            options_.key_parts);
    *split = std::move(result);
    return Status::OK();
  }

  // Internal node: find child, recurse, absorb any child split.
  const uint16_t count = NodeCount(page);
  const size_t entry_bytes = InternalEntryBytes();
  size_t lo = 0, hi = count;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    LoadKey(page + kNodeHeaderSize + mid * entry_bytes, key_buf,
            options_.key_parts);
    if (CompareKeys(key_buf, key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  PageId child = NodeLink(page);
  if (lo > 0) {
    child = DecodeFixed32(page + kNodeHeaderSize + (lo - 1) * entry_bytes +
                          KeyBytes());
  }
  // Release before recursing so deep trees do not pin a frame per level
  // beyond what the recursion needs; re-fetch after.
  handle.Release();

  std::optional<SplitResult> child_split;
  CT_RETURN_NOT_OK(InsertRecursive(child, key, value, &child_split));
  if (!child_split.has_value()) return Status::OK();

  CT_ASSIGN_OR_RETURN(handle, pool_->Fetch(file_.get(), node_id));
  page = handle.data();
  const uint16_t cur_count = NodeCount(page);
  // Insert (separator, new_page) at position `lo` (unchanged by the child
  // split: the separator belongs exactly where we descended).
  if (cur_count < InternalCapacity()) {
    char* base = page + kNodeHeaderSize;
    std::memmove(base + (lo + 1) * entry_bytes, base + lo * entry_bytes,
                 (cur_count - lo) * entry_bytes);
    std::memcpy(base + lo * entry_bytes, child_split->separator.data(),
                KeyBytes());
    EncodeFixed32(base + lo * entry_bytes + KeyBytes(),
                  child_split->new_page);
    SetNodeCount(page, cur_count + 1);
    handle.MarkDirty();
    return Status::OK();
  }
  // Internal split with key promotion.
  std::vector<char> all(static_cast<size_t>(cur_count + 1) * entry_bytes);
  char* base = page + kNodeHeaderSize;
  std::memcpy(all.data(), base, lo * entry_bytes);
  std::memcpy(all.data() + lo * entry_bytes, child_split->separator.data(),
              KeyBytes());
  EncodeFixed32(all.data() + lo * entry_bytes + KeyBytes(),
                child_split->new_page);
  std::memcpy(all.data() + (lo + 1) * entry_bytes, base + lo * entry_bytes,
              (cur_count - lo) * entry_bytes);
  const size_t total = cur_count + 1;
  const size_t mid = total / 2;  // Entry `mid` promotes.

  CT_ASSIGN_OR_RETURN(PageHandle new_handle, pool_->New(file_.get()));
  char* new_page = new_handle.data();
  SetNodeIsLeaf(new_page, false);
  const size_t right = total - mid - 1;
  SetNodeCount(new_page, static_cast<uint16_t>(right));
  // New node's leftmost child = promoted entry's child pointer.
  SetNodeLink(new_page,
              DecodeFixed32(all.data() + mid * entry_bytes + KeyBytes()));
  std::memcpy(new_page + kNodeHeaderSize,
              all.data() + (mid + 1) * entry_bytes, right * entry_bytes);
  new_handle.MarkDirty();

  SetNodeCount(page, static_cast<uint16_t>(mid));
  std::memcpy(base, all.data(), mid * entry_bytes);
  handle.MarkDirty();

  SplitResult result;
  result.new_page = new_handle.id();
  result.separator.resize(options_.key_parts);
  LoadKey(all.data() + mid * entry_bytes, result.separator.data(),
          options_.key_parts);
  *split = std::move(result);
  return Status::OK();
}

Status BPlusTree::Insert(const uint32_t* key, const char* value) {
  std::optional<SplitResult> split;
  CT_RETURN_NOT_OK(InsertRecursive(root_, key, value, &split));
  ++num_entries_;
  if (split.has_value()) {
    CT_ASSIGN_OR_RETURN(PageHandle new_root, pool_->New(file_.get()));
    char* page = new_root.data();
    SetNodeIsLeaf(page, false);
    SetNodeCount(page, 1);
    SetNodeLink(page, root_);
    char* entry = page + kNodeHeaderSize;
    std::memcpy(entry, split->separator.data(), KeyBytes());
    EncodeFixed32(entry + KeyBytes(), split->new_page);
    new_root.MarkDirty();
    root_ = new_root.id();
    ++height_;
  }
  return Status::OK();
}

Result<bool> BPlusTree::Lookup(const uint32_t* key, char* value_out) {
  CT_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key));
  CT_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(file_.get(), leaf_id));
  const char* page = handle.data();
  const uint16_t count = NodeCount(page);
  const size_t entry_bytes = LeafEntryBytes();
  uint32_t key_buf[kMaxBTreeKeyParts];
  size_t lo = 0, hi = count;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    LoadKey(page + kNodeHeaderSize + mid * entry_bytes, key_buf,
            options_.key_parts);
    if (CompareKeys(key_buf, key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= count) return false;
  LoadKey(page + kNodeHeaderSize + lo * entry_bytes, key_buf,
          options_.key_parts);
  if (CompareKeys(key_buf, key) != 0) return false;
  if (value_out != nullptr) {
    std::memcpy(value_out,
                page + kNodeHeaderSize + lo * entry_bytes + KeyBytes(),
                options_.value_size);
  }
  return true;
}

Status BPlusTree::Update(const uint32_t* key, const char* value) {
  CT_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(key));
  CT_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(file_.get(), leaf_id));
  char* page = handle.data();
  const uint16_t count = NodeCount(page);
  const size_t entry_bytes = LeafEntryBytes();
  uint32_t key_buf[kMaxBTreeKeyParts];
  size_t lo = 0, hi = count;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    LoadKey(page + kNodeHeaderSize + mid * entry_bytes, key_buf,
            options_.key_parts);
    if (CompareKeys(key_buf, key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < count) {
    LoadKey(page + kNodeHeaderSize + lo * entry_bytes, key_buf,
            options_.key_parts);
    if (CompareKeys(key_buf, key) == 0) {
      std::memcpy(page + kNodeHeaderSize + lo * entry_bytes + KeyBytes(),
                  value, options_.value_size);
      handle.MarkDirty();
      return Status::OK();
    }
  }
  return Status::NotFound("btree: key not present");
}

Status BPlusTree::BulkBuild(EntrySource* source, double fill) {
  if (num_entries_ != 0) {
    return Status::InvalidArgument("btree: BulkBuild requires empty tree");
  }
  fill = std::clamp(fill, 0.1, 1.0);
  const uint16_t leaf_target = std::max<uint16_t>(
      1, static_cast<uint16_t>(LeafCapacity() * fill));
  const uint16_t internal_target = std::max<uint16_t>(
      1, static_cast<uint16_t>(InternalCapacity() * fill));

  struct LevelEntry {
    std::vector<uint32_t> first_key;
    PageId page;
  };
  std::vector<LevelEntry> level;

  // Build the leaf level: pack entries in order.
  const size_t entry_bytes = LeafEntryBytes();
  PageHandle leaf;
  PageId prev_leaf = kInvalidPageId;
  uint16_t in_leaf = 0;
  uint64_t total = 0;
  uint32_t prev_key[kMaxBTreeKeyParts];
  bool have_prev = false;
  while (true) {
    const uint32_t* key = nullptr;
    const char* value = nullptr;
    CT_RETURN_NOT_OK(source->Next(&key, &value));
    if (key == nullptr) break;
    if (have_prev && CompareKeys(prev_key, key) >= 0) {
      return Status::InvalidArgument(
          "btree: BulkBuild input not strictly ascending");
    }
    std::memcpy(prev_key, key, KeyBytes());
    have_prev = true;
    if (!leaf.valid() || in_leaf == leaf_target) {
      if (leaf.valid()) {
        SetNodeCount(leaf.data(), in_leaf);
        prev_leaf = leaf.id();
        leaf.Release();
      }
      CT_ASSIGN_OR_RETURN(leaf, pool_->New(file_.get()));
      SetNodeIsLeaf(leaf.data(), true);
      SetNodeLink(leaf.data(), kInvalidPageId);
      leaf.MarkDirty();
      if (prev_leaf != kInvalidPageId) {
        CT_ASSIGN_OR_RETURN(PageHandle prev,
                            pool_->Fetch(file_.get(), prev_leaf));
        SetNodeLink(prev.data(), leaf.id());
        prev.MarkDirty();
      }
      in_leaf = 0;
      level.push_back(LevelEntry{
          std::vector<uint32_t>(key, key + options_.key_parts), leaf.id()});
    }
    char* dest = leaf.data() + kNodeHeaderSize +
                 static_cast<size_t>(in_leaf) * entry_bytes;
    std::memcpy(dest, key, KeyBytes());
    std::memcpy(dest + KeyBytes(), value, options_.value_size);
    ++in_leaf;
    ++total;
  }
  if (leaf.valid()) {
    SetNodeCount(leaf.data(), in_leaf);
    leaf.Release();
  }
  if (level.empty()) {
    num_entries_ = 0;
    return WriteMeta();
  }
  num_entries_ = total;
  height_ = 1;

  // Build internal levels until a single root remains.
  const size_t ientry_bytes = InternalEntryBytes();
  while (level.size() > 1) {
    std::vector<LevelEntry> next_level;
    size_t i = 0;
    while (i < level.size()) {
      // One node takes up to internal_target+1 children.
      const size_t children =
          std::min<size_t>(static_cast<size_t>(internal_target) + 1,
                           level.size() - i);
      CT_ASSIGN_OR_RETURN(PageHandle node, pool_->New(file_.get()));
      char* page = node.data();
      SetNodeIsLeaf(page, false);
      SetNodeLink(page, level[i].page);
      SetNodeCount(page, static_cast<uint16_t>(children - 1));
      for (size_t c = 1; c < children; ++c) {
        char* entry = page + kNodeHeaderSize + (c - 1) * ientry_bytes;
        std::memcpy(entry, level[i + c].first_key.data(), KeyBytes());
        EncodeFixed32(entry + KeyBytes(), level[i + c].page);
      }
      node.MarkDirty();
      next_level.push_back(LevelEntry{level[i].first_key, node.id()});
      i += children;
    }
    level.swap(next_level);
    ++height_;
  }
  root_ = level[0].page;
  return WriteMeta();
}

BPlusTree::Iterator BPlusTree::Scan(const uint32_t* low,
                                    const uint32_t* high) {
  return Iterator(this,
                  std::vector<uint32_t>(low, low + options_.key_parts),
                  std::vector<uint32_t>(high, high + options_.key_parts));
}

Status BPlusTree::Iterator::Next(const uint32_t** key, const char** value) {
  const size_t parts = tree_->options_.key_parts;
  const size_t entry_bytes = tree_->LeafEntryBytes();
  if (done_) {
    *key = nullptr;
    *value = nullptr;
    return Status::OK();
  }
  if (!primed_) {
    CT_ASSIGN_OR_RETURN(PageId leaf_id, tree_->FindLeaf(low_.data()));
    CT_ASSIGN_OR_RETURN(handle_,
                        tree_->pool_->Fetch(tree_->file_.get(), leaf_id));
    // Lower-bound within the leaf.
    const char* page = handle_.data();
    const uint16_t count = NodeCount(page);
    uint32_t key_buf[kMaxBTreeKeyParts];
    size_t lo = 0, hi = count;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      LoadKey(page + kNodeHeaderSize + mid * entry_bytes, key_buf, parts);
      if (tree_->CompareKeys(key_buf, low_.data()) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    slot_ = static_cast<uint16_t>(lo);
    key_buf_.resize(parts);
    value_buf_.resize(tree_->options_.value_size);
    primed_ = true;
  }
  while (true) {
    const char* page = handle_.data();
    const uint16_t count = NodeCount(page);
    if (slot_ < count) {
      const char* entry = page + kNodeHeaderSize + slot_ * entry_bytes;
      LoadKey(entry, key_buf_.data(), parts);
      if (tree_->CompareKeys(key_buf_.data(), high_.data()) > 0) {
        done_ = true;
        handle_.Release();
        *key = nullptr;
        *value = nullptr;
        return Status::OK();
      }
      std::memcpy(value_buf_.data(), entry + tree_->KeyBytes(),
                  tree_->options_.value_size);
      ++slot_;
      *key = key_buf_.data();
      *value = value_buf_.data();
      return Status::OK();
    }
    const PageId next = NodeLink(page);
    handle_.Release();
    if (next == kInvalidPageId) {
      done_ = true;
      *key = nullptr;
      *value = nullptr;
      return Status::OK();
    }
    CT_ASSIGN_OR_RETURN(handle_, tree_->pool_->Fetch(tree_->file_.get(), next));
    slot_ = 0;
  }
}

Status BPlusTree::Flush() {
  CT_RETURN_NOT_OK(WriteMeta());
  return pool_->FlushAll();
}

}  // namespace cubetree
