#include "cubetree/merge_pack.h"

#include <cstring>

#include "cubetree/view_def.h"

namespace cubetree {

Status ViewStreamSource::CurrentView(std::optional<uint32_t>* view) {
  *view = index_ < streams_.size()
              ? std::optional<uint32_t>(streams_[index_].view)
              : std::nullopt;
  return Status::OK();
}

Status ViewStreamSource::NextSpan(uint8_t leaf_arity, const char** records,
                                  size_t* count) {
  *count = 0;
  if (index_ == streams_.size()) return Status::OK();
  const ViewStream& current = streams_[index_];
  const char* raw = nullptr;
  size_t n = 0;
  CT_RETURN_NOT_OK(current.stream->NextSpan(&raw, &n));
  if (n == 0) {
    ++index_;
    return Status::OK();
  }
  if (leaf_arity == current.arity) {
    *records = raw;
    *count = n;
    return Status::OK();
  }
  if (leaf_arity < current.arity) {
    return Status::InvalidArgument(
        "merge-pack: view " + std::to_string(current.view) + " of arity " +
        std::to_string(current.arity) + " cannot be stored at leaf arity " +
        std::to_string(leaf_arity));
  }
  const size_t key_bytes = current.arity * sizeof(Coord);
  const size_t zero_bytes = (leaf_arity - current.arity) * sizeof(Coord);
  const size_t in_bytes = ViewRecordBytes(current.arity);
  const size_t out_bytes = ViewRecordBytes(leaf_arity);
  widened_.resize(n * out_bytes);
  for (size_t i = 0; i < n; ++i) {
    const char* src = raw + i * in_bytes;
    char* dst = widened_.data() + i * out_bytes;
    std::memcpy(dst, src, key_bytes);
    std::memset(dst + key_bytes, 0, zero_bytes);
    std::memcpy(dst + key_bytes + zero_bytes, src + key_bytes,
                kAggValueBytes);
  }
  *records = widened_.data();
  *count = n;
  return Status::OK();
}

Result<std::unique_ptr<PackedRTree>> MergePack(
    PackedRTree* old_tree, PointSource* delta, const std::string& out_path,
    const RTreeOptions& options, BufferPool* pool,
    const ViewArityFn& view_arity, std::shared_ptr<IoStats> io_stats) {
  PointRunSource delta_input(delta, options.dims);
  std::vector<ViewRunSource*> inputs;
  std::optional<PackedRTree::LeafRunSource> old_input;
  if (old_tree != nullptr) {
    old_input.emplace(old_tree, view_arity);
    inputs.push_back(&*old_input);
  }
  inputs.push_back(&delta_input);
  return PackedRTree::Build(out_path, options, pool, inputs, view_arity,
                            std::move(io_stats));
}

}  // namespace cubetree
