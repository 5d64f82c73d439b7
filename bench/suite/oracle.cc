#include "bench/suite/oracle.h"

#include <map>
#include <unordered_map>

namespace cubetree {
namespace suite {

namespace {

constexpr int kKeyBits = 21;
constexpr Coord kKeyLimit = Coord{1} << kKeyBits;

}  // namespace

Status Oracle::AddLayer(FactProvider* facts) {
  CT_ASSIGN_OR_RETURN(auto source, facts->Open());
  std::unordered_map<uint64_t, AggValue> cells;
  const FactTuple* tuple = nullptr;
  while (true) {
    CT_RETURN_NOT_OK(source->Next(&tuple));
    if (tuple == nullptr) break;
    uint64_t key = 0;
    for (size_t a = 0; a < kAttrs; ++a) {
      if (tuple->attr_values[a] >= kKeyLimit) {
        return Status::InvalidArgument("oracle: attribute value out of range");
      }
      key = (key << kKeyBits) | tuple->attr_values[a];
    }
    cells[key].Merge(AggValue{tuple->measure, 1});
  }
  std::vector<Cell>& layer = layers_.emplace_back();
  layer.reserve(cells.size());
  for (const auto& [key, agg] : cells) {
    Cell cell;
    for (size_t a = 0; a < kAttrs; ++a) {
      cell.attr[kAttrs - 1 - a] =
          static_cast<Coord>((key >> (a * kKeyBits)) & (kKeyLimit - 1));
    }
    cell.agg = agg;
    layer.push_back(cell);
  }
  return Status::OK();
}

QueryResult Oracle::Answer(const SliceQuery& query, size_t layers) const {
  std::vector<std::pair<Coord, Coord>> intervals;
  for (size_t i = 0; i < query.attrs.size(); ++i) {
    intervals.push_back(query.AttrInterval(i));
  }
  std::map<std::vector<Coord>, AggValue> groups;
  std::vector<Coord> key;
  for (size_t l = 0; l < layers && l < layers_.size(); ++l) {
    for (const Cell& cell : layers_[l]) {
      bool match = true;
      for (size_t i = 0; i < query.attrs.size() && match; ++i) {
        const Coord v = cell.attr[query.attrs[i]];
        match = v >= intervals[i].first && v <= intervals[i].second;
      }
      if (!match) continue;
      key.clear();
      for (size_t i = 0; i < query.attrs.size(); ++i) {
        if (query.IsGrouped(i)) key.push_back(cell.attr[query.attrs[i]]);
      }
      groups[key].Merge(cell.agg);
    }
  }
  QueryResult result;
  for (size_t i = 0; i < query.attrs.size(); ++i) {
    if (query.IsGrouped(i)) result.group_attrs.push_back(query.attrs[i]);
  }
  for (auto& [group, agg] : groups) result.rows.push_back({group, agg});
  return result;
}

}  // namespace suite
}  // namespace cubetree
