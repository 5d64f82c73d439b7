#include "cubetree/select_mapping.h"

#include <deque>
#include <set>
#include <string>

namespace cubetree {

ForestPlan SelectMapping(const std::vector<ViewDef>& views) {
  ForestPlan plan;
  if (views.empty()) return plan;

  uint8_t max_arity = 0;
  for (const ViewDef& v : views) max_arity = std::max(max_arity, v.arity());

  // Group views by arity, preserving input order within each class.
  std::vector<std::deque<uint32_t>> sets(static_cast<size_t>(max_arity) + 1);
  for (const ViewDef& v : views) sets[v.arity()].push_back(v.id);

  auto any_left = [&]() {
    for (const auto& s : sets) {
      if (!s.empty()) return true;
    }
    return false;
  };

  while (any_left()) {
    // The new tree's dimensionality is the max arity still unmapped.
    int arity = static_cast<int>(max_arity);
    while (arity >= 0 && sets[arity].empty()) --arity;
    ForestPlan::TreeSpec tree;
    tree.dims = static_cast<uint8_t>(std::max(arity, 1));
    // Take one view of each arity, highest first (including arity 0).
    for (int j = arity; j >= 0; --j) {
      if (!sets[j].empty()) {
        const uint32_t vid = sets[j].front();
        sets[j].pop_front();
        plan.view_to_tree[vid] = plan.trees.size();
        tree.view_ids.push_back(vid);
      }
    }
    plan.trees.push_back(std::move(tree));
  }
  return plan;
}

Status ValidatePlan(const ForestPlan& plan,
                    const std::vector<ViewDef>& views) {
  std::map<uint32_t, uint8_t> arity_of;
  for (const ViewDef& v : views) arity_of[v.id] = v.arity();
  std::map<uint32_t, size_t> placed;
  for (size_t t = 0; t < plan.trees.size(); ++t) {
    const ForestPlan::TreeSpec& spec = plan.trees[t];
    const std::string tree = "tree " + std::to_string(t);
    std::set<uint8_t> arities;
    uint8_t max_arity = 0;
    for (uint32_t vid : spec.view_ids) {
      const std::string view = "view " + std::to_string(vid);
      auto it = arity_of.find(vid);
      if (it == arity_of.end()) {
        return Status::InvalidArgument(tree + " holds undeclared " + view);
      }
      if (auto [at, inserted] = placed.emplace(vid, t); !inserted) {
        return Status::InvalidArgument(view + " is placed in trees " +
                                       std::to_string(at->second) + " and " +
                                       std::to_string(t));
      }
      if (!arities.insert(it->second).second) {
        return Status::InvalidArgument(tree + " holds two views of arity " +
                                       std::to_string(it->second));
      }
      max_arity = std::max(max_arity, it->second);
    }
    const uint8_t dims = std::max<uint8_t>(1, max_arity);
    if (spec.dims != dims || dims > kMaxDims) {
      return Status::InvalidArgument(
          tree + " has dims " + std::to_string(spec.dims) +
          ", its views need " + std::to_string(dims) + " (at most " +
          std::to_string(kMaxDims) + ")");
    }
  }
  for (const ViewDef& v : views) {
    if (placed.count(v.id) == 0) {
      return Status::InvalidArgument("view " + std::to_string(v.id) +
                                     " is placed in no tree");
    }
  }
  if (plan.view_to_tree != placed) {
    return Status::InvalidArgument(
        "the plan's view index disagrees with its trees");
  }
  return Status::OK();
}

}  // namespace cubetree
