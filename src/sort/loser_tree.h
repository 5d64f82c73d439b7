#ifndef CUBETREE_SORT_LOSER_TREE_H_
#define CUBETREE_SORT_LOSER_TREE_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace cubetree {

/// Tournament (loser) tree for k-way merging. Players are identified by
/// index; the tree tracks which player currently holds the smallest key.
/// After the winner's stream advances (or is exhausted), Replay() restores
/// the invariant in O(log k) comparisons.
///
/// `less(a, b)` compares players a and b by their current records; the tree
/// itself treats exhausted players via the caller's comparator, which must
/// rank an exhausted player after every live player. `Less` is a callable
/// type, so each comparison is a direct, inlinable call.
template <typename Less>
class LoserTree {
 public:
  LoserTree(size_t num_players, Less less)
      : k_(num_players), less_(std::move(less)), losers_(k_, kNone) {
    // Play the initial tournament bottom-up. Nodes are numbered
    // heap-style: internal nodes 1..k-1, the leaf of player p at k+p.
    std::vector<size_t> winners(k_, kNone);
    const auto winner_of = [&](size_t node) {
      return node >= k_ ? node - k_ : winners[node];
    };
    for (size_t node = k_; node-- > 1;) {
      size_t w1 = winner_of(2 * node);
      size_t w2 = winner_of(2 * node + 1);
      if (Beats(w2, w1)) std::swap(w1, w2);
      winners[node] = w1;
      losers_[node] = w2;
    }
    winner_ = k_ > 0 ? winner_of(1) : kNone;
  }

  /// Index of the player holding the current minimum.
  size_t Winner() const { return winner_; }

  /// Re-runs the winner's path after its record changed.
  void Replay() {
    size_t winner = winner_;
    for (size_t node = (k_ + winner_) / 2; node >= 1; node /= 2) {
      if (Beats(losers_[node], winner)) {
        std::swap(losers_[node], winner);
      }
      if (node == 1) break;
    }
    winner_ = winner;
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  bool Beats(size_t a, size_t b) const {
    if (a == kNone) return false;
    if (b == kNone) return true;
    return less_(a, b);
  }

  size_t k_;
  Less less_;
  std::vector<size_t> losers_;  // Index 0 unused.
  size_t winner_ = kNone;
};

}  // namespace cubetree

#endif  // CUBETREE_SORT_LOSER_TREE_H_
