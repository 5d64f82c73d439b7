#ifndef CUBETREE_COMMON_RNG_H_
#define CUBETREE_COMMON_RNG_H_

#include <cstdint>

namespace cubetree {

/// Deterministic xoshiro256** pseudo-random generator. Every workload
/// generator and query generator in the repository draws from this so that
/// experiments are reproducible from a seed, independent of the platform's
/// std::mt19937 implementation details.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds the generator; a SplitMix64 pass expands the single seed word
  /// into the four state words, as recommended by the xoshiro authors.
  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }

  /// Uniform integer in [lo, hi] inclusive.
  uint64_t UniformRange(uint64_t lo, uint64_t hi) {
    return lo + Uniform(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace cubetree

#endif  // CUBETREE_COMMON_RNG_H_
