// Deterministic pseudo-random number generation.
//
// All randomness in the library (graph generators, prediction perturbation,
// Luby's algorithm) flows through Rng so that every test and benchmark is
// reproducible from a seed. The engine never uses randomness itself; the
// simulated algorithms are deterministic unless a program explicitly draws
// from an Rng it owns.
#pragma once

#include <cstdint>
#include <vector>

#include "common/require.hpp"

namespace dgap {

/// xoshiro256** — small, fast, and good enough for simulation workloads.
/// Not cryptographic. Seeded via splitmix64 so that nearby seeds give
/// unrelated streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) using rejection sampling (bound >= 1):
  /// a draw is rejected when it is at or above the largest multiple of
  /// `bound` that fits, limit = 2^64 - 1 - (2^64 - 1) % bound, to avoid
  /// modulo bias. Since limit >= 2^64 - bound, any draw below 2^64 - bound
  /// is accepted without computing the limit; only the rest pay for it.
  /// Inline so hot loops such as shuffle() make no call per draw.
  std::uint64_t next_below(std::uint64_t bound) {
    DGAP_REQUIRE(bound >= 1, "next_below needs bound >= 1");
    std::uint64_t x = next();
    if (x < 0 - bound) return x % bound;
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
    while (x >= limit) x = next();
    return x % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli draw.
  bool flip(double p);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child stream (for per-component / per-node use).
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace dgap
