#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "common/math_util.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"

namespace dgap {
namespace {

TEST(MathUtil, IsPrime) {
  EXPECT_FALSE(is_prime(0));
  EXPECT_FALSE(is_prime(1));
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(5));
  EXPECT_FALSE(is_prime(91));  // 7 * 13
  EXPECT_TRUE(is_prime(97));
  EXPECT_TRUE(is_prime(7919));
  EXPECT_FALSE(is_prime(7917));
}

TEST(MathUtil, NextPrime) {
  EXPECT_EQ(next_prime(0), 2);
  EXPECT_EQ(next_prime(2), 2);
  EXPECT_EQ(next_prime(3), 3);
  EXPECT_EQ(next_prime(4), 5);
  EXPECT_EQ(next_prime(14), 17);
  EXPECT_EQ(next_prime(90), 97);
}

TEST(MathUtil, NextPrimeIsAlwaysPrimeAndMinimal) {
  for (std::int64_t x = 2; x <= 500; ++x) {
    const std::int64_t p = next_prime(x);
    EXPECT_TRUE(is_prime(p));
    EXPECT_GE(p, x);
    for (std::int64_t y = x; y < p; ++y) EXPECT_FALSE(is_prime(y));
  }
}

TEST(MathUtil, Ilog2) {
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(2), 1);
  EXPECT_EQ(ilog2(3), 1);
  EXPECT_EQ(ilog2(4), 2);
  EXPECT_EQ(ilog2(1023), 9);
  EXPECT_EQ(ilog2(1024), 10);
}

TEST(MathUtil, LogStar) {
  EXPECT_EQ(log_star(1), 0);
  EXPECT_EQ(log_star(2), 1);
  EXPECT_EQ(log_star(4), 2);
  EXPECT_EQ(log_star(16), 3);
  EXPECT_EQ(log_star(65536), 4);
  // 2^62 → 62 → 5 → 2 → 1: four applications.
  EXPECT_EQ(log_star(1LL << 62), 4);
}

TEST(MathUtil, IpowSaturates) {
  EXPECT_EQ(ipow_sat(2, 10), 1024);
  EXPECT_EQ(ipow_sat(10, 0), 1);
  EXPECT_EQ(ipow_sat(0, 5), 0);
  EXPECT_EQ(ipow_sat(2, 100), std::numeric_limits<std::int64_t>::max());
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 7), 0);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t x = rng.uniform(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

// next_below accepts draws below 2^64 - bound without computing the
// rejection limit. Every instance generator depends on its exact output,
// so it must match the two-division formula draw for draw: on small
// bounds, on bounds that reject about half of all draws (2^63 + 1), on
// one that almost never takes the shortcut (2^64 - 1), and on random ones.
TEST(Rng, NextBelowMatchesTwoDivisionFormula) {
  std::int64_t rejections = 0;
  const auto reference = [&rejections](Rng& rng, std::uint64_t bound) {
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t limit = max - max % bound;
    std::uint64_t x = rng.next();
    while (x >= limit) {
      ++rejections;
      x = rng.next();
    }
    return x % bound;
  };
  const std::uint64_t two32 = std::uint64_t{1} << 32;
  const std::uint64_t two63 = std::uint64_t{1} << 63;
  std::vector<std::uint64_t> bounds = {
      1, 2, 3, two32 - 1, two32 + 1, two63, two63 + 1,
      std::numeric_limits<std::uint64_t>::max()};
  Rng pick(99);
  for (int i = 0; i < 24; ++i) {
    // Random magnitudes from 1 bit to 64 bits.
    const std::uint64_t b = pick.next() >> (pick.next() % 64);
    bounds.push_back(std::max<std::uint64_t>(b, 1));
  }
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (const std::uint64_t bound : bounds) {
      Rng fast(seed), slow(seed);
      int mismatches = 0;
      for (int i = 0; i < 2000; ++i) {
        mismatches += fast.next_below(bound) != reference(slow, bound) ? 1 : 0;
      }
      EXPECT_EQ(mismatches, 0) << "seed " << seed << " bound " << bound;
      EXPECT_EQ(fast.next(), slow.next()) << "stream position, bound " << bound;
    }
  }
  EXPECT_GT(rejections, 1000);  // the slow path ran, not only the shortcut
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == child.next()) ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(Require, RequireThrowsInvalidArgument) {
  EXPECT_THROW(DGAP_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(DGAP_REQUIRE(true, "fine"));
}

TEST(Require, AssertThrowsLogicError) {
  EXPECT_THROW(DGAP_ASSERT(false, "boom"), std::logic_error);
  EXPECT_NO_THROW(DGAP_ASSERT(true, "fine"));
}

}  // namespace
}  // namespace dgap
