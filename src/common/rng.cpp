#include "common/rng.hpp"

#include "common/require.hpp"

namespace dgap {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  DGAP_REQUIRE(lo <= hi, "uniform needs lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::flip(double p) { return uniform01() < p; }

Rng Rng::fork() { return Rng(next()); }

}  // namespace dgap
