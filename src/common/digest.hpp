// Digests: the two hashers of dgap. Every digest and checksum in src goes
// through this header, and which hasher a value uses follows one rule.
//
// * Byte-exact FNV-1a (fnv1a_bytes, fnv1a_both, Fnv1a) for every value
//   that leaves the process or is pinned: written to a file, committed,
//   pinned by a test or by CI, or compared across commits. These values
//   must never change:
//     - the transcript round and whole-file checksums and the
//       epoch-sequence ("DGEP") trailer;
//     - result_checksum, results_checksum, epoch_report_checksum and
//       fnv1a_bytes (the determinism witnesses benches and CI compare);
//     - predictions_digest (WarmStart.TranslationsUnchanged pins it).
//   The offset basis is 1469598103934665603, the value every pinned
//   checksum was recorded with (the textbook basis has one more digit).
//
// * WordDigest for values that never leave the process: graph_digest,
//   spec_digest, options_digest, result_cache_key, provider_slot_digest,
//   every PredictionProvider::digest() and the ResultCache poisoning
//   guard. FNV-1a spends eight dependent multiplies on a 64-bit word;
//   WordDigest spends one multiply-rotate round (the xxHash64 accumulator
//   round), then mixes in the length and avalanches. Its values are
//   deterministic within one build, not pinned: never write one to a file
//   or compare it across builds.
//
// Both hashers take 64-bit words through word(), so one field walker can
// feed either (sim/result_cache.cpp walks RunResult once for
// result_checksum and for the guard).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ranges>
#include <span>
#include <type_traits>

namespace dgap {

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over `bytes`, continuing from state `h`.
inline std::uint64_t fnv1a_bytes(std::span<const std::uint8_t> bytes,
                                 std::uint64_t h = kFnvBasis) {
  for (const std::uint8_t b : bytes) h = (h ^ b) * kFnvPrime;
  return h;
}

/// Advances two FNV-1a states over the same bytes in one pass. The two
/// multiply chains are independent, so this costs about as much as one.
inline void fnv1a_both(std::span<const std::uint8_t> bytes, std::uint64_t& a,
                       std::uint64_t& b) {
  std::uint64_t x = a;
  std::uint64_t y = b;
  for (const std::uint8_t c : bytes) {
    x = (x ^ c) * kFnvPrime;
    y = (y ^ c) * kFnvPrime;
  }
  a = x;
  b = y;
}

/// Byte-exact FNV-1a with a word front end: word(v) hashes the eight
/// little-endian bytes of v.
class Fnv1a {
 public:
  void word(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ = (h_ ^ ((v >> (8 * byte)) & 0xffULL)) * kFnvPrime;
    }
  }
  void bytes(std::span<const std::uint8_t> bytes) {
    h_ = fnv1a_bytes(bytes, h_);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnvBasis;
};

/// Word-wide in-process digest: one xxHash64 accumulator round per 64-bit
/// word. Each round is a bijection of the word and of the state, so inputs
/// of equal length that differ in one word always digest differently; the
/// rotate keeps a top-bit difference from cancelling against the next
/// word's, which plain xor-then-multiply would let happen. `domain`
/// separates digests of different kinds of value.
class WordDigest {
 public:
  explicit WordDigest(std::uint64_t domain = 0) : acc_(domain + kPrime5) {}

  void word(std::uint64_t v) {
    acc_ = round(acc_, v);
    len_ += 8;
  }

  /// The object bytes of a contiguous range, eight per word in native
  /// order; a partial last word is zero-padded (the length mixed in at
  /// value() tells the padding from real zeros).
  template <std::ranges::contiguous_range R>
  void array(const R& values) {
    using T = std::ranges::range_value_t<R>;
    static_assert(std::has_unique_object_representations_v<T>,
                  "digest only types without padding or float bits");
    bytes(reinterpret_cast<const std::uint8_t*>(std::ranges::data(values)),
          std::ranges::size(values) * sizeof(T));
  }

  std::uint64_t value() const {
    std::uint64_t h = acc_ + len_;
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
  static constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
  static constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
  static constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

  static std::uint64_t round(std::uint64_t acc, std::uint64_t v) {
    return std::rotl(acc + v * kPrime2, 31) * kPrime1;
  }

  void bytes(const std::uint8_t* p, std::size_t n) {
    len_ += n;
    std::uint64_t acc = acc_;
    for (; n >= 8; p += 8, n -= 8) {
      std::uint64_t v;
      std::memcpy(&v, p, 8);
      acc = round(acc, v);
    }
    // Only a nonempty tail is copied: an empty range may have a null
    // data(), which memcpy must never see.
    if (n > 0) {
      std::uint64_t v = 0;
      std::memcpy(&v, p, n);
      acc = round(acc, v);
    }
    acc_ = acc;
  }

  std::uint64_t acc_;
  std::uint64_t len_ = 0;
};

}  // namespace dgap
