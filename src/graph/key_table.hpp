// Flat open-addressing table of 64-bit keys for the instance path.
//
// Membership and identifier-to-index lookups while building instances
// (identifier validation, edit batches, random-graph deduplication,
// warm-start translation) go through this one table: linear probing over
// a power-of-two array, a multiplicative (Fibonacci) hash, and a constant
// load factor of at most 1/2, sized once for the most keys the caller
// will insert. It supports insert and find (plus a prefetch hint) only and
// is never iterated, so its slot order can never reach an output: every
// result stays a function of what was inserted, not of where it landed.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/require.hpp"
#include "common/types.hpp"

namespace dgap {

/// Mapped type of a key-only table (a set).
struct KeyOnly {};

template <typename Mapped>
class KeyTable {
 public:
  /// The one key value a table cannot hold: it marks an empty slot.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  /// Room for `max_keys` keys at load factor at most 1/2.
  explicit KeyTable(std::size_t max_keys)
      : max_keys_(max_keys),
        shift_(64 - std::countr_zero(std::bit_ceil(
                        std::max<std::size_t>(2 * max_keys, 16)))),
        slots_(std::size_t{1} << (64 - shift_), Slot{kEmptyKey, Mapped{}}) {}

  /// Adds `key` (with `value`) when absent. True when it was added; an
  /// existing key keeps its first value.
  bool insert(std::uint64_t key, Mapped value = {}) {
    DGAP_REQUIRE(key != kEmptyKey, "key table: reserved key");
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.key == key) return false;
      if (s.key == kEmptyKey) {
        DGAP_ASSERT(size_ < max_keys_, "key table: more keys than sized for");
        s = Slot{key, value};
        ++size_;
        return true;
      }
    }
  }

  /// The value stored for `key`, or nullptr when it is absent.
  const Mapped* find(std::uint64_t key) const {
    if (key == kEmptyKey) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmptyKey) return nullptr;
    }
  }

  /// Starts loading the slot `key` hashes to (a hint; changes nothing).
  void prefetch(std::uint64_t key) const {
    __builtin_prefetch(&slots_[home(key)]);
  }

 private:
  struct Slot {
    std::uint64_t key;
    [[no_unique_address]] Mapped value;
  };

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  std::size_t mask() const { return slots_.size() - 1; }

  std::size_t max_keys_;
  int shift_;
  std::size_t size_ = 0;
  std::vector<Slot> slots_;
};

/// A set of 64-bit keys.
using KeySet = KeyTable<KeyOnly>;
/// Keys (identifiers) to internal node indices.
using KeyIndex = KeyTable<NodeId>;

}  // namespace dgap
