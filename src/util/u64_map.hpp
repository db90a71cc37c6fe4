// u64-keyed open-addressing table.
//
// One power-of-two array of (key, value) cells, probed linearly from a key's
// home cell, with backward-shift deletion: an erase pulls the later cells of
// its probe run back into the hole, so churn leaves no tombstones and probe
// runs stay as short as a fresh table's (the scheme mfs::NameIndex uses for
// names).  Every u64 is a key: empty cells hold kEmptyKey, and the one key
// equal to it is kept in a side slot outside the array.
//
// Inserts and erases move values between cells, so a pointer from find()
// lasts only until the next insert or erase; tables whose entries must stay
// put store owning pointers.  for_each visits entries in cell order, which
// follows the hash, not the keys: callers that need an order sort.
#pragma once

#include <bit>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace mif::util {

/// The value type of a key-only table (U64Set).
struct Unit {};

template <class V>
class U64Map {
 public:
  V* find(u64 key) {
    if (key == kEmptyKey) return side_ ? &*side_ : nullptr;
    const std::size_t i = locate(key);
    return i == kNone ? nullptr : &cells_[i].value;
  }
  const V* find(u64 key) const {
    return const_cast<U64Map*>(this)->find(key);
  }
  bool contains(u64 key) const { return find(key) != nullptr; }

  /// The value bound to `key`, inserted value-initialised if absent.
  V& operator[](u64 key) { return *try_emplace(key).first; }

  /// Bind `key` to a value-initialised V unless it is bound; returns its
  /// value and whether it was inserted.
  std::pair<V*, bool> try_emplace(u64 key) {
    if (key == kEmptyKey) {
      if (side_) return {&*side_, false};
      side_.emplace();
      return {&*side_, true};
    }
    if (const std::size_t i = locate(key); i != kNone)
      return {&cells_[i].value, false};
    if ((array_size_ + 1) * kMaxLoadDen > cells_.size() * kMaxLoadNum) grow();
    ++array_size_;
    Cell& c = cells_[place(key)];
    c.key = key;
    return {&c.value, true};
  }

  /// Remove `key` and hand back its value (nullopt when it was absent).
  std::optional<V> take(u64 key) {
    std::optional<V> out;
    if (key == kEmptyKey) {
      out.swap(side_);
      return out;
    }
    std::size_t hole = locate(key);
    if (hole == kNone) return out;
    out.emplace(std::move(cells_[hole].value));
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; cells_[j].key != kEmptyKey;
         j = (j + 1) & mask) {
      // Move cell j into the hole unless its home lies cyclically after the
      // hole: there it would sit before its home, outside its probe run.
      if (((j - home(cells_[j].key)) & mask) >= ((j - hole) & mask)) {
        cells_[hole] = std::move(cells_[j]);
        hole = j;
      }
    }
    cells_[hole] = Cell{};
    --array_size_;
    return out;
  }
  bool erase(u64 key) { return take(key).has_value(); }

  std::size_t size() const { return array_size_ + (side_ ? 1 : 0); }

  /// Visit every (key, value), in cell order.
  template <class F>
  void for_each(F&& fn) {
    for (Cell& c : cells_) {
      if (c.key != kEmptyKey) fn(c.key, c.value);
    }
    if (side_) fn(kEmptyKey, *side_);
  }
  template <class F>
  void for_each(F&& fn) const {
    const_cast<U64Map*>(this)->for_each(
        [&fn](u64 key, const V& value) { fn(key, value); });
  }

  /// Cells in the array: 0 until the first insert, then a power of two.
  std::size_t capacity() const { return cells_.size(); }
  /// The cell `key`'s probe run starts at (capacity() must be non-zero).
  std::size_t home(u64 key) const {
    // Fibonacci hashing: the product's top bits depend on every key bit,
    // and keys in arithmetic progression (block keys of one file, inode
    // numbers) land evenly spread, with fewer collisions than random homes.
    return static_cast<std::size_t>((key * kGolden) >> shift_);
  }

 private:
  struct Cell {
    u64 key{kEmptyKey};
    [[no_unique_address]] V value{};
  };
  static constexpr u64 kEmptyKey = ~u64{0};
  static constexpr u64 kGolden = 0x9e3779b97f4a7c15ULL;
  static constexpr std::size_t kNone = ~std::size_t{0};
  /// First array size, and the load past which the array doubles (as in
  /// mfs::NameIndex).
  static constexpr std::size_t kInitialCells = 16;
  static constexpr std::size_t kMaxLoadNum = 3;
  static constexpr std::size_t kMaxLoadDen = 4;

  /// Cell holding `key` (never kEmptyKey), or kNone.
  std::size_t locate(u64 key) const {
    if (cells_.empty()) return kNone;
    const std::size_t mask = cells_.size() - 1;
    // The load bound keeps an empty cell in the array, so the run ends.
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      const u64 k = cells_[i].key;
      if (k == key) return i;
      if (k == kEmptyKey) return kNone;
    }
  }
  /// First empty cell of `key`'s probe run.
  std::size_t place(u64 key) const {
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = home(key);
    while (cells_[i].key != kEmptyKey) i = (i + 1) & mask;
    return i;
  }
  void grow() {
    std::vector<Cell> old = std::move(cells_);
    const std::size_t cells = old.empty() ? kInitialCells : old.size() * 2;
    cells_ = std::vector<Cell>(cells);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cells));
    for (Cell& c : old) {
      if (c.key != kEmptyKey) cells_[place(c.key)] = std::move(c);
    }
  }

  std::vector<Cell> cells_;
  unsigned shift_{64};  // 64 - log2(capacity())
  std::size_t array_size_{0};
  std::optional<V> side_;  // the value of kEmptyKey, when bound
};

using U64Set = U64Map<Unit>;

}  // namespace mif::util
