#include "block/bitmap.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mif::block {

namespace {
constexpr u64 kWordBits = 64;
}

Bitmap::Bitmap(u64 blocks)
    : words_((blocks + kWordBits - 1) / kWordBits, 0),
      size_(blocks),
      free_(blocks) {}

bool Bitmap::is_set(u64 bit) const {
  assert(bit < size_);
  return (words_[bit / kWordBits] >> (bit % kWordBits)) & 1u;
}

void Bitmap::set_range(u64 start, u64 len) {
  assert(start + len <= size_);
  assert(range_free(start, len));
  for (u64 b = start; b < start + len; ++b)
    words_[b / kWordBits] |= u64{1} << (b % kWordBits);
  free_ -= len;
}

void Bitmap::clear_range(u64 start, u64 len) {
  assert(start + len <= size_);
  for (u64 b = start; b < start + len; ++b) {
    assert(is_set(b));
    words_[b / kWordBits] &= ~(u64{1} << (b % kWordBits));
  }
  free_ += len;
}

bool Bitmap::range_free(u64 start, u64 len) const {
  if (start + len > size_) return false;
  return free_run_at(start, len) >= len;
}

u64 Bitmap::free_run_at(u64 start, u64 max_len) const {
  if (start >= size_) return 0;
  return next_used(start, start + std::min(max_len, size_ - start)) - start;
}

u64 Bitmap::next_free(u64 from) const {
  u64 b = from;
  while (b < size_) {
    const u64 w = words_[b / kWordBits] >> (b % kWordBits);
    if (w == ~u64{0} >> (b % kWordBits) && (b % kWordBits) == 0) {
      b += kWordBits;  // fully used word
      continue;
    }
    if (!((w)&1u)) return b;
    // Skip the used run inside this word.
    const u64 trailing_used = static_cast<u64>(std::countr_one(w));
    b += trailing_used;
    if (trailing_used == 0) ++b;  // defensive; cannot happen
  }
  return size_;
}

u64 Bitmap::next_used(u64 from, u64 limit) const {
  assert(limit <= size_);
  u64 b = from;
  while (b < limit) {
    const u64 idx = b / kWordBits;
    const u64 w = words_[idx] >> (b % kWordBits);
    if (w != 0)
      return std::min(limit, b + static_cast<u64>(std::countr_zero(w)));
    b = (idx + 1) * kWordBits;  // fully free from here in this word
  }
  return limit;
}

std::optional<u64> Bitmap::find_run(u64 goal, u64 len) const {
  // No run of `len` fits in fewer than `len` free blocks.
  if (len == 0 || len > free_) return std::nullopt;
  auto scan = [&](u64 from, u64 to) -> std::optional<u64> {
    u64 b = from;
    while (b < to) {
      b = next_free(b);
      if (b >= to) break;
      // A run is only compared with `len`, so measure it no further.
      const u64 run = free_run_at(b, len);
      if (run >= len) return b;
      b += run + 1;  // past the used block that ended the run
    }
    return std::nullopt;
  };
  if (auto r = scan(goal, size_)) return r;
  if (goal > 0) return scan(0, goal);
  return std::nullopt;
}

u64 Bitmap::add_free_runs(Histogram& h) const {
  u64 runs = 0;
  u64 b = 0;
  while (b < size_) {
    b = next_free(b);
    if (b >= size_) break;
    const u64 run_end = next_used(b, size_);
    h.add(run_end - b);
    ++runs;
    b = run_end;
  }
  return runs;
}

std::optional<BlockRange> Bitmap::find_run_best(u64 goal, u64 min_len,
                                                u64 want_len) const {
  if (min_len == 0) min_len = 1;
  assert(min_len <= want_len);
  // Every answer is a run of at least min_len blocks.
  if (min_len > free_) return std::nullopt;
  std::optional<BlockRange> best;
  auto scan = [&](u64 from, u64 to) -> bool {
    u64 b = from;
    while (b < to) {
      b = next_free(b);
      if (b >= to) break;
      // Runs of want_len or more all end the search alike; measure no
      // further than that.
      const u64 run = free_run_at(b, want_len);
      if (run >= want_len) {
        best = BlockRange{DiskBlock{b}, want_len};
        return true;  // first full-size run wins (locality to goal)
      }
      if (run >= min_len && (!best || run > best->length)) {
        best = BlockRange{DiskBlock{b}, run};
      }
      b += run + 1;  // past the used block that ended the run
    }
    return false;
  };
  if (!scan(goal, size_) && goal > 0) scan(0, goal);
  return best;
}

}  // namespace mif::block
