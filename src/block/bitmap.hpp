// Free-space bitmap: one bit per block, with first-fit and goal-directed run
// search.  This is the lowest layer every allocator strategy sits on.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "block/block_types.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace mif::block {

class Bitmap {
 public:
  explicit Bitmap(u64 blocks);

  u64 size() const { return size_; }
  u64 free_blocks() const { return free_; }
  u64 used_blocks() const { return size_ - free_; }

  bool is_set(u64 bit) const;

  /// Marks [start, start+len) used.  All bits must currently be free.
  void set_range(u64 start, u64 len);

  /// Marks [start, start+len) free.  All bits must currently be used.
  void clear_range(u64 start, u64 len);

  /// True iff every bit in [start, start+len) is free.
  bool range_free(u64 start, u64 len) const;

  /// Longest free run starting exactly at `start`, capped at `max_len`.
  /// Reads no word past the cap.
  u64 free_run_at(u64 start, u64 max_len) const;

  /// Start of the first free run of at least `len` blocks at or after
  /// `goal` (< size()), wrapping around once; nullopt if there is none.
  /// Each candidate run is measured only up to `len` blocks, so a search
  /// landing on a long free tail reads `len` bits of it, not the whole
  /// tail.  Fails in O(1) when fewer than `len` blocks are free.
  std::optional<u64> find_run(u64 goal, u64 len) const;

  /// Best-effort variant: the first free run at or after `goal` of length in
  /// [min_len, want_len]; prefers the first run that reaches want_len, else
  /// returns the longest run seen (>= min_len).  This is what allocators use
  /// to degrade gracefully when the disk fills.  Requires
  /// min_len <= want_len (0 counts as 1).  Runs are measured only up to
  /// `want_len`, and it fails in O(1) when fewer than `min_len` blocks are
  /// free.
  std::optional<BlockRange> find_run_best(u64 goal, u64 min_len,
                                          u64 want_len) const;

  /// Append the length of every maximal free run into `h` (the free-space
  /// run-length distribution the fragmentation lens samples).  Returns the
  /// number of runs seen.
  u64 add_free_runs(Histogram& h) const;

 private:
  u64 next_free(u64 from) const;  // first free bit >= from, or size_
  // First used bit in [from, limit), or `limit` (<= size_) if there is none.
  u64 next_used(u64 from, u64 limit) const;

  std::vector<u64> words_;
  u64 size_;
  u64 free_;
};

}  // namespace mif::block
