// Kernel-style sequential readahead window.
//
// Fig. 8's readdir-stat result depends on this explicitly: "the size of the
// prefetching window is gradually enlarged when it correctly predicts the
// blocks to be used", which lets the embedded directory merge individual
// readdir-stat operations into a few large disk reads.  We reproduce the
// classic Linux ondemand-readahead shape: start small, double on every
// sequential hit, collapse on a miss.
#pragma once

#include "util/types.hpp"

namespace mif::sim {

class Readahead {
 public:
  /// The first window, and the one a broken pattern collapses to: 16 KiB.
  static constexpr u64 kInitialBlocks = 4;
  /// The window's cap: 512 KiB, the kernel default max_readahead.
  static constexpr u64 kMaxBlocks = 128;

  /// Ask the window how many blocks to read for an access of `want` blocks
  /// at logical position `pos`.  Contract: the caller reads logical range
  /// [pos, pos + returned) through its buffer cache (which absorbs the
  /// already-resident prefix), or nothing when 0 is returned because an
  /// earlier prefetch fully covers the access.
  u64 advise(u64 pos, u64 want);

  u64 window() const { return window_; }
  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }

 private:
  u64 next_expected_{kNoBlock};
  u64 prefetched_until_{0};  // exclusive logical bound already fetched
  u64 window_{kInitialBlocks};
  u64 hits_{0};
  u64 misses_{0};
};

}  // namespace mif::sim
