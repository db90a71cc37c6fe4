#include "sim/readahead.hpp"

#include <algorithm>

namespace mif::sim {

u64 Readahead::advise(u64 pos, u64 want) {
  const bool sequential =
      next_expected_ != kNoBlock &&
      (pos == next_expected_ || pos < prefetched_until_);

  if (sequential) {
    ++hits_;
    if (pos + want <= prefetched_until_) {
      // Fully covered by an earlier prefetch: no new I/O.
      next_expected_ = std::max(next_expected_, pos + want);
      return 0;
    }
    // Correct prediction: grow the window before fetching further.
    window_ = std::min(window_ * 2, kMaxBlocks);
  } else if (next_expected_ != kNoBlock) {
    // Pattern broken: collapse to the initial window.
    ++misses_;
    window_ = kInitialBlocks;
  }

  const u64 fetch = std::max(want, window_);
  next_expected_ = pos + want;
  prefetched_until_ = pos + fetch;
  return fetch;
}

}  // namespace mif::sim
