// Contiguous-run merging — the one place adjacency logic lives.
//
// Three layers used to re-implement "extend the tail if the next piece is
// adjacent": FormationTransport's coalescer (block runs), CollectiveWriter's
// Range merge (byte ranges), and the client's slice grouping.  They all call
// these helpers now, so the semantics (sort, drop empties, merge on
// touch-or-overlap) are defined exactly once and unit-tested once.
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace mif::util {

/// Append `next` to `runs`, extending the tail run instead when `next`
/// starts exactly where the tail ends.  Returns true when merged (no new
/// element).  Empty runs (count == 0) are dropped and count as merged.
bool append_run(std::vector<BlockRun>& runs, BlockRun next);

/// A contiguous byte region of a file (the collective writer's currency).
struct ByteRange {
  u64 offset{0};
  u64 len{0};
  u64 end() const { return offset + len; }
  constexpr auto operator<=>(const ByteRange&) const = default;
};

/// Sort by offset, drop zero-length ranges, and merge every pair that
/// touches or overlaps (`r.offset <= back.end()`).  The result is the
/// minimal sorted set of disjoint non-empty ranges covering the input.
std::vector<ByteRange> merge_ranges(std::vector<ByteRange> ranges);

/// A strided pattern equivalent to a run list: `count` pieces of
/// `block_len` blocks, starts `stride` blocks apart, beginning at `start`.
struct StridedRuns {
  FileBlock start{};
  u64 count{0};
  u64 stride{0};
  u64 block_len{0};
};

/// Detect whether `runs` (sorted, disjoint) form a regular strided pattern
/// with at least two pieces: equal lengths and equal start-to-start gaps,
/// with stride > block_len (a degenerate stride == block_len is just one
/// contiguous run and not worth a strided envelope).  Returns true and
/// fills `out` on match.
bool as_strided(std::span<const BlockRun> runs, StridedRuns& out);

/// Expand a strided pattern back into its run list (the server side of
/// as_strided).
std::vector<BlockRun> expand_strided(const StridedRuns& s);

}  // namespace mif::util
