#include "util/runs.hpp"

#include <algorithm>
#include <utility>

namespace mif::util {

bool append_run(std::vector<BlockRun>& runs, BlockRun next) {
  if (next.count == 0) return true;
  if (!runs.empty()) {
    BlockRun& tail = runs.back();
    if (next.start.v == tail.start.v + tail.count) {
      tail.count += next.count;
      return true;
    }
  }
  runs.push_back(next);
  return false;
}

namespace {

/// The one sort, drop-empty and merge-on-touch body.  `lo(r)` and `len(r)`
/// reach a range's first unit and its length (mutable for a mutable range).
template <typename R, typename Lo, typename Len>
std::vector<R> merge_touching(std::vector<R> ranges, Lo lo, Len len) {
  std::sort(ranges.begin(), ranges.end(),
            [&](const R& a, const R& b) { return lo(a) < lo(b); });
  std::vector<R> out;
  for (const R& r : ranges) {
    if (len(r) == 0) continue;
    if (!out.empty() && lo(r) <= lo(out.back()) + len(out.back())) {
      R& back = out.back();
      len(back) = std::max(lo(back) + len(back), lo(r) + len(r)) - lo(back);
    } else {
      out.push_back(r);
    }
  }
  return out;
}

}  // namespace

std::vector<ByteRange> merge_ranges(std::vector<ByteRange> ranges) {
  return merge_touching(
      std::move(ranges), [](auto& r) -> auto& { return r.offset; },
      [](auto& r) -> auto& { return r.len; });
}

std::vector<BlockRun> merge_runs(std::vector<BlockRun> runs) {
  return merge_touching(
      std::move(runs), [](auto& r) -> auto& { return r.start.v; },
      [](auto& r) -> auto& { return r.count; });
}

bool as_strided(std::span<const BlockRun> runs, StridedRuns& out) {
  if (runs.size() < 2) return false;
  const u64 block_len = runs[0].count;
  const u64 stride = runs[1].start.v - runs[0].start.v;
  if (stride <= block_len) return false;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].count != block_len) return false;
    if (i > 0 && runs[i].start.v - runs[i - 1].start.v != stride) return false;
  }
  out.start = runs[0].start;
  out.count = runs.size();
  out.stride = stride;
  out.block_len = block_len;
  return true;
}

std::vector<BlockRun> expand_strided(const StridedRuns& s) {
  std::vector<BlockRun> runs;
  runs.reserve(s.count);
  for (u64 i = 0; i < s.count; ++i) {
    runs.push_back(BlockRun{FileBlock{s.start.v + i * s.stride}, s.block_len});
  }
  return runs;
}

}  // namespace mif::util
