#include "alloc/static_prealloc.hpp"

namespace mif::alloc {

StaticAllocator::StaticAllocator(block::FreeSpace& space)
    : FileAllocator(space), fallback_(space) {}

Status StaticAllocator::preallocate(InodeNo inode, block::ExtentMap& map,
                                    u64 total_blocks) {
  const u64 have = map.logical_end();
  if (total_blocks <= have) return {};
  u64 at = have;
  u64 remaining = total_blocks - have;
  while (remaining > 0) {
    auto run = space_.allocate_best(goal_for(inode, map), 1, remaining);
    if (!run) return Errc::kNoSpace;
    map.insert(
        {FileBlock{at}, run->start, run->length, block::kExtentUnwritten});
    at += run->length;
    remaining -= run->length;
    std::lock_guard lock(mu_);
    ++stats_.fresh_allocations;
    stats_.allocated_blocks += run->length;
  }
  return {};
}

Status StaticAllocator::allocate_fresh(const AllocContext& ctx,
                                       FileBlock logical, u64 count,
                                       block::ExtentMap& map) {
  // A write past the preallocated region (the application's foreknowledge
  // was wrong): behave like the reservation baseline from here on.
  std::lock_guard lock(mu_);
  ++stats_.layout_misses;
  AllocContext sub = ctx;
  sub.logical = logical;
  sub.count = count;
  return fallback_.extend(sub, map);
}

AllocatorStats StaticAllocator::stats() const {
  AllocatorStats s = FileAllocator::stats();
  const AllocatorStats f = fallback_.stats();
  s.extends += f.extends;
  s.fresh_allocations += f.fresh_allocations;
  s.allocated_blocks += f.allocated_blocks;
  s.reserved_blocks += f.reserved_blocks;
  s.released_blocks += f.released_blocks;
  return s;
}

void StaticAllocator::close_file(InodeNo inode, block::ExtentMap& map) {
  // fallocate'd space is persistent: keep unwritten extents, only release
  // any fallback reservation window.
  fallback_.close_file(inode, map);
}

}  // namespace mif::alloc
