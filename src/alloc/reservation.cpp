#include "alloc/reservation.hpp"

#include <algorithm>

namespace mif::alloc {

ReservationAllocator::ReservationAllocator(block::FreeSpace& space)
    : FileAllocator(space) {}

ReservationAllocator::~ReservationAllocator() {
  for (auto& [inode, w] : windows_) discard_window(w);
}

void ReservationAllocator::discard_window(Window& w) {
  if (w.remaining > 0) {
    (void)space_.free_range({w.next, w.remaining});
    stats_.released_blocks += w.remaining;
    stats_.reserved_blocks -= w.remaining;
    w.remaining = 0;
  }
}

void ReservationAllocator::close_file(InodeNo inode, block::ExtentMap&) {
  std::lock_guard lock(mu_);
  if (auto it = windows_.find(inode); it != windows_.end()) {
    discard_window(it->second);
    windows_.erase(it);
  }
}

Status ReservationAllocator::allocate_fresh(const AllocContext& ctx,
                                            FileBlock logical, u64 count,
                                            block::ExtentMap& map) {
  std::lock_guard lock(mu_);
  Window& w = windows_[ctx.inode];

  u64 at = logical.v;
  u64 remaining = count;
  while (remaining > 0) {
    if (w.remaining == 0) {
      // Refill the per-inode window near the file's last non-hole block.
      const u64 want = std::max(kWindowBlocks, remaining);
      auto run = space_.allocate_best(goal_for(ctx.inode, map), remaining,
                                      want);
      if (!run) {
        // Fall back to scattered allocation of what is left.
        return allocate_near(goal_for(ctx.inode, map), FileBlock{at},
                             remaining, map);
      }
      w.next = run->start;
      w.remaining = run->length;
      ++stats_.fresh_allocations;
      stats_.allocated_blocks += run->length;
      stats_.reserved_blocks += run->length;
    }
    const u64 take = std::min(w.remaining, remaining);
    stats_.reserved_blocks -= take;
    map.insert({FileBlock{at}, w.next, take, block::kExtentNone});
    w.next.v += take;
    w.remaining -= take;
    at += take;
    remaining -= take;
  }
  return {};
}

}  // namespace mif::alloc
