#include "alloc/allocator.hpp"

#include <algorithm>

#include "alloc/ondemand.hpp"
#include "alloc/reservation.hpp"
#include "alloc/static_prealloc.hpp"
#include "alloc/vanilla.hpp"

namespace mif::alloc {

std::string_view to_string(AllocatorMode m) {
  switch (m) {
    case AllocatorMode::kVanilla: return "vanilla";
    case AllocatorMode::kReservation: return "reservation";
    case AllocatorMode::kStatic: return "static";
    case AllocatorMode::kOnDemand: return "on-demand";
  }
  return "?";
}

Status FileAllocator::extend(const AllocContext& ctx, block::ExtentMap& map) {
  if (ctx.count == 0) return Errc::kInvalid;
  {
    std::lock_guard lock(mu_);
    ++stats_.extends;
  }

  // Decompose the write into already-mapped pieces (mark written) and holes
  // (delegate to the strategy).
  u64 pos = ctx.logical.v;
  const u64 end = pos + ctx.count;
  while (pos < end) {
    if (auto e = map.lookup(FileBlock{pos})) {
      const u64 run = std::min(end, e->file_end()) - pos;
      if (e->flags & block::kExtentUnwritten) map.mark_written(FileBlock{pos}, run);
      pos += run;
      continue;
    }
    // Hole: it ends at the next mapped extent or the write end.
    const u64 hole_end = map.next_mapped(FileBlock{pos}, end);
    if (Status s = allocate_fresh(ctx, FileBlock{pos}, hole_end - pos, map); !s)
      return s;
    pos = hole_end;
  }
  return {};
}

Status FileAllocator::preallocate(InodeNo, block::ExtentMap&, u64) {
  return Errc::kInvalid;
}

void FileAllocator::close_file(InodeNo, block::ExtentMap&) {}

void FileAllocator::delete_file(InodeNo inode, block::ExtentMap& map) {
  close_file(inode, map);
  for (const block::Extent& e : map.extents()) {
    (void)space_.free_range({e.disk_off, e.length});
  }
  map = block::ExtentMap{};
}

AllocatorStats FileAllocator::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

Status FileAllocator::allocate_near(DiskBlock goal, FileBlock logical,
                                    u64 count, block::ExtentMap& map) {
  auto runs = space_.allocate_scattered(goal, count);
  if (!runs) return runs.error();
  u64 at = logical.v;
  for (const block::BlockRange& r : *runs) {
    map.insert({FileBlock{at}, r.start, r.length, block::kExtentNone});
    at += r.length;
  }
  std::lock_guard lock(mu_);
  ++stats_.fresh_allocations;
  stats_.allocated_blocks += count;
  return {};
}

DiskBlock FileAllocator::goal_for(InodeNo inode,
                                  const block::ExtentMap& map) const {
  if (!map.empty()) {
    const block::Extent& last = map.extents().back();
    return DiskBlock{last.disk_end()};
  }
  // Empty file: spread inodes across groups so independent files do not all
  // pile onto group 0 (the classic cylinder-group heuristic).
  const u32 g = static_cast<u32>(inode.v % space_.group_count());
  return space_.group(g).base();
}

std::unique_ptr<FileAllocator> make_allocator(AllocatorMode mode,
                                              block::FreeSpace& space,
                                              AllocatorTuning tuning) {
  switch (mode) {
    case AllocatorMode::kVanilla:
      return std::make_unique<VanillaAllocator>(space);
    case AllocatorMode::kReservation:
      return std::make_unique<ReservationAllocator>(space, tuning);
    case AllocatorMode::kStatic:
      return std::make_unique<StaticAllocator>(space, tuning);
    case AllocatorMode::kOnDemand:
      return std::make_unique<OnDemandAllocator>(space, tuning);
  }
  return nullptr;
}

}  // namespace mif::alloc
