#include <algorithm>
#include <cassert>

#include "block/block_types.hpp"

namespace mif::block {

namespace {
bool mergeable(const Extent& a, const Extent& b) {
  return a.file_end() == b.file_off.v && a.disk_end() == b.disk_off.v &&
         a.flags == b.flags;
}
}  // namespace

void ExtentMap::insert(Extent e) {
  assert(e.length > 0);
  auto it = std::lower_bound(extents_.begin(), extents_.end(), e,
                             [](const Extent& a, const Extent& b) {
                               return a.file_off.v < b.file_off.v;
                             });
  // No overlap allowed: check neighbours.
  assert(it == extents_.end() || e.file_end() <= it->file_off.v);
  assert(it == extents_.begin() || std::prev(it)->file_end() <= e.file_off.v);

  // Try merging with the predecessor.
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (mergeable(*prev, e)) {
      prev->length += e.length;
      // The grown predecessor may now touch the successor too.
      if (it != extents_.end() && mergeable(*prev, *it)) {
        prev->length += it->length;
        extents_.erase(it);
      }
      return;
    }
  }
  // Try merging with the successor.
  if (it != extents_.end() && mergeable(e, *it)) {
    it->file_off = e.file_off;
    it->disk_off = e.disk_off;
    it->length += e.length;
    return;
  }
  extents_.insert(it, e);
}

std::vector<Extent>::const_iterator ExtentMap::first_after(FileBlock b) const {
  return std::upper_bound(extents_.begin(), extents_.end(), b,
                          [](FileBlock lhs, const Extent& rhs) {
                            return lhs.v < rhs.file_off.v;
                          });
}

std::optional<Extent> ExtentMap::lookup(FileBlock b) const {
  auto it = first_after(b);
  if (it == extents_.begin()) return std::nullopt;
  --it;
  if (it->covers(b)) return *it;
  return std::nullopt;
}

u64 ExtentMap::next_mapped(FileBlock b, u64 limit) const {
  auto it = first_after(b);
  return it == extents_.end() ? limit : std::min(limit, it->file_off.v);
}

std::vector<BlockRange> ExtentMap::map_range(FileBlock b, u64 len) const {
  std::vector<BlockRange> out;
  const u64 end = b.v + len;
  auto it = first_after(b);
  if (it != extents_.begin()) --it;
  for (; it != extents_.end() && it->file_off.v < end; ++it) {
    const u64 lo = std::max(b.v, it->file_off.v);
    const u64 hi = std::min(end, it->file_end());
    if (lo >= hi) continue;
    BlockRange r{DiskBlock{it->disk_off.v + (lo - it->file_off.v)}, hi - lo};
    // Physically contiguous with the previous run: coalesce so callers see
    // the true contiguity of the placement.
    if (!out.empty() && out.back().end() == r.start.v) {
      out.back().length += r.length;
    } else {
      out.push_back(r);
    }
  }
  return out;
}

void ExtentMap::mark_written(FileBlock b, u64 len) {
  const u64 end = b.v + len;
  std::vector<Extent> rebuilt;
  rebuilt.reserve(extents_.size() + 2);
  for (const Extent& e : extents_) {
    const u64 lo = std::max(b.v, e.file_off.v);
    const u64 hi = std::min(end, e.file_end());
    if (lo >= hi || !(e.flags & kExtentUnwritten)) {
      rebuilt.push_back(e);
      continue;
    }
    // Split into up-to-three pieces; the middle one becomes written.
    if (e.file_off.v < lo) {
      rebuilt.push_back(
          Extent{e.file_off, e.disk_off, lo - e.file_off.v, e.flags});
    }
    rebuilt.push_back(Extent{FileBlock{lo},
                             DiskBlock{e.disk_off.v + (lo - e.file_off.v)},
                             hi - lo, e.flags & ~kExtentUnwritten});
    if (hi < e.file_end()) {
      rebuilt.push_back(Extent{FileBlock{hi},
                               DiskBlock{e.disk_off.v + (hi - e.file_off.v)},
                               e.file_end() - hi, e.flags});
    }
  }
  extents_.clear();
  for (const Extent& e : rebuilt) insert(e);  // re-merge
}

u64 ExtentMap::logical_end() const {
  return extents_.empty() ? 0 : extents_.back().file_end();
}

u64 ExtentMap::mapped_blocks() const {
  u64 n = 0;
  for (const Extent& e : extents_) n += e.length;
  return n;
}

}  // namespace mif::block
