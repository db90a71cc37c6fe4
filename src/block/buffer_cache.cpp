#include "block/buffer_cache.hpp"

#include <algorithm>
#include <cassert>

namespace mif::block {

BufferCache::BufferCache(sim::IoScheduler& io, u64 capacity_blocks)
    : io_(io), capacity_(capacity_blocks) {
  assert(capacity_blocks < kNone);  // slot numbers and kNone must not meet
}

u32 BufferCache::find(u64 block) const {
  const u64 p = block >> kPageBits;
  if (p >= pages_.size() || !pages_[p].slot) return kNone;
  return pages_[p].slot[block & (kPageBlocks - 1)];
}

void BufferCache::index(u64 block, u32 s) {
  const u64 p = block >> kPageBits;
  if (p >= pages_.size()) pages_.resize(p + 1);
  Page& page = pages_[p];
  if (!page.slot) {
    if (spare_pages_.empty()) {
      page.slot = std::make_unique_for_overwrite<u32[]>(kPageBlocks);
      std::fill_n(page.slot.get(), kPageBlocks, kNone);
    } else {
      page.slot = std::move(spare_pages_.back());
      spare_pages_.pop_back();
    }
  }
  page.slot[block & (kPageBlocks - 1)] = s;
  ++page.resident;
}

void BufferCache::unindex(u64 block) {
  Page& page = pages_[block >> kPageBits];
  page.slot[block & (kPageBlocks - 1)] = kNone;
  if (--page.resident == 0) spare_pages_.push_back(std::move(page.slot));
}

void BufferCache::unlink(u32 s) {
  const Slot& e = slots_[s];
  (e.prev == kNone ? head_ : slots_[e.prev].next) = e.next;
  (e.next == kNone ? tail_ : slots_[e.next].prev) = e.prev;
}

void BufferCache::push_front(u32 s) {
  Slot& e = slots_[s];
  e.prev = kNone;
  e.next = head_;
  (head_ == kNone ? tail_ : slots_[head_].prev) = s;
  head_ = s;
}

void BufferCache::touch(u32 s) {
  if (s == head_) return;
  unlink(s);
  push_front(s);
}

void BufferCache::insert(u64 block, bool dirty) {
  if (capacity_ == 0) return;
  u32 s;
  if (slots_.size() < capacity_) {
    s = static_cast<u32>(slots_.size());
    slots_.emplace_back();
  } else {
    s = evict_one();
  }
  slots_[s].block = block;
  slots_[s].dirty = dirty;
  push_front(s);
  index(block, s);
}

u32 BufferCache::evict_one() {
  const u32 victim = tail_;
  const Slot& e = slots_[victim];
  if (e.dirty) {
    io_.submit({sim::IoKind::kWrite, DiskBlock{e.block}, 1});
    ++stats_.writebacks;
  }
  unlink(victim);
  unindex(e.block);
  ++stats_.evictions;
  return victim;
}

void BufferCache::read(DiskBlock start, u64 len) {
  // Coalesce the missing sub-ranges into as few disk requests as possible.
  u64 miss_start = kNoBlock;
  for (u64 b = start.v; b < start.v + len; ++b) {
    if (const u32 s = find(b); s != kNone) {
      ++stats_.hits;
      touch(s);
      if (miss_start != kNoBlock) {
        io_.submit({sim::IoKind::kRead, DiskBlock{miss_start}, b - miss_start});
        miss_start = kNoBlock;
      }
    } else {
      ++stats_.misses;
      insert(b, /*dirty=*/false);
      if (miss_start == kNoBlock) miss_start = b;
    }
  }
  if (miss_start != kNoBlock) {
    io_.submit(
        {sim::IoKind::kRead, DiskBlock{miss_start}, start.v + len - miss_start});
  }
}

void BufferCache::write(DiskBlock start, u64 len) {
  if (capacity_ == 0) {
    io_.submit({sim::IoKind::kWrite, start, len});
    ++stats_.writebacks;
    return;
  }
  for (u64 b = start.v; b < start.v + len; ++b) {
    if (const u32 s = find(b); s != kNone) {
      ++stats_.hits;
      slots_[s].dirty = true;
      touch(s);
    } else {
      ++stats_.misses;
      insert(b, /*dirty=*/true);
    }
  }
}

void BufferCache::install(DiskBlock start, u64 len) {
  if (capacity_ == 0) return;
  for (u64 b = start.v; b < start.v + len; ++b) {
    if (const u32 s = find(b); s != kNone) {
      touch(s);
    } else {
      insert(b, /*dirty=*/false);
    }
  }
}

void BufferCache::write_sync(DiskBlock start, u64 len) {
  write(start, len);
  if (capacity_ == 0) return;
  // Flush just this range.
  for (u64 b = start.v; b < start.v + len; ++b) {
    if (const u32 s = find(b); s != kNone) slots_[s].dirty = false;
  }
  io_.submit({sim::IoKind::kWrite, start, len});
  ++stats_.writebacks;
}

void BufferCache::flush() {
  std::vector<u64> dirty;
  for (Slot& e : slots_) {
    if (e.dirty) {
      dirty.push_back(e.block);
      e.dirty = false;
    }
  }
  std::sort(dirty.begin(), dirty.end());
  // Emit maximal contiguous runs.
  std::size_t i = 0;
  while (i < dirty.size()) {
    std::size_t j = i + 1;
    while (j < dirty.size() && dirty[j] == dirty[j - 1] + 1) ++j;
    io_.submit({sim::IoKind::kWrite, DiskBlock{dirty[i]}, j - i});
    ++stats_.writebacks;
    i = j;
  }
}

void BufferCache::invalidate_all() {
  flush();
  io_.drain();
  for (const Slot& e : slots_) unindex(e.block);
  slots_.clear();
  head_ = kNone;
  tail_ = kNone;
}

}  // namespace mif::block
