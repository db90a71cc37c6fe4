#include "alloc/ondemand.hpp"

#include <algorithm>

namespace mif::alloc {

OnDemandAllocator::OnDemandAllocator(block::FreeSpace& space,
                                     AllocatorTuning tuning)
    : FileAllocator(space), tuning_(tuning) {}

OnDemandAllocator::~OnDemandAllocator() {
  // Teardown: temporary reservations go back; current windows may be
  // partially served into maps we no longer see, so only the bookkeeping
  // dies with us (the free-space manager is being destroyed too).
  for (auto& [key, st] : streams_) release_sequential(st);
}

void OnDemandAllocator::release_sequential(StreamState& st) {
  if (st.sequential.valid()) {
    (void)space_.free_range({st.sequential.disk, st.sequential.len});
    stats_.released_blocks += st.sequential.len;
    stats_.reserved_blocks -= st.sequential.len;
    st.sequential = {};
  }
}

void OnDemandAllocator::reserve_sequential(StreamState& st, DiskBlock goal,
                                           FileBlock file_pos, u64 want) {
  want = std::min(std::max<u64>(want, 1), tuning_.max_preallocation_blocks);
  // Prefer growing in place so current + sequential stay physically
  // contiguous; fall back to the best nearby run.
  const u64 in_place = space_.extend_in_place(goal, want);
  if (in_place > 0) {
    st.sequential = Window{goal, file_pos, in_place};
  } else if (auto run = space_.allocate_best(goal, 1, want)) {
    st.sequential = Window{run->start, file_pos, run->length};
  } else {
    st.sequential = {};  // disk too full/fragmented to reserve anything
    return;
  }
  stats_.reserved_blocks += st.sequential.len;
}

void OnDemandAllocator::serve_from(const Window& w, FileBlock logical,
                                   u64 count, block::ExtentMap& map) {
  map.insert({logical, w.map_block(logical), count, block::kExtentNone});
  stats_.reserved_blocks -= count;
  stats_.allocated_blocks += count;
}

void OnDemandAllocator::persist_window(Window& w, block::ExtentMap& map) {
  if (!w.valid()) return;
  u64 b = w.file.v;
  const u64 end = w.file.v + w.len;
  while (b < end) {
    if (auto e = map.lookup(FileBlock{b})) {
      const u64 run = std::min(end, e->file_end()) - b;
      const DiskBlock ours{w.disk.v + (b - w.file.v)};
      if (e->map(FileBlock{b}) != ours) {
        // Another stream claimed this logical range first; our reserved
        // blocks under it are surplus.
        (void)space_.free_range({ours, run});
        stats_.released_blocks += run;
        stats_.reserved_blocks -= run;
      }
      // else: we served this range from the window earlier — accounted.
      b += run;
    } else {
      const u64 hole_end = map.next_mapped(FileBlock{b}, end);
      const u64 run = hole_end - b;
      map.insert({FileBlock{b}, DiskBlock{w.disk.v + (b - w.file.v)}, run,
                  block::kExtentUnwritten});
      stats_.reserved_blocks -= run;
      stats_.allocated_blocks += run;
      b = hole_end;
    }
  }
  w = {};
}

Result<DiskBlock> OnDemandAllocator::fill_range(const AllocContext& ctx,
                                                FileBlock logical, u64 count,
                                                block::ExtentMap& map) {
  DiskBlock last{};
  u64 pos = logical.v;
  const u64 end = logical.v + count;
  while (pos < end) {
    if (auto e = map.lookup(FileBlock{pos})) {
      const u64 run = std::min(end, e->file_end()) - pos;
      if (e->flags & block::kExtentUnwritten)
        map.mark_written(FileBlock{pos}, run);
      last = DiskBlock{e->map(FileBlock{pos}).v + run};
      pos += run;
      continue;
    }
    u64 remaining = map.next_mapped(FileBlock{pos}, end) - pos;
    DiskBlock goal = last.valid() ? last : goal_for(ctx.inode, map);
    while (remaining > 0) {
      auto run = space_.allocate_best(goal, 1, remaining);
      if (!run) return Errc::kNoSpace;
      map.insert({FileBlock{pos}, run->start, run->length,
                  block::kExtentNone});
      ++stats_.fresh_allocations;
      stats_.allocated_blocks += run->length;
      pos += run->length;
      remaining -= run->length;
      goal = DiskBlock{run->end()};
      last = goal;
    }
  }
  return last;
}

Status OnDemandAllocator::allocate_fresh(const AllocContext& ctx,
                                         FileBlock logical, u64 count,
                                         block::ExtentMap& map) {
  std::lock_guard lock(mu_);
  const Key key{ctx.inode.v, ctx.stream.key()};
  auto [it, first_extend] = streams_.try_emplace(key);
  StreamState& st = it->second;
  if (first_extend) st.ordinal = stream_count_[ctx.inode.v]++;

  // --- inside the current window: no trigger -----------------------------
  if (st.current.covers(logical, count)) {
    serve_from(st.current, logical, count, map);
    return {};
  }

  // --- pre_alloc_layout ---------------------------------------------------
  if (!first_extend && st.prealloc_on &&
      st.sequential.covers(logical, count)) {
    ++stats_.prealloc_promotions;
    // The retiring current window persists; the sequential window becomes
    // the new current window ("the range presented by the new current
    // window is replaced by the one indicated by original sequential
    // window", §III-B)…
    persist_window(st.current, map);
    st.current = st.sequential;
    st.sequential = {};
    serve_from(st.current, logical, count, map);
    // …and a scale-times larger sequential window is pushed forward.
    st.next_window_blocks = std::min(st.next_window_blocks * tuning_.scale,
                                     tuning_.max_preallocation_blocks);
    reserve_sequential(st, DiskBlock{st.current.disk.v + st.current.len},
                       FileBlock{st.current.file.v + st.current.len},
                       st.next_window_blocks);
    emit(obs::TraceEventType::kPreAllocLayout, ctx.inode, ctx.stream,
         st.current.len, st.sequential.len);
    return {};
  }

  // --- layout_miss ----------------------------------------------------------
  ++stats_.layout_misses;
  emit(obs::TraceEventType::kLayoutMiss, ctx.inode, ctx.stream, logical.v,
       count);
  if (!first_extend) {
    ++st.misses;
    if (st.prealloc_on && st.misses >= tuning_.miss_threshold) {
      // Workload classified random: preallocation off for this stream.
      st.prealloc_on = false;
      ++stats_.prealloc_disabled;
      const u64 released = st.sequential.len;
      release_sequential(st);
      emit(obs::TraceEventType::kStreamDemote, ctx.inode, ctx.stream,
           st.misses, released);
    }
  }

  // The stream abandoned its current window; persist what is left of it.
  persist_window(st.current, map);

  // Allocate the write itself, as contiguously as possible near the last
  // on-disk block of the shared file (§III-A).  Concurrent streams'
  // windows end up leapfrogging each other in one dense area, which keeps
  // inter-region distances short — spreading streams far apart measures
  // worse because cross-region repositioning then always pays a full seek.
  auto last = fill_range(ctx, logical, count, map);
  if (!last) return last.error();

  if (st.prealloc_on) {
    // (Re-)seed the sequential window right past the blocks just written.
    release_sequential(st);
    st.next_window_blocks =
        std::min(count * tuning_.scale, tuning_.max_preallocation_blocks);
    reserve_sequential(st, *last, FileBlock{logical.v + count},
                       st.next_window_blocks);
  }
  return {};
}

void OnDemandAllocator::close_file(InodeNo inode, block::ExtentMap& map) {
  std::lock_guard lock(mu_);
  // Temporary (sequential) reservations die with the close; current-window
  // remainders persist in the map, exactly like fallocate space (§III-C).
  for (auto it = streams_.begin(); it != streams_.end();) {
    if (it->first.inode == inode.v) {
      const u64 released = it->second.sequential.len;
      release_sequential(it->second);
      if (released > 0) {
        emit(obs::TraceEventType::kLazyFree, inode,
             StreamId{static_cast<u32>(it->first.stream >> 32),
                      static_cast<u32>(it->first.stream)},
             released);
      }
      persist_window(it->second.current, map);
      it = streams_.erase(it);
    } else {
      ++it;
    }
  }
}

bool OnDemandAllocator::prealloc_disabled(InodeNo inode,
                                          StreamId stream) const {
  std::lock_guard lock(mu_);
  auto it = streams_.find(Key{inode.v, stream.key()});
  return it != streams_.end() && !it->second.prealloc_on;
}

u64 OnDemandAllocator::sequential_window_blocks(InodeNo inode,
                                                StreamId stream) const {
  std::lock_guard lock(mu_);
  auto it = streams_.find(Key{inode.v, stream.key()});
  return it != streams_.end() ? it->second.sequential.len : 0;
}

u64 OnDemandAllocator::current_window_blocks(InodeNo inode,
                                             StreamId stream) const {
  std::lock_guard lock(mu_);
  auto it = streams_.find(Key{inode.v, stream.key()});
  return it != streams_.end() ? it->second.current.len : 0;
}

}  // namespace mif::alloc
