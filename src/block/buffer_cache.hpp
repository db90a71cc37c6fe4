// Block buffer cache (LRU, write-back).
//
// The MDS "satisfies requests from its local cache as much as possible"
// (§IV); what the paper measures is the *miss* traffic that reaches the
// disk.  This cache sits between the metadata file system and a disk's
// IoScheduler.  Payload bytes are not stored — the simulation only needs
// residency and dirtiness to decide which accesses become disk requests.
//
// Layout.  Two flat structures, no node allocation per block:
//   - a slot pool of at most `capacity` entries {block, prev, next, dirty},
//     threaded on an intrusive doubly linked LRU of u32 slot numbers (head =
//     most recent).  A hit relinks its slot at the head; a miss in a full
//     cache reuses the tail's slot after writing it back if dirty.
//   - a direct block → slot index, split into pages of kPageBlocks u32
//     entries (4 KiB).  A page is allocated on the first insert into its
//     block range and parked on a spare list when its last block leaves,
//     for the next page to reuse, so the index maps only pages that hold
//     cached blocks and a warm cache allocates nothing.
// The index is paged because the block space is the whole metadata volume
// (4 Mi blocks by default): one flat u32 array would cost 16 MiB per MDS
// whatever the cache holds.  Paged, it never holds more pages than the
// most cached blocks at once, and far fewer when they cluster: a 512-block
// cache over a 128 Ki-block volume needs at most 128 pages (512 KiB).
#pragma once

#include <memory>
#include <vector>

#include "sim/io_scheduler.hpp"
#include "util/types.hpp"

namespace mif::block {

struct CacheStats {
  u64 hits{0};
  u64 misses{0};
  u64 writebacks{0};
  u64 evictions{0};
  double hit_ratio() const {
    const u64 n = hits + misses;
    return n ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

class BufferCache {
 public:
  /// `capacity_blocks == 0` disables caching entirely (every access goes to
  /// disk) — used by benches that model cold-cache synchronous metadata.
  /// Slots are numbered by u32, so the capacity must stay below 2^32 - 1.
  BufferCache(sim::IoScheduler& io, u64 capacity_blocks);

  /// Read [start, start+len); issues disk reads for the non-resident subset.
  void read(DiskBlock start, u64 len);

  /// Dirty [start, start+len) in cache (allocating entries as needed).
  void write(DiskBlock start, u64 len);

  /// Write-through convenience: dirty then immediately flush that range.
  void write_sync(DiskBlock start, u64 len);

  /// Make [start, start+len) resident and CLEAN without any disk traffic.
  /// Used by journaled writers: the journal owns persistence (log +
  /// checkpoint), the cache only needs to know the blocks are up to date so
  /// subsequent reads hit.
  void install(DiskBlock start, u64 len);

  /// Flush all dirty blocks (sorted ascending so the scheduler can merge).
  void flush();

  /// Drop every entry (clean or dirty-after-flush); models memory pressure
  /// or a remount between benchmark phases.
  void invalidate_all();

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  u64 resident_blocks() const { return slots_.size(); }

  /// True if `block` is resident.  Touches neither the LRU nor the counters.
  bool cached(DiskBlock block) const { return find(block.v) != kNone; }

 private:
  static constexpr u32 kNone = ~u32{0};
  static constexpr u32 kPageBits = 10;
  static constexpr u64 kPageBlocks = u64{1} << kPageBits;

  struct Slot {
    u64 block{0};
    u32 prev{kNone};  // towards the head (more recent)
    u32 next{kNone};  // towards the tail (less recent)
    bool dirty{false};
  };
  struct Page {
    std::unique_ptr<u32[]> slot;  // kPageBlocks entries, kNone = absent
    u32 resident{0};
  };

  u32 find(u64 block) const;
  void index(u64 block, u32 slot);
  void unindex(u64 block);
  void unlink(u32 s);
  void push_front(u32 s);
  void touch(u32 s);
  void insert(u64 block, bool dirty);
  u32 evict_one();

  sim::IoScheduler& io_;
  u64 capacity_;
  std::vector<Slot> slots_;  // every slot in use; never more than capacity_
  u32 head_{kNone};
  u32 tail_{kNone};
  std::vector<Page> pages_;  // by block >> kPageBits, grown on demand
  std::vector<std::unique_ptr<u32[]>> spare_pages_;  // emptied, all kNone
  CacheStats stats_;
};

}  // namespace mif::block
