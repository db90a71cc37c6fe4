// Unit and differential tests for the buffer cache, and unit tests for the
// write-ahead journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>
#include <vector>

#include "block/buffer_cache.hpp"
#include "block/journal.hpp"
#include "util/rng.hpp"

namespace mif::block {
namespace {

struct CacheFixture : ::testing::Test {
  sim::Disk disk;
  sim::IoScheduler io{disk, 1024};
};

TEST_F(CacheFixture, MissThenHit) {
  BufferCache c(io, 64);
  c.read(DiskBlock{10}, 4);
  io.drain();
  EXPECT_EQ(c.stats().misses, 4u);
  EXPECT_EQ(disk.stats().blocks_read, 4u);
  c.read(DiskBlock{10}, 4);
  io.drain();
  EXPECT_EQ(c.stats().hits, 4u);
  EXPECT_EQ(disk.stats().blocks_read, 4u);  // no new traffic
}

TEST_F(CacheFixture, PartialResidencyReadsOnlyHoles) {
  BufferCache c(io, 64);
  c.read(DiskBlock{0}, 2);
  io.drain();
  disk.reset_stats();
  c.read(DiskBlock{0}, 6);  // [0,2) cached, [2,6) missing
  io.drain();
  EXPECT_EQ(disk.stats().blocks_read, 4u);
}

TEST_F(CacheFixture, WriteBackOnFlushMergesRuns) {
  BufferCache c(io, 64);
  c.write(DiskBlock{5}, 1);
  c.write(DiskBlock{6}, 1);
  c.write(DiskBlock{7}, 1);
  EXPECT_EQ(disk.stats().blocks_written, 0u);  // write-back, not through
  c.flush();
  io.drain();
  EXPECT_EQ(disk.stats().blocks_written, 3u);
  EXPECT_EQ(disk.stats().requests, 1u);  // one merged writeback
}

TEST_F(CacheFixture, EvictionWritesDirtyVictims) {
  BufferCache c(io, 4);
  c.write(DiskBlock{0}, 4);
  c.read(DiskBlock{100}, 2);  // evicts blocks 0 and 1, both dirty
  io.drain();
  EXPECT_EQ(c.stats().writebacks, 2u);
  EXPECT_EQ(c.stats().evictions, 2u);
  EXPECT_EQ(disk.stats().blocks_written, 2u);
  EXPECT_EQ(c.resident_blocks(), 4u);
}

TEST_F(CacheFixture, LruKeepsHotBlocks) {
  BufferCache c(io, 4);
  c.read(DiskBlock{0}, 4);
  c.read(DiskBlock{0}, 1);  // touch block 0 → hottest
  c.read(DiskBlock{50}, 1); // evicts block 1 (coldest)
  EXPECT_FALSE(c.cached(DiskBlock{1}));
  EXPECT_TRUE(c.cached(DiskBlock{0}));
  EXPECT_EQ(c.stats().hits + c.stats().misses, 6u);  // probes count nothing
  io.drain();
  disk.reset_stats();
  c.read(DiskBlock{0}, 1);
  io.drain();
  EXPECT_EQ(disk.stats().blocks_read, 0u);  // still resident
}

TEST_F(CacheFixture, InstallMakesResidentWithoutIo) {
  BufferCache c(io, 64);
  c.install(DiskBlock{20}, 4);
  io.drain();
  EXPECT_EQ(disk.stats().requests, 0u);
  c.read(DiskBlock{20}, 4);
  io.drain();
  EXPECT_EQ(disk.stats().blocks_read, 0u);
  EXPECT_EQ(c.stats().hits, 4u);
}

TEST_F(CacheFixture, ZeroCapacityBypassesCaching) {
  BufferCache c(io, 0);
  c.read(DiskBlock{0}, 2);
  io.drain();  // drain between reads so the scheduler cannot merge them
  c.read(DiskBlock{0}, 2);
  io.drain();
  EXPECT_EQ(disk.stats().blocks_read, 4u);  // nothing retained
  c.write(DiskBlock{10}, 1);
  io.drain();
  EXPECT_EQ(disk.stats().blocks_written, 1u);  // write-through
}

TEST_F(CacheFixture, InvalidateAllFlushesAndDrops) {
  BufferCache c(io, 64);
  c.write(DiskBlock{0}, 3);
  c.invalidate_all();
  EXPECT_EQ(c.resident_blocks(), 0u);
  EXPECT_EQ(disk.stats().blocks_written, 3u);
}

TEST_F(CacheFixture, WriteSyncGoesStraightToDisk) {
  BufferCache c(io, 64);
  c.write_sync(DiskBlock{7}, 2);
  io.drain();
  EXPECT_EQ(disk.stats().blocks_written, 2u);
}

// The cache as it was before the slot pool and the paged index: a hash map
// of entries and a std::list for the LRU order.  Kept verbatim as the
// reference the flat cache must agree with, step for step.
class RefCache {
 public:
  RefCache(sim::IoScheduler& io, u64 capacity_blocks)
      : io_(io), capacity_(capacity_blocks) {}

  void read(DiskBlock start, u64 len) {
    // Coalesce the missing sub-ranges into as few disk requests as possible.
    u64 miss_start = kNoBlock;
    for (u64 b = start.v; b < start.v + len; ++b) {
      if (auto it = map_.find(b); it != map_.end()) {
        ++stats_.hits;
        touch(b);
        if (miss_start != kNoBlock) {
          io_.submit(
              {sim::IoKind::kRead, DiskBlock{miss_start}, b - miss_start});
          miss_start = kNoBlock;
        }
      } else {
        ++stats_.misses;
        insert(b, /*dirty=*/false);
        if (miss_start == kNoBlock) miss_start = b;
      }
    }
    if (miss_start != kNoBlock) {
      io_.submit({sim::IoKind::kRead, DiskBlock{miss_start},
                  start.v + len - miss_start});
    }
  }

  void write(DiskBlock start, u64 len) {
    if (capacity_ == 0) {
      io_.submit({sim::IoKind::kWrite, start, len});
      ++stats_.writebacks;
      return;
    }
    for (u64 b = start.v; b < start.v + len; ++b) {
      if (auto it = map_.find(b); it != map_.end()) {
        ++stats_.hits;
        it->second.dirty = true;
        touch(b);
      } else {
        ++stats_.misses;
        insert(b, /*dirty=*/true);
      }
    }
  }

  void install(DiskBlock start, u64 len) {
    if (capacity_ == 0) return;
    for (u64 b = start.v; b < start.v + len; ++b) {
      if (auto it = map_.find(b); it != map_.end()) {
        touch(b);
      } else {
        insert(b, /*dirty=*/false);
      }
    }
  }

  void write_sync(DiskBlock start, u64 len) {
    write(start, len);
    if (capacity_ == 0) return;
    // Flush just this range.
    for (u64 b = start.v; b < start.v + len; ++b) {
      auto it = map_.find(b);
      if (it != map_.end() && it->second.dirty) it->second.dirty = false;
    }
    io_.submit({sim::IoKind::kWrite, start, len});
    ++stats_.writebacks;
  }

  void flush() {
    std::vector<u64> dirty;
    for (auto& [block, entry] : map_) {
      if (entry.dirty) {
        dirty.push_back(block);
        entry.dirty = false;
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

  void invalidate_all() {
    flush();
    io_.drain();
    lru_.clear();
    map_.clear();
  }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  u64 resident_blocks() const { return map_.size(); }
  /// Resident blocks, most recently used first.
  const std::list<u64>& lru() const { return lru_; }

 private:
  struct Entry {
    std::list<u64>::iterator lru_pos;
    bool dirty{false};
  };

  void touch(u64 block) {
    auto it = map_.find(block);
    lru_.erase(it->second.lru_pos);
    lru_.push_front(block);
    it->second.lru_pos = lru_.begin();
  }

  void insert(u64 block, bool dirty) {
    if (capacity_ == 0) return;
    while (map_.size() >= capacity_) evict_one();
    lru_.push_front(block);
    map_[block] = Entry{lru_.begin(), dirty};
  }

  void evict_one() {
    const u64 victim = lru_.back();
    auto it = map_.find(victim);
    const bool dirty = it->second.dirty;
    if (dirty) {
      io_.submit({sim::IoKind::kWrite, DiskBlock{victim}, 1});
      ++stats_.writebacks;
    }
    map_.erase(it);
    lru_.pop_back();
    ++stats_.evictions;
  }

  sim::IoScheduler& io_;
  u64 capacity_;
  std::list<u64> lru_;  // front = most recent
  std::unordered_map<u64, Entry> map_;
  CacheStats stats_;
};

// A BufferCache and a RefCache, each in front of its own disk and scheduler,
// given the same operations.  The small scheduler queue drains
// mid-operation, so the order of every submit shows in the disks' head
// movement and timing.
struct CacheTwin {
  CacheTwin(u64 capacity, std::size_t queue)
      : io(disk, queue), ref_io(ref_disk, queue), cache(io, capacity),
        ref(ref_io, capacity) {}

  sim::Disk disk;
  sim::Disk ref_disk;
  sim::IoScheduler io;
  sim::IoScheduler ref_io;
  BufferCache cache;
  RefCache ref;
};

// Everything either side exposes after a step: cache counters, the disks
// and schedulers, and which blocks are resident (an LRU that evicts a
// different victim shows up there).
::testing::AssertionResult same_state(const CacheTwin& t) {
  const CacheStats& a = t.cache.stats();
  const CacheStats& b = t.ref.stats();
  if (a.hits != b.hits || a.misses != b.misses ||
      a.writebacks != b.writebacks || a.evictions != b.evictions) {
    return ::testing::AssertionFailure()
           << "cache stats: hits " << a.hits << "/" << b.hits << ", misses "
           << a.misses << "/" << b.misses << ", writebacks " << a.writebacks
           << "/" << b.writebacks << ", evictions " << a.evictions << "/"
           << b.evictions;
  }
  if (t.cache.resident_blocks() != t.ref.resident_blocks()) {
    return ::testing::AssertionFailure()
           << "resident " << t.cache.resident_blocks() << "/"
           << t.ref.resident_blocks();
  }
  const sim::DiskStats& d = t.disk.stats();
  const sim::DiskStats& r = t.ref_disk.stats();
  if (d.requests != r.requests || d.positionings != r.positionings ||
      d.skips != r.skips || d.sequential_hits != r.sequential_hits ||
      d.blocks_read != r.blocks_read || d.blocks_written != r.blocks_written ||
      d.seek_ms != r.seek_ms || d.rotation_ms != r.rotation_ms ||
      d.skip_ms != r.skip_ms || d.transfer_ms != r.transfer_ms ||
      t.disk.head().v != t.ref_disk.head().v ||
      t.disk.now_ms() != t.ref_disk.now_ms()) {
    return ::testing::AssertionFailure()
           << "disk: requests " << d.requests << "/" << r.requests
           << ", read " << d.blocks_read << "/" << r.blocks_read
           << ", written " << d.blocks_written << "/" << r.blocks_written
           << ", head " << t.disk.head().v << "/" << t.ref_disk.head().v;
  }
  const sim::SchedulerStats& q = t.io.stats();
  const sim::SchedulerStats& p = t.ref_io.stats();
  if (q.queued != p.queued || q.dispatched != p.dispatched ||
      q.merged != p.merged || t.io.queue_depth() != t.ref_io.queue_depth()) {
    return ::testing::AssertionFailure()
           << "scheduler: queued " << q.queued << "/" << p.queued
           << ", dispatched " << q.dispatched << "/" << p.dispatched;
  }
  // Both hold as many blocks (checked above), so this makes the resident
  // sets equal: every block of the volume is resident on both or neither.
  for (u64 b : t.ref.lru()) {
    if (!t.cache.cached(DiskBlock{b})) {
      return ::testing::AssertionFailure()
             << "block " << b << " resident in the reference only";
    }
  }
  return ::testing::AssertionSuccess();
}

// Where the random operations land: the first index page, a window across
// the first page boundary, a window across a boundary mid-volume, and the
// top of the default 4 Mi-block volume (its last block included).
struct Window {
  u64 base;
  u64 width;
};
constexpr u64 kVolumeBlocks = sim::DiskGeometry{}.capacity_blocks;
constexpr Window kWindows[] = {
    {0, 700},
    {1024 - 300, 600},
    {1954 * 1024 - 250, 500},
    {kVolumeBlocks - 600, 600},
};

// One seeded random sequence of reads, writes, installs, synchronous
// writes, flushes, invalidations, drains and stat resets, checked after
// every step.  Ranges are mostly short, sometimes repeat a recent one (so
// small caches hit too) and sometimes exceed the largest capacity.
void run_differential(u64 capacity, u64 seed, int steps) {
  SCOPED_TRACE(::testing::Message() << "capacity " << capacity << ", seed "
                                    << seed);
  CacheTwin t(capacity, /*queue=*/8);
  Rng rng(seed);
  std::vector<BlockRange> recent;
  for (int step = 0; step < steps; ++step) {
    BlockRange r;
    if (!recent.empty() && rng.chance(0.3)) {
      r = recent[rng.uniform(0, recent.size() - 1)];
    } else {
      const Window& w = kWindows[rng.uniform(0, std::size(kWindows) - 1)];
      const u64 start = w.base + rng.uniform(0, w.width - 1);
      const u64 len = rng.chance(0.03) ? rng.uniform(9, 700)
                                       : rng.uniform(1, 8);
      r = {DiskBlock{start}, std::min(len, kVolumeBlocks - start)};
      if (recent.size() < 16) {
        recent.push_back(r);
      } else {
        recent[rng.uniform(0, recent.size() - 1)] = r;
      }
    }
    const double op = rng.uniform01();
    if (op < 0.35) {
      t.cache.read(r.start, r.length);
      t.ref.read(r.start, r.length);
    } else if (op < 0.55) {
      t.cache.write(r.start, r.length);
      t.ref.write(r.start, r.length);
    } else if (op < 0.70) {
      t.cache.install(r.start, r.length);
      t.ref.install(r.start, r.length);
    } else if (op < 0.82) {
      t.cache.write_sync(r.start, r.length);
      t.ref.write_sync(r.start, r.length);
    } else if (op < 0.87) {
      t.cache.flush();
      t.ref.flush();
    } else if (op < 0.89) {
      t.cache.invalidate_all();
      t.ref.invalidate_all();
    } else if (op < 0.99) {
      t.io.drain();
      t.ref_io.drain();
    } else {
      t.cache.reset_stats();
      t.ref.reset_stats();
    }
    ASSERT_TRUE(same_state(t)) << "step " << step;
  }
  t.cache.invalidate_all();
  t.ref.invalidate_all();
  ASSERT_TRUE(same_state(t)) << "final invalidate_all";
  EXPECT_EQ(t.cache.resident_blocks(), 0u);
}

TEST(CacheDifferential, MatchesReferenceAtEveryCapacity) {
  for (u64 capacity : {u64{0}, u64{1}, u64{4}, u64{512}}) {
    for (u64 seed : {u64{1}, u64{2}, u64{3}}) {
      run_differential(capacity, seed, 4000);
    }
  }
}

// A 512-block cache cycling over 640 blocks that straddle an index page
// boundary: every access misses and evicts (the aged-MDS shape), pages
// empty and refill, and the LRU order must still match exactly.
TEST(CacheDifferential, CyclingWorkingSetLargerThanCapacity) {
  CacheTwin t(512, /*queue=*/64);
  for (int pass = 0; pass < 4; ++pass) {
    for (u64 b = 0; b < 640; ++b) {
      const DiskBlock blk{3 * 1024 - 320 + b};
      if (b % 3 == 0) {
        t.cache.write(blk, 1);
        t.ref.write(blk, 1);
      } else {
        t.cache.read(blk, 1);
        t.ref.read(blk, 1);
      }
      ASSERT_TRUE(same_state(t)) << "pass " << pass << ", block " << b;
    }
  }
  EXPECT_EQ(t.cache.stats().hits, 0u);
  EXPECT_EQ(t.cache.stats().evictions, 4 * 640u - 512u);
  t.cache.flush();
  t.ref.flush();
  ASSERT_TRUE(same_state(t));
}

struct JournalFixture : ::testing::Test {
  sim::Disk disk;
  sim::IoScheduler io{disk, 1024};
};

TEST_F(JournalFixture, LogWritesSequentiallyIntoArea) {
  Journal j(io, DiskBlock{0}, 1024, /*checkpoint_interval=*/1000);
  j.log({{DiskBlock{5000}, 1}});
  j.log({{DiskBlock{9000}, 1}});
  io.drain();
  EXPECT_EQ(j.stats().transactions, 2u);
  EXPECT_EQ(j.stats().journal_blocks, 4u);  // 2 × (1 record + 1 commit)
  // Before a checkpoint, nothing is written to home locations.
  EXPECT_EQ(j.stats().checkpoint_blocks, 0u);
  // Journal writes land inside [0, 1024).
  EXPECT_LE(disk.head().v, 1024u);
}

TEST_F(JournalFixture, CheckpointWritesHomeLocationsMerged) {
  Journal j(io, DiskBlock{0}, 1024, 1000);
  j.log({{DiskBlock{5000}, 1}});
  j.log({{DiskBlock{5001}, 1}});  // adjacent home blocks
  j.log({{DiskBlock{5000}, 1}});  // duplicate
  j.checkpoint();
  io.drain();
  EXPECT_EQ(j.stats().checkpoints, 1u);
  EXPECT_EQ(j.stats().checkpoint_blocks, 2u);  // merged + deduped
}

TEST_F(JournalFixture, AutoCheckpointAtInterval) {
  Journal j(io, DiskBlock{0}, 1024, 3);
  j.log({{DiskBlock{5000}, 1}});
  j.log({{DiskBlock{6000}, 1}});
  EXPECT_EQ(j.stats().checkpoints, 0u);
  j.log({{DiskBlock{7000}, 1}});
  EXPECT_EQ(j.stats().checkpoints, 1u);
}

TEST_F(JournalFixture, WrapForcesCheckpoint) {
  Journal j(io, DiskBlock{0}, 16, 1000);  // tiny journal area
  for (int i = 0; i < 10; ++i) j.log({{DiskBlock{u64(4000 + i)}, 1}});
  EXPECT_GE(j.stats().checkpoints, 1u);
}

// A checkpoint writes each maximal run of the union of the logged home
// ranges once: what sorting the ranges and merging overlapping or adjacent
// neighbours gives.  Ranges here span bitmap words and repeat, overlap and
// abut; three rounds check that a checkpoint forgets what it wrote.
TEST_F(JournalFixture, CheckpointWritesTheUnionsMaximalRuns) {
  // An area no round's records fill, so no wrap checkpoints early.
  Journal j(io, DiskBlock{0}, 1 << 20, /*checkpoint_interval=*/100000);
  Rng rng(17);
  for (int round = 0; round < 3; ++round) {
    std::vector<BlockRange> logged;
    for (int i = 0; i < 400; ++i) {
      const u64 start = (2 << 20) + rng.uniform(0, 3000);
      const u64 len = rng.chance(0.7) ? 1 : rng.uniform(1, 150);
      logged.push_back({DiskBlock{start}, len});
      j.log({logged.back()});
    }
    j.commit();
    // Reference: sort and merge.
    std::sort(logged.begin(), logged.end(),
              [](const BlockRange& a, const BlockRange& b) {
                return a.start.v < b.start.v;
              });
    u64 runs = 0;
    u64 blocks = 0;
    for (std::size_t i = 0; i < logged.size();) {
      u64 end = logged[i].end();
      std::size_t k = i + 1;
      while (k < logged.size() && logged[k].start.v <= end) {
        end = std::max(end, logged[k].end());
        ++k;
      }
      ++runs;
      blocks += end - logged[i].start.v;
      i = k;
    }
    const u64 queued = io.stats().queued;
    const u64 written = j.stats().checkpoint_blocks;
    j.checkpoint();
    EXPECT_EQ(io.stats().queued - queued, runs) << "round " << round;
    EXPECT_EQ(j.stats().checkpoint_blocks - written, blocks)
        << "round " << round;
    EXPECT_EQ(j.backlog_blocks(), 0u);
  }
}

TEST_F(JournalFixture, EmptyCheckpointIsNoop) {
  Journal j(io, DiskBlock{0}, 64, 4);
  j.checkpoint();
  io.drain();
  EXPECT_EQ(j.stats().checkpoints, 0u);
  EXPECT_EQ(disk.stats().requests, 0u);
}

}  // namespace
}  // namespace mif::block
