// Unit tests for on-demand preallocation — the paper's §III algorithm:
// trigger semantics, window promotion and ramp-up, miss-threshold demotion,
// stream isolation, persistence of the current window.
#include <gtest/gtest.h>

#include <vector>

#include "alloc/ondemand.hpp"

namespace mif::alloc {
namespace {

struct OnDemandFixture : ::testing::Test {
  block::FreeSpace space{DiskBlock{0}, 256 * 1024, 4};
  AllocatorTuning tuning{};  // scale=2, max=2048, miss_threshold=4
  OnDemandAllocator alloc{space, tuning};
  block::ExtentMap map;

  Status write(u32 stream, u64 logical, u64 count = 1) {
    return alloc.extend(
        {InodeNo{1}, StreamId{stream, 0}, FileBlock{logical}, count}, map);
  }
};

TEST_F(OnDemandFixture, FirstExtendSeedsSequentialWindow) {
  ASSERT_TRUE(write(1, 0).ok());
  EXPECT_EQ(alloc.stats().layout_misses, 1u);  // first extend IS a miss
  // window = write_size × scale = 2 blocks.
  EXPECT_EQ(alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0}), 2u);
}

TEST_F(OnDemandFixture, SequentialWritesPromoteAndRampExponentially) {
  ASSERT_TRUE(write(1, 0).ok());
  u64 prev = alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0});
  u64 promotions = 0;
  for (u64 b = 1; b < 200; ++b) {
    ASSERT_TRUE(write(1, b).ok());
    const u64 w = alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0});
    if (alloc.stats().prealloc_promotions > promotions) {
      promotions = alloc.stats().prealloc_promotions;
      EXPECT_GE(w, prev);  // windows never shrink while sequential
      prev = w;
    }
  }
  EXPECT_GT(promotions, 3u);
  // Ramp reached a big window: 2 → 4 → 8 → ...
  EXPECT_GE(prev, 64u);
  // Only the very first write was a miss.
  EXPECT_EQ(alloc.stats().layout_misses, 1u);
}

TEST_F(OnDemandFixture, SequentialStreamEndsWithFewExtents) {
  for (u64 b = 0; b < 512; ++b) ASSERT_TRUE(write(1, b).ok());
  // One stream, in-place window growth: essentially one physical run.
  EXPECT_LE(map.extent_count(), 4u);
}

TEST_F(OnDemandFixture, WindowCappedAtMaxPreallocation) {
  AllocatorTuning t;
  t.max_preallocation_blocks = 16;
  OnDemandAllocator a(space, t);
  block::ExtentMap m;
  for (u64 b = 0; b < 300; ++b) {
    ASSERT_TRUE(
        a.extend({InodeNo{2}, StreamId{1, 0}, FileBlock{b}, 1}, m).ok());
    EXPECT_LE(a.sequential_window_blocks(InodeNo{2}, StreamId{1, 0}), 16u);
  }
}

TEST_F(OnDemandFixture, InterleavedStreamsStayContiguousPerRegion) {
  // The headline behaviour (Fig. 3): concurrent streams extending disjoint
  // regions each get contiguous placement.
  const u32 streams = 8;
  const u64 per_stream = 64;
  for (u64 r = 0; r < per_stream; ++r) {
    for (u32 p = 0; p < streams; ++p) {
      ASSERT_TRUE(write(p, static_cast<u64>(p) * per_stream + r).ok());
    }
  }
  // Mapped ≥ written: promoted windows may leave persistent unwritten tails.
  EXPECT_GE(map.mapped_blocks(), u64{streams} * per_stream);
  // A handful of extents per stream (first block + a few window joins), not
  // one per request: the 5-10× reduction of Table I.  Interleaved requests
  // would produce ~streams × per_stream extents under arrival-order
  // placement.
  EXPECT_LE(map.extent_count(), u64{streams} * 8);
  EXPECT_GT(alloc.stats().prealloc_promotions, u64{streams});
}

TEST_F(OnDemandFixture, RandomStreamGetsDemoted) {
  // Writes far apart → layout_miss each time; at the 4th miss the stream is
  // classified random and preallocation turns off.
  ASSERT_TRUE(write(1, 0).ok());
  ASSERT_TRUE(write(1, 1000).ok());
  ASSERT_TRUE(write(1, 2000).ok());
  ASSERT_TRUE(write(1, 3000).ok());
  EXPECT_FALSE(alloc.prealloc_disabled(InodeNo{1}, StreamId{1, 0}));
  ASSERT_TRUE(write(1, 4000).ok());
  EXPECT_TRUE(alloc.prealloc_disabled(InodeNo{1}, StreamId{1, 0}));
  EXPECT_EQ(alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0}), 0u);
  EXPECT_EQ(alloc.stats().prealloc_disabled, 1u);
  // Once random, no more reservations are made.
  ASSERT_TRUE(write(1, 5000).ok());
  EXPECT_EQ(alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0}), 0u);
}

TEST_F(OnDemandFixture, SequentialStreamUnaffectedByRandomSibling) {
  // §III-B: "preallocation sequence of the sequential stream interposed by
  // random streams is not interrupted".
  for (u64 b = 0; b < 32; ++b) {
    ASSERT_TRUE(write(1, b).ok());                        // sequential
    ASSERT_TRUE(write(2, 100000 - b * 777).ok());         // random
  }
  EXPECT_FALSE(alloc.prealloc_disabled(InodeNo{1}, StreamId{1, 0}));
  EXPECT_TRUE(alloc.prealloc_disabled(InodeNo{1}, StreamId{2, 0}));
  // Sequential stream's region stays in a handful of runs (the random
  // sibling steals a few adjacent blocks early on), nowhere near the one
  // extent-per-request of arrival-order placement.
  u64 extents_in_region = 0;
  for (const auto& e : map)
    if (e.file_off.v < 32) ++extents_in_region;
  EXPECT_LE(extents_in_region, 8u);
}

TEST_F(OnDemandFixture, CloseReleasesTemporaryButKeepsPersistent) {
  for (u64 b = 0; b < 10; ++b) ASSERT_TRUE(write(1, b).ok());
  const u64 mapped = map.mapped_blocks();
  EXPECT_GT(alloc.stats().reserved_blocks, 0u);
  alloc.close_file(InodeNo{1}, map);
  // Sequential (temporary) reservation returned…
  EXPECT_EQ(alloc.stats().reserved_blocks, 0u);
  // …but the current window persists — its unused remainder lands in the
  // map as unwritten extents ("preallocated blocks in the current window
  // are persistent across system reboot", §III-C).
  EXPECT_GE(map.mapped_blocks(), mapped);
  EXPECT_GE(mapped, 10u);
}

TEST_F(OnDemandFixture, OtherStreamsCannotAllocateInsideReservedWindow) {
  ASSERT_TRUE(write(1, 0, 4).ok());
  const u64 free_after = space.free_blocks();
  // The sequential window is carved out of free space immediately.
  EXPECT_EQ(space.total_blocks() - free_after,
            map.mapped_blocks() +
                alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0}));
}

TEST_F(OnDemandFixture, WindowSizeScalesWithWriteSize) {
  // init size = write_size × scale (§III-C rule 1).
  ASSERT_TRUE(write(1, 0, 8).ok());
  EXPECT_EQ(alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0}), 16u);
}

TEST_F(OnDemandFixture, Scale4RampsFaster) {
  AllocatorTuning t;
  t.scale = 4;
  OnDemandAllocator a(space, t);
  block::ExtentMap m;
  ASSERT_TRUE(
      a.extend({InodeNo{3}, StreamId{1, 0}, FileBlock{0}, 2}, m).ok());
  EXPECT_EQ(a.sequential_window_blocks(InodeNo{3}, StreamId{1, 0}), 8u);
}

TEST_F(OnDemandFixture, DeleteFileReturnsAllSpace) {
  for (u64 b = 0; b < 100; ++b) ASSERT_TRUE(write(1, b).ok());
  alloc.delete_file(InodeNo{1}, map);
  EXPECT_EQ(space.free_blocks(), space.total_blocks());
}

TEST_F(OnDemandFixture, WritesIntoPromotedWindowBypassAllocator) {
  // Fig. 3 T3: a write inside the current window hits neither trigger.
  ASSERT_TRUE(write(1, 0).ok());   // miss, window [1,3)
  ASSERT_TRUE(write(1, 1).ok());   // promotion → current [1,3), seq [3,7)
  const u64 misses = alloc.stats().layout_misses;
  const u64 promos = alloc.stats().prealloc_promotions;
  ASSERT_TRUE(write(1, 2).ok());   // inside current window
  EXPECT_EQ(alloc.stats().layout_misses, misses);
  EXPECT_EQ(alloc.stats().prealloc_promotions, promos);
}

// --- state-machine transitions, step by step --------------------------------
// Each extend fires at most one trigger; the stats deltas name it, and the
// window probes show its effect on the stream.

/// How the stats moved across one step.
struct Delta {
  u64 misses;
  u64 promotions;
  u64 demotions;
  u64 released;  // reserved blocks given back to free space
};

Delta delta(const AllocatorStats& before, const AllocatorStats& after) {
  return {after.layout_misses - before.layout_misses,
          after.prealloc_promotions - before.prealloc_promotions,
          after.prealloc_disabled - before.prealloc_disabled,
          after.released_blocks - before.released_blocks};
}

TEST_F(OnDemandFixture, TransitionsStepByStep) {
  // Fig. 3 walked with default tuning (scale=2, miss_threshold=4).
  const InodeNo ino{1};
  const StreamId sid{1, 0};
  const struct {
    u64 logical;
    Delta want;
    u64 current;     // window lengths after the step
    u64 sequential;
    bool disabled;
  } steps[] = {
      {0, {1, 0, 0, 0}, 0, 2, false},     // miss: seed seq window [1,3)
      {1, {0, 1, 0, 0}, 2, 4, false},     // promote: current 2, seq 4
      {2, {0, 0, 0, 0}, 2, 4, false},     // inside current window
      {3, {0, 1, 0, 0}, 4, 8, false},     // promote: seq ramps to 8
      {1000, {1, 0, 0, 8}, 0, 2, false},  // miss 1: re-seed, seq 8 freed
      {2000, {1, 0, 0, 2}, 0, 2, false},  // miss 2
      {3000, {1, 0, 0, 2}, 0, 2, false},  // miss 3
      {4000, {1, 0, 1, 2}, 0, 0, true},   // miss 4 = threshold: demote
  };
  for (const auto& step : steps) {
    SCOPED_TRACE(::testing::Message() << "write at " << step.logical);
    const AllocatorStats before = alloc.stats();
    ASSERT_TRUE(write(1, step.logical).ok());
    const Delta d = delta(before, alloc.stats());
    EXPECT_EQ(d.misses, step.want.misses);
    EXPECT_EQ(d.promotions, step.want.promotions);
    EXPECT_EQ(d.demotions, step.want.demotions);
    EXPECT_EQ(d.released, step.want.released);
    EXPECT_EQ(alloc.current_window_blocks(ino, sid), step.current);
    EXPECT_EQ(alloc.sequential_window_blocks(ino, sid), step.sequential);
    EXPECT_EQ(alloc.prealloc_disabled(ino, sid), step.disabled);
  }
  // The first extend seeds the stream; the demotion came at the
  // miss_threshold-th miss after it.
  EXPECT_EQ(alloc.stats().layout_misses, 1 + tuning.miss_threshold);
}

TEST_F(OnDemandFixture, LazyFreeOnCloseReleasesTheSequentialWindow) {
  for (u64 b = 0; b < 4; ++b) ASSERT_TRUE(write(1, b).ok());
  const u64 window =
      alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0});
  ASSERT_GT(window, 0u);
  const AllocatorStats before = alloc.stats();
  alloc.close_file(InodeNo{1}, map);
  // Exactly the stream's sequential window went back to free space.
  EXPECT_EQ(delta(before, alloc.stats()).released, window);
  EXPECT_EQ(alloc.stats().reserved_blocks, 0u);
  EXPECT_EQ(alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0}), 0u);
}

TEST_F(OnDemandFixture, InterleavedStreamsEachRampFromOneMiss) {
  // Scripted shared-file write: three streams interleave on inode 1.  Each
  // step's trigger is charged to the stream that wrote, and every stream
  // shows the same miss → promote ramp, undisturbed by its siblings.
  const u64 per_stream = 16;
  std::vector<char> triggers[3];  // per stream: 'm' miss, 'p' promotion
  for (u64 r = 0; r < per_stream; ++r) {
    for (u32 p = 0; p < 3; ++p) {
      const AllocatorStats before = alloc.stats();
      ASSERT_TRUE(write(p, static_cast<u64>(p) * per_stream + r).ok());
      const Delta d = delta(before, alloc.stats());
      ASSERT_LE(d.misses + d.promotions, 1u);
      if (d.misses) triggers[p].push_back('m');
      if (d.promotions) triggers[p].push_back('p');
    }
  }
  for (u32 p = 0; p < 3; ++p) {
    SCOPED_TRACE(::testing::Message() << "stream " << p);
    ASSERT_GE(triggers[p].size(), 3u);
    EXPECT_EQ(triggers[p][0], 'm');
    for (std::size_t i = 1; i < triggers[p].size(); ++i) {
      EXPECT_EQ(triggers[p][i], 'p') << "trigger " << i;
    }
  }
}

}  // namespace
}  // namespace mif::alloc
