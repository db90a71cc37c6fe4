// Unit tests for the vanilla and reservation allocators (the paper's two
// non-MiF baselines) and the shared FileAllocator plumbing.
#include <gtest/gtest.h>

#include "alloc/allocator.hpp"
#include "alloc/reservation.hpp"
#include "alloc/vanilla.hpp"

namespace mif::alloc {
namespace {

struct AllocFixture : ::testing::Test {
  block::FreeSpace space{DiskBlock{0}, 64 * 1024, 4};
};

TEST_F(AllocFixture, FactoryMakesEveryMode) {
  for (auto m : {AllocatorMode::kVanilla, AllocatorMode::kReservation,
                 AllocatorMode::kStatic, AllocatorMode::kOnDemand}) {
    auto a = make_allocator(m, space);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->mode(), m);
  }
}

TEST_F(AllocFixture, ExtendMapsAndMarksWritten) {
  VanillaAllocator a(space);
  block::ExtentMap map;
  ASSERT_TRUE(a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{0}, 8}, map).ok());
  EXPECT_EQ(map.mapped_blocks(), 8u);
  for (u64 b = 0; b < 8; ++b) {
    auto e = map.lookup(FileBlock{b});
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->flags & block::kExtentUnwritten, 0u);
  }
}

TEST_F(AllocFixture, ExtendZeroCountRejected) {
  VanillaAllocator a(space);
  block::ExtentMap map;
  EXPECT_EQ(a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{0}, 0}, map)
                .error(),
            Errc::kInvalid);
}

TEST_F(AllocFixture, ExtendIsIdempotentOverMappedRanges) {
  VanillaAllocator a(space);
  block::ExtentMap map;
  ASSERT_TRUE(a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{0}, 8}, map).ok());
  const u64 used = space.total_blocks() - space.free_blocks();
  ASSERT_TRUE(a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{2}, 4}, map).ok());
  EXPECT_EQ(space.total_blocks() - space.free_blocks(), used);  // rewrite
}

TEST_F(AllocFixture, ExtendFillsHoles) {
  VanillaAllocator a(space);
  block::ExtentMap map;
  ASSERT_TRUE(a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{0}, 2}, map).ok());
  ASSERT_TRUE(a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{6}, 2}, map).ok());
  ASSERT_TRUE(a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{0}, 8}, map).ok());
  EXPECT_EQ(map.mapped_blocks(), 8u);
}

TEST_F(AllocFixture, DeleteFileFreesEverything) {
  VanillaAllocator a(space);
  block::ExtentMap map;
  ASSERT_TRUE(a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{0}, 32}, map).ok());
  a.delete_file(InodeNo{1}, map);
  EXPECT_EQ(space.free_blocks(), space.total_blocks());
  EXPECT_TRUE(map.empty());
}

TEST_F(AllocFixture, VanillaInterleavedStreamsFragmentTheFile) {
  // Fig. 1(a): arrival-order placement of concurrent streams makes a mess —
  // one extent per request.
  VanillaAllocator a(space);
  block::ExtentMap map;
  const u32 streams = 8;
  const u64 per_stream = 16;
  for (u64 r = 0; r < per_stream; ++r) {
    for (u32 p = 0; p < streams; ++p) {
      const u64 logical = static_cast<u64>(p) * per_stream + r;
      ASSERT_TRUE(
          a.extend({InodeNo{1}, StreamId{p, 0}, FileBlock{logical}, 1}, map)
              .ok());
    }
  }
  EXPECT_EQ(map.mapped_blocks(), streams * per_stream);
  // Every single-block request became its own extent (no two adjacent
  // requests of one stream are physically adjacent).
  EXPECT_GE(map.extent_count(), streams * per_stream - streams);
}

TEST_F(AllocFixture, ReservationSingleStreamIsContiguous) {
  ReservationAllocator a(space);
  block::ExtentMap map;
  for (u64 r = 0; r < 32; ++r) {
    ASSERT_TRUE(
        a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{r}, 1}, map).ok());
  }
  // A lone sequential writer gets (nearly) one extent out of reservation.
  EXPECT_LE(map.extent_count(), 2u);
}

TEST_F(AllocFixture, ReservationSharedFileStillFragments) {
  // The flaw MiF attacks: the reservation belongs to the inode, so
  // interleaved streams still produce arrival-order placement.
  ReservationAllocator a(space);
  block::ExtentMap map;
  const u32 streams = 8;
  const u64 per_stream = 16;
  for (u64 r = 0; r < per_stream; ++r) {
    for (u32 p = 0; p < streams; ++p) {
      const u64 logical = static_cast<u64>(p) * per_stream + r;
      ASSERT_TRUE(
          a.extend({InodeNo{1}, StreamId{p, 0}, FileBlock{logical}, 1}, map)
              .ok());
    }
  }
  // Far more extents than streams: intra-file fragmentation survives.
  EXPECT_GT(map.extent_count(), u64{streams} * 4);
}

TEST_F(AllocFixture, ReservationWindowDiscardedOnClose) {
  ReservationAllocator a(space);
  block::ExtentMap map;
  ASSERT_TRUE(a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{0}, 4}, map).ok());
  const u64 free_with_window = space.free_blocks();
  a.close_file(InodeNo{1}, map);
  // The unused reservation tail goes back to free space.
  EXPECT_GT(space.free_blocks(), free_with_window);
  // But the mapped data stays.
  EXPECT_EQ(map.mapped_blocks(), 4u);
}

TEST_F(AllocFixture, ReservationSurvivesExhaustedWindow) {
  ReservationAllocator a(space);
  block::ExtentMap map;
  // The first write opens a window; the second runs past its end, so the
  // allocator must refill mid-write.
  ASSERT_TRUE(a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{0}, 4}, map).ok());
  constexpr u64 kPast = ReservationAllocator::kWindowBlocks + 36;
  ASSERT_TRUE(
      a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{4}, kPast}, map).ok());
  EXPECT_EQ(map.mapped_blocks(), 4 + kPast);
}

TEST_F(AllocFixture, StatsCountExtends) {
  VanillaAllocator a(space);
  block::ExtentMap map;
  ASSERT_TRUE(a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{0}, 4}, map).ok());
  ASSERT_TRUE(a.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{4}, 4}, map).ok());
  EXPECT_EQ(a.stats().extends, 2u);
  EXPECT_EQ(a.stats().allocated_blocks, 8u);
}

TEST(AllocatorModeNames, RoundTrip) {
  EXPECT_EQ(to_string(AllocatorMode::kVanilla), "vanilla");
  EXPECT_EQ(to_string(AllocatorMode::kReservation), "reservation");
  EXPECT_EQ(to_string(AllocatorMode::kStatic), "static");
  EXPECT_EQ(to_string(AllocatorMode::kOnDemand), "on-demand");
}

}  // namespace
}  // namespace mif::alloc
