// Unit tests for the static (fallocate) allocator.
#include <gtest/gtest.h>

#include "alloc/static_prealloc.hpp"

namespace mif::alloc {
namespace {

struct StaticFixture : ::testing::Test {
  block::FreeSpace space{DiskBlock{0}, 64 * 1024, 4};
  StaticAllocator alloc{space};
  block::ExtentMap map;
};

TEST_F(StaticFixture, PreallocateMapsWholeFileUnwritten) {
  ASSERT_TRUE(alloc.preallocate(InodeNo{1}, map, 128).ok());
  EXPECT_EQ(map.mapped_blocks(), 128u);
  EXPECT_EQ(map.extent_count(), 1u);  // contiguous on an empty disk
  EXPECT_EQ(map.lookup(FileBlock{0})->flags, block::kExtentUnwritten);
}

TEST_F(StaticFixture, PreallocateIsIdempotentForPrefix) {
  ASSERT_TRUE(alloc.preallocate(InodeNo{1}, map, 64).ok());
  const u64 used = space.total_blocks() - space.free_blocks();
  ASSERT_TRUE(alloc.preallocate(InodeNo{1}, map, 32).ok());  // shrink: no-op
  EXPECT_EQ(space.total_blocks() - space.free_blocks(), used);
  ASSERT_TRUE(alloc.preallocate(InodeNo{1}, map, 96).ok());  // grow by 32
  EXPECT_EQ(map.mapped_blocks(), 96u);
}

TEST_F(StaticFixture, WritesIntoPreallocationStayContiguous) {
  ASSERT_TRUE(alloc.preallocate(InodeNo{1}, map, 128).ok());
  // Interleaved multi-stream writes — placement was fixed up front, so the
  // arrival order cannot fragment anything (the paper's Fig. 6 upper bound).
  for (u64 r = 0; r < 16; ++r) {
    for (u32 p = 0; p < 8; ++p) {
      ASSERT_TRUE(alloc
                      .extend({InodeNo{1}, StreamId{p, 0},
                               FileBlock{static_cast<u64>(p) * 16 + r}, 1},
                              map)
                      .ok());
    }
  }
  EXPECT_EQ(map.extent_count(), 1u);
  EXPECT_EQ(map.lookup(FileBlock{77})->flags, block::kExtentNone);
}

TEST_F(StaticFixture, WriteBeyondPreallocationFallsBack) {
  ASSERT_TRUE(alloc.preallocate(InodeNo{1}, map, 16).ok());
  ASSERT_TRUE(
      alloc.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{16}, 8}, map).ok());
  EXPECT_EQ(map.mapped_blocks(), 24u);
  EXPECT_GE(alloc.stats().layout_misses, 1u);
}

TEST_F(StaticFixture, PreallocationSurvivesClose) {
  ASSERT_TRUE(alloc.preallocate(InodeNo{1}, map, 64).ok());
  ASSERT_TRUE(
      alloc.extend({InodeNo{1}, StreamId{1, 1}, FileBlock{0}, 4}, map).ok());
  alloc.close_file(InodeNo{1}, map);
  // fallocate space is persistent: still fully mapped.
  EXPECT_EQ(map.mapped_blocks(), 64u);
}

TEST_F(StaticFixture, PreallocateFailsWhenDiskFull) {
  ASSERT_TRUE(alloc.preallocate(InodeNo{1}, map, 64 * 1024).ok());
  block::ExtentMap other;
  EXPECT_EQ(alloc.preallocate(InodeNo{2}, other, 1).error(), Errc::kNoSpace);
}

TEST_F(StaticFixture, FragmentedDiskYieldsMultipleExtents) {
  // Fill the device, then free scattered 32-block holes: no contiguous run
  // of 256 exists, but fallocate must still succeed piecewise.
  for (u64 g = 0; g < 4; ++g) {
    ASSERT_TRUE(space.allocate_exact(DiskBlock{g * 16384}, 16384));
  }
  for (u64 i = 0; i < 16; ++i) {
    ASSERT_TRUE(space.free_range({DiskBlock{i * 128}, 32}).ok());
  }
  ASSERT_TRUE(alloc.preallocate(InodeNo{1}, map, 256).ok());
  EXPECT_EQ(map.mapped_blocks(), 256u);
  EXPECT_GE(map.extent_count(), 8u);
}

}  // namespace
}  // namespace mif::alloc
