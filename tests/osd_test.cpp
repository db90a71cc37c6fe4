// Unit tests for striping math and the storage target data path.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "osd/storage_target.hpp"
#include "osd/striping.hpp"
#include "util/rng.hpp"

namespace mif::osd {
namespace {

// The slices slices_for hands its visitor, in order.
std::vector<StripeSlice> slices_of(const StripeLayout& l, FileBlock start,
                                   u64 count) {
  std::vector<StripeSlice> out;
  slices_for(l, start, count,
             [&out](const StripeSlice& s) { out.push_back(s); });
  return out;
}

// slices_for as it was when it returned a vector, kept verbatim as the
// reference the visitor must reproduce.
std::vector<StripeSlice> ref_slices_for(const StripeLayout& layout,
                                        FileBlock start, u64 count) {
  constexpr u64 kUnit = StripeLayout::kUnitBlocks;
  std::vector<StripeSlice> out;
  u64 pos = start.v;
  const u64 end = start.v + count;
  while (pos < end) {
    const u64 unit_end = (pos / kUnit + 1) * kUnit;
    const u64 take = std::min(end, unit_end) - pos;
    const FileBlock g{pos};
    StripeSlice s{target_of(layout, g), to_local(layout, g), take, g};
    if (!out.empty() && out.back().target == s.target &&
        out.back().local_start.v + out.back().count == s.local_start.v) {
      out.back().count += take;
    } else {
      out.push_back(s);
    }
    pos += take;
  }
  return out;
}

TEST(Striping, TargetRoundRobinByUnit) {
  StripeLayout l{4};
  EXPECT_EQ(target_of(l, FileBlock{0}), 0u);
  EXPECT_EQ(target_of(l, FileBlock{15}), 0u);
  EXPECT_EQ(target_of(l, FileBlock{16}), 1u);
  EXPECT_EQ(target_of(l, FileBlock{63}), 3u);
  EXPECT_EQ(target_of(l, FileBlock{64}), 0u);
}

TEST(Striping, LocalOffsetsCompact) {
  StripeLayout l{4};
  // Global stripe row 1, target 0: local row 1.
  EXPECT_EQ(to_local(l, FileBlock{64}).v, 16u);
  EXPECT_EQ(to_local(l, FileBlock{0}).v, 0u);
  EXPECT_EQ(to_local(l, FileBlock{17}).v, 1u);  // target 1, first row
}

TEST(Striping, SlicesCoverRangeExactlyOnce) {
  StripeLayout l{3};
  auto slices = slices_of(l, FileBlock{5}, 40);
  u64 covered = 0;
  u64 expect_next = 5;
  for (const auto& s : slices) {
    EXPECT_EQ(s.global_start.v, expect_next);
    expect_next += s.count;
    covered += s.count;
    EXPECT_EQ(s.target, target_of(l, s.global_start));
    EXPECT_EQ(s.local_start.v, to_local(l, s.global_start).v);
  }
  EXPECT_EQ(covered, 40u);
}

TEST(Striping, SingleTargetDegeneratesToIdentity) {
  StripeLayout l{1};
  auto slices = slices_of(l, FileBlock{100}, 100);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].local_start.v, 100u);
  EXPECT_EQ(slices[0].count, 100u);
}

TEST(Striping, SubUnitRequestIsOneSlice) {
  StripeLayout l{5};
  auto slices = slices_of(l, FileBlock{18}, 4);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].target, 1u);
}

// The visitor yields the vector the old slices_for returned, for every
// width from 1 to 8 and for ranges that start and end inside a unit, span
// several stripe rows, or cover nothing; the three cases above are among
// the inputs.
TEST(Striping, SliceVisitorMatchesReference) {
  struct Range {
    u64 start, count;
  };
  std::vector<Range> ranges = {{5, 40}, {100, 100}, {18, 4}, {0, 0},
                               {0, 16}, {15, 2},    {16, 16}, {3, 1},
                               {7, 129}, {31, 97},  {64, 256}, {1, 1023}};
  Rng rng(9);
  for (int i = 0; i < 64; ++i)
    ranges.push_back({rng.uniform(0, 4096), rng.uniform(1, 600)});
  for (u32 width = 1; width <= 8; ++width) {
    const StripeLayout l{width};
    for (const Range& r : ranges) {
      EXPECT_EQ(slices_of(l, FileBlock{r.start}, r.count),
                ref_slices_for(l, FileBlock{r.start}, r.count))
          << "width " << width << " start " << r.start << " count "
          << r.count;
    }
  }
}

struct TargetFixture : ::testing::Test {
  TargetConfig cfg() {
    TargetConfig c;
    c.allocator = alloc::AllocatorMode::kOnDemand;
    return c;
  }
  StorageTarget t{cfg()};
};

TEST_F(TargetFixture, WriteAllocatesAndSubmitsIo) {
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{1, 0}, FileBlock{0}, 64).ok());
  t.drain();
  EXPECT_EQ(t.disk().stats().blocks_written, 64u);
  EXPECT_EQ(t.extent_count(InodeNo{1}), 1u);
}

TEST_F(TargetFixture, ReadFollowsMapping) {
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{1, 0}, FileBlock{0}, 32).ok());
  t.drain();
  ASSERT_TRUE(t.read(InodeNo{1}, FileBlock{0}, 32).ok());
  t.drain();
  EXPECT_EQ(t.disk().stats().blocks_read, 32u);
}

TEST_F(TargetFixture, ReadOfHoleIsFree) {
  ASSERT_TRUE(t.read(InodeNo{42}, FileBlock{0}, 100).ok());
  t.drain();
  EXPECT_EQ(t.disk().stats().blocks_read, 0u);
}

TEST_F(TargetFixture, ReadAndCloseOfUnknownInodeLeaveNoEntry) {
  ASSERT_TRUE(t.read(InodeNo{42}, FileBlock{0}, 100).ok());
  const BlockRun runs[] = {{FileBlock{0}, 8}, {FileBlock{64}, 8}};
  ASSERT_TRUE(t.read_runs(InodeNo{43}, runs).ok());
  t.close_file(InodeNo{44});
  t.drain();
  EXPECT_EQ(t.disk().stats().requests, 0u);
  EXPECT_EQ(t.verify().files, 0u);
  u64 visited = 0;
  t.for_each_file([&](InodeNo) { ++visited; });
  EXPECT_EQ(visited, 0u);
  // Only a write (or a preallocate) creates the entry.
  ASSERT_TRUE(t.write(InodeNo{42}, StreamId{1, 0}, FileBlock{0}, 4).ok());
  EXPECT_EQ(t.verify().files, 1u);
}

TEST_F(TargetFixture, PreallocateThenStaticBehaviour) {
  TargetConfig c;
  c.allocator = alloc::AllocatorMode::kStatic;
  StorageTarget st(c);
  ASSERT_TRUE(st.preallocate(InodeNo{1}, 128).ok());
  EXPECT_EQ(st.extent_count(InodeNo{1}), 1u);
  ASSERT_TRUE(st.write(InodeNo{1}, StreamId{1, 0}, FileBlock{64}, 8).ok());
  EXPECT_LE(st.extent_count(InodeNo{1}), 3u);  // split around written range
}

TEST_F(TargetFixture, DeleteFileReleasesSpace) {
  const u64 free0 = t.space().free_blocks();
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{1, 0}, FileBlock{0}, 64).ok());
  EXPECT_LT(t.space().free_blocks(), free0);
  t.delete_file(InodeNo{1});
  EXPECT_EQ(t.space().free_blocks(), free0);
  EXPECT_EQ(t.extent_count(InodeNo{1}), 0u);
}

TEST_F(TargetFixture, CloseFileDropsReservations) {
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{1, 0}, FileBlock{0}, 4).ok());
  EXPECT_GT(t.allocator().stats().reserved_blocks, 0u);
  t.close_file(InodeNo{1});
  EXPECT_EQ(t.allocator().stats().reserved_blocks, 0u);
}

TEST_F(TargetFixture, ExtentsSnapshotMatchesCount) {
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{1, 0}, FileBlock{0}, 16).ok());
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{2, 0}, FileBlock{100}, 16).ok());
  EXPECT_EQ(t.extents(InodeNo{1}).size(), t.extent_count(InodeNo{1}));
}

}  // namespace
}  // namespace mif::osd
