// Unit + property tests for the per-file extent map (the fragmentation
// metric of Table I lives here).
#include <gtest/gtest.h>

#include <algorithm>

#include "block/block_types.hpp"
#include "util/rng.hpp"

namespace mif::block {
namespace {

Extent ext(u64 file, u64 disk, u64 len, u32 flags = kExtentNone) {
  return Extent{FileBlock{file}, DiskBlock{disk}, len, flags};
}

TEST(ExtentMap, InsertAndLookup) {
  ExtentMap m;
  m.insert(ext(0, 100, 10));
  auto e = m.lookup(FileBlock{5});
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->map(FileBlock{5}).v, 105u);
  EXPECT_FALSE(m.lookup(FileBlock{10}).has_value());
}

TEST(ExtentMap, MergesContiguousInserts) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(4, 104, 4));
  m.insert(ext(8, 108, 4));
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_EQ(m.mapped_blocks(), 12u);
}

TEST(ExtentMap, DoesNotMergeLogicalOnlyAdjacency) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(4, 500, 4));  // logically adjacent, physically not
  EXPECT_EQ(m.extent_count(), 2u);
}

TEST(ExtentMap, DoesNotMergeAcrossFlags) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(4, 104, 4, kExtentUnwritten));
  EXPECT_EQ(m.extent_count(), 2u);
}

TEST(ExtentMap, MergesGapFillBothSides) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(8, 108, 4));
  m.insert(ext(4, 104, 4));  // plugs the hole, joins all three
  EXPECT_EQ(m.extent_count(), 1u);
}

TEST(ExtentMap, OutOfOrderInsertKeepsSorted) {
  ExtentMap m;
  m.insert(ext(100, 1000, 10));
  m.insert(ext(0, 2000, 10));
  m.insert(ext(50, 3000, 10));
  EXPECT_EQ(m.extents()[0].file_off.v, 0u);
  EXPECT_EQ(m.extents()[1].file_off.v, 50u);
  EXPECT_EQ(m.extents()[2].file_off.v, 100u);
  EXPECT_EQ(m.logical_end(), 110u);
}

TEST(ExtentMap, NextMappedFindsWhereTheHoleEnds) {
  ExtentMap m;
  EXPECT_EQ(m.next_mapped(FileBlock{0}, 50), 50u);  // empty map
  m.insert(ext(10, 100, 5));  // [10, 15)
  m.insert(ext(30, 500, 5));  // [30, 35)
  // Before the first extent.
  EXPECT_EQ(m.next_mapped(FileBlock{0}, 100), 10u);
  EXPECT_EQ(m.next_mapped(FileBlock{9}, 100), 10u);
  // Between two extents.
  EXPECT_EQ(m.next_mapped(FileBlock{15}, 100), 30u);
  EXPECT_EQ(m.next_mapped(FileBlock{29}, 100), 30u);
  // Inside an extent: the next one that begins after it.
  EXPECT_EQ(m.next_mapped(FileBlock{10}, 100), 30u);
  // After the last one only the limit ends the hole.
  EXPECT_EQ(m.next_mapped(FileBlock{30}, 100), 100u);
  EXPECT_EQ(m.next_mapped(FileBlock{35}, 100), 100u);
  // The limit clamps a later extent start.
  EXPECT_EQ(m.next_mapped(FileBlock{0}, 7), 7u);
  EXPECT_EQ(m.next_mapped(FileBlock{15}, 20), 20u);
  EXPECT_EQ(m.next_mapped(FileBlock{15}, 30), 30u);
}

TEST(ExtentMap, MapRangeCrossesExtentsAndSkipsHoles) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(8, 300, 4));  // hole at [4, 8)
  auto runs = m.map_range(FileBlock{0}, 12);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].start.v, 100u);
  EXPECT_EQ(runs[0].length, 4u);
  EXPECT_EQ(runs[1].start.v, 300u);
  EXPECT_EQ(runs[1].length, 4u);
}

TEST(ExtentMap, MapRangeCoalescesPhysicallyContiguousRuns) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(4, 104, 4, kExtentUnwritten));  // separate extent, same run
  auto runs = m.map_range(FileBlock{0}, 8);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].length, 8u);
}

TEST(ExtentMap, MapRangePartialOverlap) {
  ExtentMap m;
  m.insert(ext(0, 100, 10));
  auto runs = m.map_range(FileBlock{3}, 4);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].start.v, 103u);
  EXPECT_EQ(runs[0].length, 4u);
}

TEST(ExtentMap, MarkWrittenSplitsUnwrittenExtent) {
  ExtentMap m;
  m.insert(ext(0, 100, 10, kExtentUnwritten));
  m.mark_written(FileBlock{4}, 2);
  // [0,4) unwritten, [4,6) written, [6,10) unwritten.
  EXPECT_EQ(m.extent_count(), 3u);
  EXPECT_EQ(m.lookup(FileBlock{4})->flags, kExtentNone);
  EXPECT_EQ(m.lookup(FileBlock{0})->flags, kExtentUnwritten);
  EXPECT_EQ(m.lookup(FileBlock{9})->flags, kExtentUnwritten);
  // Physical mapping is unchanged.
  EXPECT_EQ(m.lookup(FileBlock{5})->map(FileBlock{5}).v, 105u);
}

TEST(ExtentMap, MarkWrittenWholeExtentRemerges) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(4, 104, 4, kExtentUnwritten));
  m.mark_written(FileBlock{4}, 4);
  EXPECT_EQ(m.extent_count(), 1u);  // flags now equal → merge
}

TEST(ExtentMap, MarkWrittenIgnoresAlreadyWritten) {
  ExtentMap m;
  m.insert(ext(0, 100, 8));
  m.mark_written(FileBlock{0}, 8);
  EXPECT_EQ(m.extent_count(), 1u);
}

// Property: inserting N randomly-shuffled, pairwise-disjoint sub-extents of
// one physical run always collapses back to a single extent after all are
// written.
TEST(ExtentMapProperty, ShuffledContiguousPiecesAlwaysCoalesce) {
  mif::Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<u64> order(64);
    for (u64 i = 0; i < 64; ++i) order[i] = i;
    for (u64 i = 63; i > 0; --i)
      std::swap(order[i], order[rng.uniform(0, i)]);
    ExtentMap m;
    for (u64 i : order) m.insert(ext(i * 2, 1000 + i * 2, 2));
    EXPECT_EQ(m.extent_count(), 1u) << "trial " << trial;
    EXPECT_EQ(m.mapped_blocks(), 128u);
  }
}

// Property: map_range over random queries agrees with per-block lookup, and
// next_mapped with a linear scan for the first extent past the query start.
TEST(ExtentMapProperty, MapRangeMatchesBlockwiseLookup) {
  mif::Rng rng(14);
  ExtentMap m;
  u64 file = 0;
  for (int i = 0; i < 50; ++i) {
    const u64 len = rng.uniform(1, 8);
    if (rng.chance(0.3)) file += rng.uniform(1, 5);  // hole
    m.insert(ext(file, rng.uniform(0, 1) * 100000 + file * 7 + i * 1000, len));
    file += len;
  }
  for (int q = 0; q < 200; ++q) {
    const u64 start = rng.uniform(0, file);
    const u64 len = rng.uniform(1, 32);
    auto runs = m.map_range(FileBlock{start}, len);
    u64 covered = 0;
    for (const auto& r : runs) covered += r.length;
    u64 expect = 0;
    for (u64 b = start; b < start + len; ++b)
      if (m.lookup(FileBlock{b})) ++expect;
    EXPECT_EQ(covered, expect);
    u64 next = start + len;
    for (const Extent& e : m.extents()) {
      if (e.file_off.v > start) {
        next = std::min(next, e.file_off.v);
        break;
      }
    }
    EXPECT_EQ(m.next_mapped(FileBlock{start}, start + len), next)
        << "start " << start << " len " << len;
  }
}

}  // namespace
}  // namespace mif::block
