// Unit tests for util: Result, RNG determinism/distributions, run merging,
// stats, tables.
#include <gtest/gtest.h>

#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/runs.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/types.hpp"

namespace mif {
namespace {

TEST(Types, BlockByteConversionRoundTrip) {
  EXPECT_EQ(bytes_to_blocks(0), 0u);
  EXPECT_EQ(bytes_to_blocks(1), 1u);
  EXPECT_EQ(bytes_to_blocks(kBlockSize), 1u);
  EXPECT_EQ(bytes_to_blocks(kBlockSize + 1), 2u);
  EXPECT_EQ(blocks_to_bytes(bytes_to_blocks(10 * kBlockSize)),
            10 * kBlockSize);
}

TEST(Types, StreamIdKeyIsInjective) {
  StreamId a{1, 2}, b{2, 1}, c{1, 3};
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  EXPECT_EQ(a.key(), (StreamId{1, 2}).key());
}

TEST(Result, HoldsValueOrError) {
  Result<int> ok{42};
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.error(), Errc::kOk);

  Result<int> bad{Errc::kNoSpace};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Errc::kNoSpace);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(Result, StatusDefaultsToOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status e{Errc::kNotFound};
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(to_string(e.error()), "not found");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7), c(8);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const u64 x = a.next();
    EXPECT_EQ(x, b.next());
    if (x != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, UniformStaysInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const u64 v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng r(4);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ParetoBoundedAndSkewedSmall) {
  Rng r(5);
  u64 small = 0;
  for (int i = 0; i < 2000; ++i) {
    const u64 v = r.pareto(512, 1 << 20, 1.2);
    ASSERT_GE(v, 512u);
    ASSERT_LE(v, u64{1} << 20);
    if (v < 8192) ++small;
  }
  // Heavy small-file skew: most samples near the low end.
  EXPECT_GT(small, 1000u);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng r(6);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, left, right;
  Rng r(9);
  for (int i = 0; i < 500; ++i) {
    const double x = r.uniform01() * 100.0;
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
}

TEST(RunningStats, EmptyUntilFirstSample) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  // The min/max sentinels of an empty accumulator are 0.0 — callers must
  // check empty() instead of comparing against it.
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  s.add(-3.5);
  EXPECT_FALSE(s.empty());
  EXPECT_DOUBLE_EQ(s.min(), -3.5);
  EXPECT_DOUBLE_EQ(s.max(), -3.5);
}

TEST(RunningStats, MergeOfEmptyIsNoOp) {
  RunningStats s, empty;
  for (double x : {2.0, 4.0, 9.0}) s.add(x);
  const u64 count = s.count();
  const double mean = s.mean(), mn = s.min(), mx = s.max();
  s.merge(empty);
  EXPECT_EQ(s.count(), count);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_DOUBLE_EQ(s.min(), mn);
  EXPECT_DOUBLE_EQ(s.max(), mx);
}

TEST(RunningStats, EmptyMergeOfNonEmptyCopies) {
  // All-negative samples: a merge that treated the 0.0 sentinels as real
  // min/max would corrupt the extrema.
  RunningStats s, other;
  for (double x : {-7.0, -3.0, -5.0}) other.add(x);
  s.merge(other);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.min(), -7.0);
  EXPECT_DOUBLE_EQ(s.max(), -3.0);
  EXPECT_DOUBLE_EQ(s.mean(), -5.0);
}

TEST(Histogram, MergeMatchesSequential) {
  Histogram all, left(20), right(20);
  Rng r(11);
  for (int i = 0; i < 400; ++i) {
    const u64 v = r.uniform(0, 1 << 14);
    all.add(v);
    (i % 2 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_EQ(left.quantile(0.5), all.quantile(0.5));
  EXPECT_EQ(left.quantile(0.99), all.quantile(0.99));
}

TEST(Histogram, MergeClampsWiderSource) {
  // Merging a finer-bucketed histogram into a coarser one folds the excess
  // high buckets into the last bucket instead of dropping samples.
  Histogram coarse(4), fine(20);
  fine.add(u64{1} << 16);  // far beyond coarse's top bucket
  coarse.merge(fine);
  EXPECT_EQ(coarse.count(), 1u);
  EXPECT_EQ(coarse.bucket(3), 1u);
}

TEST(Histogram, BucketsByLog2) {
  Histogram h(10);
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket(1), 2u);  // 2 and 3
  EXPECT_EQ(h.bucket(10 - 1), 1u);  // 1024 clamped to the last bucket
}

TEST(Histogram, QuantileMonotone) {
  Histogram h;
  for (u64 v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
}

TEST(Percentile, ExactValues) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.25, 2)});
  t.add_row({"b", "x"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha | 1.25  |"), std::string::npos);
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
}

TEST(Table, PctFormatsSigned) {
  EXPECT_EQ(Table::pct(0.231), "+23.1%");
  EXPECT_EQ(Table::pct(-0.05), "-5.0%");
}

TEST(Runs, AppendRunExtendsOnlyAdjacentTails) {
  std::vector<BlockRun> runs;
  EXPECT_FALSE(util::append_run(runs, {FileBlock{0}, 4}));
  EXPECT_TRUE(util::append_run(runs, {FileBlock{4}, 2}));  // adjacent
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].count, 6u);
  EXPECT_FALSE(util::append_run(runs, {FileBlock{8}, 1}));  // gap
  ASSERT_EQ(runs.size(), 2u);
  // Empty runs vanish without breaking adjacency of what follows.
  EXPECT_TRUE(util::append_run(runs, {FileBlock{100}, 0}));
  EXPECT_TRUE(util::append_run(runs, {FileBlock{9}, 3}));
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1].count, 4u);
}

TEST(Runs, MergeRangesSortsDropsEmptiesAndMergesOverlap) {
  std::vector<util::ByteRange> in = {
      {100, 50}, {0, 10}, {40, 0}, {10, 20}, {120, 100}, {300, 1}};
  const auto out = util::merge_ranges(in);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (util::ByteRange{0, 30}));    // touching merges
  EXPECT_EQ(out[1], (util::ByteRange{100, 120})); // overlap extends to max end
  EXPECT_EQ(out[2], (util::ByteRange{300, 1}));
  // A range fully contained in its predecessor does not shrink it.
  const auto nested = util::merge_ranges({{0, 100}, {10, 20}});
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_EQ(nested[0], (util::ByteRange{0, 100}));
  EXPECT_TRUE(util::merge_ranges({}).empty());
  EXPECT_TRUE(util::merge_ranges({{5, 0}}).empty());
}

TEST(Runs, MergeRunsSortsDropsEmptiesAndMergesOverlap) {
  const auto run = [](u64 start, u64 count) {
    return BlockRun{FileBlock{start}, count};
  };
  // Unsorted input with an empty run, a touching pair, an overlapping pair
  // and a lone run.
  const auto out = util::merge_runs(
      {run(100, 50), run(0, 10), run(40, 0), run(10, 20), run(120, 100),
       run(300, 1)});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], run(0, 30));     // touching merges
  EXPECT_EQ(out[1], run(100, 120));  // overlap extends to the max end
  EXPECT_EQ(out[2], run(300, 1));
  // A run nested in its predecessor does not shrink it, whichever comes
  // first in the input.
  EXPECT_EQ(util::merge_runs({run(0, 100), run(10, 20)}),
            (std::vector<BlockRun>{run(0, 100)}));
  EXPECT_EQ(util::merge_runs({run(10, 20), run(0, 100)}),
            (std::vector<BlockRun>{run(0, 100)}));
  // A gap of one block keeps two runs apart.
  EXPECT_EQ(util::merge_runs({run(5, 5), run(0, 4)}),
            (std::vector<BlockRun>{run(0, 4), run(5, 5)}));
  EXPECT_TRUE(util::merge_runs({}).empty());
  EXPECT_TRUE(util::merge_runs({run(5, 0), run(9, 0)}).empty());
}

TEST(Runs, BlocksOfCoversEveryTouchedBlock) {
  constexpr u64 kB = kBlockSize;
  EXPECT_EQ(util::blocks_of({0, kB}), (BlockRun{FileBlock{0}, 1}));
  EXPECT_EQ(util::blocks_of({kB - 1, 2}), (BlockRun{FileBlock{0}, 2}));
  EXPECT_EQ(util::blocks_of({3 * kB + 100, 50}), (BlockRun{FileBlock{3}, 1}));
  EXPECT_EQ(util::blocks_of({2 * kB, 3 * kB}), (BlockRun{FileBlock{2}, 3}));
  EXPECT_EQ(util::blocks_of({2 * kB, 0}), (BlockRun{FileBlock{2}, 0}));
}

TEST(Runs, StridedDetectionRoundTrips) {
  const std::vector<BlockRun> pattern = {
      {FileBlock{16}, 4}, {FileBlock{48}, 4}, {FileBlock{80}, 4}};
  util::StridedRuns s;
  ASSERT_TRUE(util::as_strided(pattern, s));
  EXPECT_EQ(s.start.v, 16u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.stride, 32u);
  EXPECT_EQ(s.block_len, 4u);
  EXPECT_EQ(util::expand_strided(s), pattern);

  // Not strided: single run, unequal lengths, irregular gaps, or a stride
  // that collapses to contiguity.
  EXPECT_FALSE(util::as_strided({{{FileBlock{0}, 4}}}, s));
  EXPECT_FALSE(
      util::as_strided({{{FileBlock{0}, 4}, {FileBlock{32}, 5}}}, s));
  EXPECT_FALSE(util::as_strided(
      {{{FileBlock{0}, 4}, {FileBlock{32}, 4}, {FileBlock{60}, 4}}}, s));
  EXPECT_FALSE(
      util::as_strided({{{FileBlock{0}, 4}, {FileBlock{4}, 4}}}, s));
}

}  // namespace
}  // namespace mif
