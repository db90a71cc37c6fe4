// Unit tests for the readahead window and the network model.
#include <gtest/gtest.h>

#include "sim/network.hpp"
#include "sim/readahead.hpp"

namespace mif::sim {
namespace {

TEST(Readahead, FirstAccessFetchesInitialWindow) {
  Readahead ra;
  static_assert(Readahead::kInitialBlocks == 4);
  EXPECT_EQ(ra.advise(0, 1), 4u);  // want 1, window 4
}

TEST(Readahead, SequentialAccessesAreAbsorbedThenGrow) {
  Readahead ra;
  EXPECT_EQ(ra.advise(0, 1), 4u);
  // Blocks 1..3 covered by the prefetch: zero new I/O.
  EXPECT_EQ(ra.advise(1, 1), 0u);
  EXPECT_EQ(ra.advise(2, 1), 0u);
  EXPECT_EQ(ra.advise(3, 1), 0u);
  // Block 4 continues the run: window doubled.
  const u64 f = ra.advise(4, 1);
  EXPECT_GE(f, 8u);
  EXPECT_EQ(ra.hits(), 4u);
}

TEST(Readahead, WindowDoublesUpToMax) {
  Readahead ra;
  u64 pos = 0;
  // Long sequential scan: window must saturate at max.
  for (int i = 0; i < 400; ++i) {
    const u64 f = ra.advise(pos, 1);
    pos += 1;
    (void)f;
  }
  EXPECT_EQ(ra.window(), Readahead::kMaxBlocks);
}

TEST(Readahead, RandomAccessCollapsesWindow) {
  Readahead ra;
  ra.advise(0, 1);
  ra.advise(1, 1);
  ra.advise(2, 1);
  ra.advise(1000, 1);  // jump
  EXPECT_EQ(ra.window(), 4u);
  EXPECT_EQ(ra.misses(), 1u);
}

TEST(Readahead, LargeWantFetchesAtLeastWant) {
  Readahead ra;
  EXPECT_GE(ra.advise(0, 32), 32u);
}

TEST(Readahead, SequentialScanIssuesFarFewerFetches) {
  // The Fig. 8 readdir-stat mechanism: a growing window turns N unit reads
  // into O(log N + N/max) fetches.
  Readahead ra;
  u64 fetches = 0;
  for (u64 b = 0; b < 1024; ++b) {
    if (ra.advise(b, 1) > 0) ++fetches;
  }
  EXPECT_LT(fetches, 20u);
}

TEST(Network, RpcChargesLatencyPlusBandwidth) {
  Network n;
  const double t = n.rpc(1000000);  // 1 MB at kBandwidthMbps MB/s
  EXPECT_NEAR(t, Network::kRttMs + 1e3 / Network::kBandwidthMbps, 1e-9);
  EXPECT_EQ(n.stats().rpcs, 1u);
  EXPECT_EQ(n.stats().bytes, 1000000u);
}

TEST(Network, StatsAccumulate) {
  Network n;
  n.rpc(100);
  n.rpc(200);
  EXPECT_EQ(n.stats().rpcs, 2u);
  EXPECT_EQ(n.stats().bytes, 300u);
  n.reset_stats();
  EXPECT_EQ(n.stats().rpcs, 0u);
}

}  // namespace
}  // namespace mif::sim
