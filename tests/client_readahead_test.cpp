// Tests for the client-side readahead and buffering added to ClientFs: the
// Lustre-style mechanism that turns an application's small sequential reads
// into large per-region fetches.
#include <gtest/gtest.h>

#include "core/pfs.hpp"

namespace mif::client {
namespace {

constexpr u64 kMax = ClientFs::kReadaheadMaxBlocks;
/// Long enough that a stream walking half of it never reaches its end.
constexpr u64 kFileBlocks = 8 * kMax;

core::ClusterConfig ra_cluster() {
  core::ClusterConfig cfg;
  cfg.num_targets = 2;
  cfg.target.allocator = alloc::AllocatorMode::kStatic;
  return cfg;
}

struct ReadaheadFixture : ::testing::Test {
  core::ParallelFileSystem fs{ra_cluster()};
  ClientFs client{fs.connect(ClientId{1})};
  FileHandle fh;

  void SetUp() override {
    auto h = client.create("/data");
    ASSERT_TRUE(h);
    fh = *h;
    ASSERT_TRUE(fs.preallocate(fh.ino, kFileBlocks).ok());  // contiguous
    ASSERT_TRUE(client.write(fh, 0, 0, kFileBlocks * kBlockSize).ok());
    fs.drain_data();
    fs.reset_data_stats();
  }
};

TEST_F(ReadaheadFixture, FirstReadFetchesExactlyWhatWasAsked) {
  ASSERT_TRUE(client.read(fh, 0, 8 * kBlockSize).ok());
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_read, 8u);
}

TEST_F(ReadaheadFixture, SequentialReadsPrefetchAhead) {
  ASSERT_TRUE(client.read(fh, 0, 8 * kBlockSize).ok());
  ASSERT_TRUE(client.read(fh, 8 * kBlockSize, 8 * kBlockSize).ok());
  fs.drain_data();
  // The second (sequential) read pulled a window beyond the 16 asked-for
  // blocks.
  EXPECT_GT(fs.data_stats().blocks_read, 16u);
  EXPECT_GT(client.stats().readahead_blocks, 0u);
}

TEST_F(ReadaheadFixture, PrefetchedDataIsNotReFetched) {
  // Walk part of the file sequentially; total disk traffic must stay ~the
  // walked size, not walked size × window overshoot.
  constexpr u64 kWalk = 2 * kMax;
  for (u64 off = 0; off < kWalk; off += 8) {
    ASSERT_TRUE(client.read(fh, off * kBlockSize, 8 * kBlockSize).ok());
  }
  fs.drain_data();
  const u64 read = fs.data_stats().blocks_read;
  EXPECT_GE(read, kWalk);
  EXPECT_LE(read, kWalk + kMax);  // at most one overshoot window beyond
  EXPECT_GT(client.stats().readahead_hits, 0u);
}

TEST_F(ReadaheadFixture, RandomReadsDoNotPrefetch) {
  ASSERT_TRUE(client.read(fh, 0, 4 * kBlockSize).ok());
  ASSERT_TRUE(client.read(fh, 1000 * kBlockSize, 4 * kBlockSize).ok());
  ASSERT_TRUE(client.read(fh, 500 * kBlockSize, 4 * kBlockSize).ok());
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_read, 12u);
  EXPECT_EQ(client.stats().readahead_blocks, 0u);
}

TEST_F(ReadaheadFixture, WindowIsCapped) {
  // A long walk doubles the window many times over; an uncapped window
  // would prefetch to the end of the file.
  constexpr u64 kWalk = 4 * kMax;
  for (u64 off = 0; off < kWalk; off += 8) {
    ASSERT_TRUE(client.read(fh, off * kBlockSize, 8 * kBlockSize).ok());
  }
  fs.drain_data();
  // Traffic never exceeded the walk plus one max window.
  EXPECT_LE(fs.data_stats().blocks_read, kWalk + kMax);
}

TEST_F(ReadaheadFixture, TwoInterleavedStreamsTrackIndependently) {
  // Stream A at the file head, stream B in the middle, interleaved: both
  // must be detected as sequential.
  for (u64 step = 0; step < 64; ++step) {
    ASSERT_TRUE(client.read(fh, step * 8 * kBlockSize, 8 * kBlockSize).ok());
    ASSERT_TRUE(client
                    .read(fh, (kFileBlocks / 2 + step * 8) * kBlockSize,
                          8 * kBlockSize)
                    .ok());
  }
  fs.drain_data();
  EXPECT_GT(client.stats().readahead_hits, 32u);
}

TEST(ReadaheadPlacementInteraction, ReadaheadShrinksRequestStream) {
  // The storage targets see fewer, larger requests than the application's
  // small sequential reads: without readahead every 4-block read queues a
  // request of its own; with it, a request covers a whole stripe unit.
  core::ParallelFileSystem fs(ra_cluster());
  auto client = fs.connect(ClientId{1});
  auto fh = client.create("/scan");
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(client.write(*fh, 0, 0, 2048 * kBlockSize).ok());
  fs.drain_data();
  u64 before = 0;
  for (std::size_t t = 0; t < fs.num_targets(); ++t)
    before += fs.target(t).io().stats().queued;
  for (u64 off = 0; off < 2048; off += 4) {
    ASSERT_TRUE(client.read(*fh, off * kBlockSize, 4 * kBlockSize).ok());
  }
  fs.drain_data();
  u64 after = 0;
  for (std::size_t t = 0; t < fs.num_targets(); ++t)
    after += fs.target(t).io().stats().queued;
  // At most one request per stripe unit of the scan plus one overshoot
  // window: half the requests the 512 reads alone would queue.
  constexpr u64 kBound = (2048 + kMax) / osd::StripeLayout::kUnitBlocks;
  static_assert(2 * kBound == 2048 / 4);
  EXPECT_LE(after - before, kBound);
}

}  // namespace
}  // namespace mif::client
