// Unit tests for the client file system against a small mounted cluster.
#include <gtest/gtest.h>

#include "core/pfs.hpp"

namespace mif::client {
namespace {

core::ClusterConfig small_cluster(alloc::AllocatorMode mode) {
  core::ClusterConfig cfg;
  cfg.num_targets = 3;
  cfg.target.allocator = mode;
  return cfg;
}

struct ClientFixture : ::testing::Test {
  core::ParallelFileSystem fs{small_cluster(alloc::AllocatorMode::kOnDemand)};
};

TEST_F(ClientFixture, CreateWriteReadClose) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/data");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 1 << 20).ok());
  fs.drain_data();
  ASSERT_TRUE(c.read(*fh, 0, 1 << 20).ok());
  fs.drain_data();
  ASSERT_TRUE(c.close(*fh).ok());
  const auto stats = fs.data_stats();
  EXPECT_EQ(stats.blocks_written, (1u << 20) / kBlockSize);
  EXPECT_EQ(stats.blocks_read, (1u << 20) / kBlockSize);
}

TEST_F(ClientFixture, WritesStripeAcrossAllTargets) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/striped");
  ASSERT_TRUE(fh);
  // 3 stripe units × 3 targets.
  constexpr u64 kUnit = osd::StripeLayout::kUnitBlocks;
  ASSERT_TRUE(c.write(*fh, 0, 0, 9 * kUnit * kBlockSize).ok());
  fs.drain_data();
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    EXPECT_EQ(fs.target(t).disk().stats().blocks_written, 3 * kUnit)
        << "target " << t;
  }
}

TEST_F(ClientFixture, UnalignedWritesRoundToBlocks) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/odd");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 100, 50).ok());  // inside block 0
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_written, 1u);
}

TEST_F(ClientFixture, ZeroLengthRejected) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/z");
  ASSERT_TRUE(fh);
  EXPECT_EQ(c.write(*fh, 0, 0, 0).error(), Errc::kInvalid);
  EXPECT_EQ(c.read(*fh, 0, 0).error(), Errc::kInvalid);
}

TEST_F(ClientFixture, OpenUsesLayoutCacheOnSecondOpen) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/cached");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 64 * 1024).ok());
  ASSERT_TRUE(c.close(*fh).ok());
  ASSERT_TRUE(c.open("/cached"));
  EXPECT_EQ(c.stats().layout_cache_hits, 1u);  // close primed the cache
  ASSERT_TRUE(c.open("/cached"));
  EXPECT_EQ(c.stats().layout_cache_hits, 2u);
}

TEST_F(ClientFixture, CloseReportsExtentsToMds) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/report");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 256 * 1024).ok());
  const u64 e0 = fs.mds().stats().extent_ops;
  ASSERT_TRUE(c.close(*fh).ok());
  EXPECT_GT(fs.mds().stats().extent_ops, e0);
  // And the MDS now serves the layout on open.
  auto c2 = fs.connect(ClientId{2});
  auto reopened = c2.open("/report");
  ASSERT_TRUE(reopened);
}

TEST_F(ClientFixture, OpenMissingFileFails) {
  auto c = fs.connect(ClientId{1});
  EXPECT_EQ(c.open("/missing").error(), Errc::kNotFound);
}

TEST_F(ClientFixture, StatsTrackTraffic) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/s");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 8192).ok());
  ASSERT_TRUE(c.read(*fh, 0, 4096).ok());
  EXPECT_EQ(c.stats().bytes_written, 8192u);
  EXPECT_EQ(c.stats().bytes_read, 4096u);
  EXPECT_EQ(c.stats().writes, 1u);
  EXPECT_EQ(c.stats().reads, 1u);
}

TEST_F(ClientFixture, TwoClientsShareOneFile) {
  auto c1 = fs.connect(ClientId{1});
  auto c2 = fs.connect(ClientId{2});
  auto fh = c1.create("/shared");
  ASSERT_TRUE(fh);
  auto fh2 = c2.open("/shared");
  ASSERT_TRUE(fh2);
  ASSERT_TRUE(c1.write(*fh, 0, 0, 64 * 1024).ok());
  ASSERT_TRUE(c2.write(*fh2, 0, 64 * 1024, 64 * 1024).ok());
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_written, 32u);
  EXPECT_GT(fs.file_extents(fh->ino), 0u);
}

}  // namespace
}  // namespace mif::client
