// Unit tests for the metadata server: aggregated operations, RPC/CPU
// accounting, and the embedded-vs-normal disk-access contrast Fig. 8 is
// built on.
#include <gtest/gtest.h>

#include "mds/mds.hpp"
#include "rpc/mds_node.hpp"

namespace mif::mds {
namespace {

MdsConfig cfg_for(mfs::DirectoryMode mode) {
  MdsConfig cfg;
  cfg.mfs.mode = mode;
  cfg.mfs.cache_blocks = 2048;
  return cfg;
}

TEST(Mds, NamespaceOpsWork) {
  Mds mds(cfg_for(mfs::DirectoryMode::kNormal));
  ASSERT_TRUE(mds.mkdir("d"));
  ASSERT_TRUE(mds.create("d/f"));
  EXPECT_TRUE(mds.stat("d/f").ok());
  EXPECT_TRUE(mds.utime("d/f").ok());
  ASSERT_TRUE(mds.rename("d/f", "d/g"));
  EXPECT_TRUE(mds.unlink("d/g").ok());
}

// RPC/CPU accounting now lives in the transport: every metadata envelope
// dispatched to the server bumps its rpc counter and charges the simulated
// network exactly once.
TEST(Mds, EveryOpChargesAnRpc) {
  rpc::MdsNode node(cfg_for(mfs::DirectoryMode::kNormal));
  const u64 r0 = node.mds().stats().rpcs;
  ASSERT_TRUE(node.client().mkdir("d"));
  ASSERT_TRUE(node.client().create("d/f"));
  EXPECT_TRUE(node.client().stat("d/f").ok());
  EXPECT_EQ(node.mds().stats().rpcs, r0 + 3);
  EXPECT_GT(node.transport().meta_network().stats().rpcs, 0u);
}

TEST(Mds, OpenGetlayoutReturnsExtentCount) {
  Mds mds(cfg_for(mfs::DirectoryMode::kEmbedded));
  auto ino = mds.create("f");
  ASSERT_TRUE(ino);
  ASSERT_TRUE(mds.report_extents(*ino, 12).ok());
  auto open = mds.open_getlayout("f");
  ASSERT_TRUE(open);
  EXPECT_EQ(open->ino.v, ino->v);
  EXPECT_EQ(open->extent_count, 12u);
}

TEST(Mds, ReportExtentsChargesCpuPerExtent) {
  Mds mds(cfg_for(mfs::DirectoryMode::kNormal));
  auto ino = mds.create("f");
  ASSERT_TRUE(ino);
  const double cpu0 = mds.stats().cpu_ms;
  ASSERT_TRUE(mds.report_extents(*ino, 1000).ok());
  const double d1 = mds.stats().cpu_ms - cpu0;
  auto ino2 = mds.create("g");
  ASSERT_TRUE(ino2);
  const double cpu1 = mds.stats().cpu_ms;
  ASSERT_TRUE(mds.report_extents(*ino2, 10).ok());
  const double d2 = mds.stats().cpu_ms - cpu1;
  // Table I's mechanism: more extents ⇒ more MDS CPU.
  EXPECT_GT(d1, 10.0 * d2);
  EXPECT_EQ(mds.stats().extent_ops, 1010u);
}

TEST(Mds, CpuUtilizationBounded) {
  Mds mds(cfg_for(mfs::DirectoryMode::kNormal));
  ASSERT_TRUE(mds.create("f"));
  mds.finish();
  const double u = mds.cpu_utilization();
  EXPECT_GE(u, 0.0);
  EXPECT_LE(u, 1.0);
}

TEST(Mds, ReaddirStatsReturnsEntries) {
  Mds mds(cfg_for(mfs::DirectoryMode::kNormal));
  ASSERT_TRUE(mds.mkdir("d"));
  for (int i = 0; i < 30; ++i)
    ASSERT_TRUE(mds.create("d/f" + std::to_string(i)));
  auto entries = mds.readdir_stats("d");
  ASSERT_TRUE(entries);
  EXPECT_EQ(entries->size(), 30u);
}

// The central Fig. 8 contrast, as a unit-level check: a cold readdir-stat
// sweep needs fewer disk accesses with embedded directories than with the
// traditional layout.
TEST(Mds, EmbeddedReaddirStatsCostsFewerDiskAccesses) {
  auto run = [](mfs::DirectoryMode mode) {
    Mds mds(cfg_for(mode));
    EXPECT_TRUE(mds.mkdir("d").ok());
    for (int i = 0; i < 1000; ++i)
      EXPECT_TRUE(mds.create("d/f" + std::to_string(i)).ok());
    mds.finish();
    mds.fs().cache().invalidate_all();
    const u64 a0 = mds.fs().disk_accesses();
    EXPECT_TRUE(mds.readdir_stats("d").ok());
    mds.finish();
    return mds.fs().disk_accesses() - a0;
  };
  const u64 normal = run(mfs::DirectoryMode::kNormal);
  const u64 embedded = run(mfs::DirectoryMode::kEmbedded);
  EXPECT_LT(embedded, normal);
}

// Same contrast for create: the embedded transaction touches fewer blocks
// (no inode-table block, no inode bitmap).  Enough creates for several
// periodic checkpoints.
TEST(Mds, EmbeddedCreateCheckpointsFewerBlocks) {
  auto run = [](mfs::DirectoryMode mode) {
    Mds mds(cfg_for(mode));
    EXPECT_TRUE(mds.mkdir("d").ok());
    for (u64 i = 0; i < 4 * mfs::Mfs::kCheckpointInterval; ++i)
      EXPECT_TRUE(mds.create("d/f" + std::to_string(i)).ok());
    mds.finish();
    return mds.fs().journal().stats().checkpoint_blocks;
  };
  EXPECT_LT(run(mfs::DirectoryMode::kEmbedded),
            run(mfs::DirectoryMode::kNormal));
}

}  // namespace
}  // namespace mif::mds
