// Fault-injection and integrity-verification tests: lost envelopes and
// killed targets must surface as kIo without corrupting allocator or
// namespace state, and the fsck-style verifiers must pass after every
// scenario.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/pfs.hpp"
#include "mfs/mfs.hpp"
#include "obs/attrib.hpp"
#include "workload/postmark.hpp"

namespace mif {
namespace {

osd::TargetConfig target_cfg(alloc::AllocatorMode mode) {
  osd::TargetConfig cfg;
  cfg.allocator = mode;
  return cfg;
}

// A lost wire message (FaultTransport, the one fault injector) must surface
// as kIo to the caller, leave the servers untouched and recover cleanly on
// retry — under every allocator, because the drop happens before any
// placement decision.
class FaultInjectionByMode
    : public ::testing::TestWithParam<alloc::AllocatorMode> {};

TEST_P(FaultInjectionByMode, TransportDropSurfacesAsIoError) {
  core::ClusterConfig cfg;
  cfg.num_targets = 3;
  cfg.target.allocator = GetParam();
  cfg.rpc.inject_faults = true;
  core::ParallelFileSystem fs(cfg);
  auto client = fs.connect(ClientId{1});
  auto fh = client.create("/f");
  ASSERT_TRUE(fh);
  const u64 len = 5 * 16 * kBlockSize;
  ASSERT_TRUE(client.write(*fh, 0, 0, len).ok());

  // What each target holds before the drop.
  std::vector<std::pair<u64, u64>> before;  // (mapped, free) blocks
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    before.emplace_back(fs.target(t).verify().mapped_blocks,
                        fs.target(t).space().free_blocks());
  }
  rpc::FaultTransport* fault = fs.transport().fault();
  ASSERT_NE(fault, nullptr);
  fault->arm({.drop_count = 1});
  // The write stripes across targets; the lost member envelope fails it.
  EXPECT_EQ(client.write(*fh, 0, len, len).error(), Errc::kIo);
  EXPECT_EQ(fault->stats().dropped, 1u);
  // The dropped envelope never reached a target: nothing was allocated.
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    const auto report = fs.target(t).verify();
    EXPECT_TRUE(report.ok()) << "target " << t;
    EXPECT_EQ(report.mapped_blocks, before[t].first) << "target " << t;
    EXPECT_EQ(fs.target(t).space().free_blocks(), before[t].second)
        << "target " << t;
  }
  // The retry places the very same blocks without conflict.
  EXPECT_TRUE(client.write(*fh, 0, len, len).ok());
  // A lost read fails the same way, and its retry succeeds.
  fault->arm({.drop_count = 1});
  EXPECT_EQ(client.read(*fh, 0, 2 * len).error(), Errc::kIo);
  EXPECT_TRUE(client.read(*fh, 0, 2 * len).ok());
  EXPECT_EQ(fault->stats().dropped, 2u);
  fs.drain_data();
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    EXPECT_TRUE(fs.target(t).verify().ok()) << "target " << t;
  }
}

std::string mode_name(
    const ::testing::TestParamInfo<alloc::AllocatorMode>& info) {
  std::string s{alloc::to_string(info.param)};
  for (auto& c : s)
    if (c == '-') c = '_';
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllModes, FaultInjectionByMode,
                         ::testing::Values(alloc::AllocatorMode::kVanilla,
                                           alloc::AllocatorMode::kReservation,
                                           alloc::AllocatorMode::kStatic,
                                           alloc::AllocatorMode::kOnDemand),
                         mode_name);

// Killing a target on an UNREPLICATED mount is permanent data loss: the
// sticky dead-read guard fails every read addressed to the wiped target
// with kIo (no silent zero-reads from the replacement disk), while writes
// still pass — that is the path a rebuild would use.
TEST(FaultInjection, KillOsdUnreplicatedReadsFailSticky) {
  core::ClusterConfig cfg;
  cfg.num_targets = 3;
  cfg.rpc.inject_faults = true;
  core::ParallelFileSystem fs(cfg);
  auto client = fs.connect(ClientId{1});
  auto fh = client.create("/f");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(client.write(*fh, 0, 0, 6 * 16 * kBlockSize).ok());

  rpc::FaultTransport* fault = fs.transport().fault();
  ASSERT_NE(fault, nullptr);
  fault->kill_osd(/*target=*/0, /*at_ms=*/0.0);  // due: fires on next call
  // The striped read hits the dead member and fails; it keeps failing —
  // unlike the transient fault window, a kill never heals by itself.
  EXPECT_EQ(client.read(*fh, 0, 6 * 16 * kBlockSize).error(), Errc::kIo);
  EXPECT_EQ(client.read(*fh, 0, 6 * 16 * kBlockSize).error(), Errc::kIo);
  EXPECT_EQ(fault->stats().kills, 1u);
  EXPECT_GT(fault->stats().dead_reads, 0u);
  EXPECT_FALSE(fs.health().alive(0));
  // Writes still flow to the replacement disk, and the survivors verify.
  EXPECT_TRUE(client.write(*fh, 0, 6 * 16 * kBlockSize, 16 * kBlockSize).ok());
  fs.drain_data();
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    EXPECT_TRUE(fs.target(t).verify().ok()) << "target " << t;
  }
}

// The same kill against a replicated mount is survivable: reads re-route to
// the surviving copies with zero client-visible errors and the drain
// barrier rebuilds and revives the target.
TEST(FaultInjection, KillOsdReplicatedMountRecovers) {
  core::ClusterConfig cfg;
  cfg.num_targets = 3;
  cfg.rpc.inject_faults = true;
  cfg.redundancy.replicas = 2;
  core::ParallelFileSystem fs(cfg);
  fs.transport().fault()->kill_osd(/*target=*/0, /*at_ms=*/0.0);
  auto client = fs.connect(ClientId{1});
  auto fh = client.create("/f");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(client.write(*fh, 0, 0, 6 * 16 * kBlockSize).ok());
  EXPECT_TRUE(client.read(*fh, 0, 6 * 16 * kBlockSize).ok());
  EXPECT_GT(fs.redundancy_stats().degraded_reads.load(), 0u);
  fs.drain_data();
  EXPECT_TRUE(fs.health().alive(0));
  EXPECT_EQ(fs.repair()->stats().completed, 1u);
  EXPECT_TRUE(client.read(*fh, 0, 6 * 16 * kBlockSize).ok());
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    EXPECT_TRUE(fs.target(t).verify().ok()) << "target " << t;
  }
}

// Injected latency must be accounted as its own `fault_delay` category: the
// attributed total matches the transport's own delay counter exactly, and
// the disk-side categories stay identical to an undelayed baseline — a
// slow wire must not masquerade as slow spindles.
TEST(FaultInjection, InjectedDelayIsChargedAsFaultDelay) {
  auto run = [](double delay_ms, obs::CostAccount& out) -> double {
    core::ClusterConfig cfg;
    cfg.num_targets = 3;
    cfg.rpc.inject_faults = true;
    core::ParallelFileSystem fs(cfg);
    obs::Attribution attrib;
    fs.set_attribution(&attrib);
    rpc::FaultTransport* fault = fs.transport().fault();
    if (delay_ms > 0) fault->arm({.delay_ms = delay_ms});
    auto client = fs.connect(ClientId{1});
    auto fh = client.create("/f");
    EXPECT_TRUE(fh);
    EXPECT_TRUE(client.write(*fh, 0, 0, 5 * 16 * kBlockSize).ok());
    EXPECT_TRUE(client.read(*fh, 0, 5 * 16 * kBlockSize).ok());
    EXPECT_TRUE(client.close(*fh).ok());
    fs.finish_mds();
    fs.drain_data();
    out = attrib.total();
    return fault->stats().delay_total_ms;
  };

  obs::CostAccount base, delayed;
  const double base_wire = run(0.0, base);
  const double delayed_wire = run(0.25, delayed);

  EXPECT_DOUBLE_EQ(base_wire, 0.0);
  EXPECT_DOUBLE_EQ(base.fault_delay_ms, 0.0);
  ASSERT_GT(delayed_wire, 0.0);
  // Every injected millisecond lands in the dedicated category...
  EXPECT_DOUBLE_EQ(delayed.fault_delay_ms, delayed_wire);
  // ...and nowhere else: the mechanical/service categories are untouched.
  EXPECT_DOUBLE_EQ(delayed.disk_ms(), base.disk_ms());
  EXPECT_DOUBLE_EQ(delayed.queue_wait_ms, base.queue_wait_ms);
  EXPECT_DOUBLE_EQ(delayed.net_ms, base.net_ms);
  EXPECT_DOUBLE_EQ(delayed.mds_cpu_ms, base.mds_cpu_ms);
  EXPECT_EQ(delayed.net_bytes, base.net_bytes);
}

class TargetVerify : public ::testing::TestWithParam<alloc::AllocatorMode> {};

TEST_P(TargetVerify, CleanAfterChurn) {
  osd::StorageTarget t(target_cfg(GetParam()));
  // Write, close, delete across many files and streams.
  for (int round = 0; round < 5; ++round) {
    for (u64 ino = 1; ino <= 20; ++ino) {
      for (u64 b = 0; b < 32; b += 4) {
        ASSERT_TRUE(t.write(InodeNo{ino}, StreamId{static_cast<u32>(ino), 0},
                            FileBlock{b}, 4)
                        .ok());
      }
    }
    for (u64 ino = 1; ino <= 20; ++ino) {
      t.close_file(InodeNo{ino});
      if (ino % 3 == 0) t.delete_file(InodeNo{ino});
    }
    const auto report = t.verify();
    ASSERT_TRUE(report.ok()) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, TargetVerify,
                         ::testing::Values(alloc::AllocatorMode::kVanilla,
                                           alloc::AllocatorMode::kReservation,
                                           alloc::AllocatorMode::kOnDemand),
                         mode_name);

class NamespaceVerify : public ::testing::TestWithParam<mfs::DirectoryMode> {
 protected:
  mfs::MfsConfig cfg() {
    mfs::MfsConfig c;
    c.mode = GetParam();
    return c;
  }
};

TEST_P(NamespaceVerify, CleanAfterMixedNamespaceChurn) {
  mfs::Mfs fs(cfg());
  for (int d = 0; d < 6; ++d) {
    ASSERT_TRUE(fs.mkdir("d" + std::to_string(d)));
    for (int f = 0; f < 50; ++f) {
      ASSERT_TRUE(
          fs.create("d" + std::to_string(d) + "/f" + std::to_string(f)));
    }
  }
  // Churn: renames across directories, deletes, re-creates.
  for (int f = 0; f < 25; ++f) {
    ASSERT_TRUE(fs.rename("d0/f" + std::to_string(f),
                          "d1/moved" + std::to_string(f)));
  }
  for (int f = 0; f < 50; ++f) {
    ASSERT_TRUE(fs.unlink("d2/f" + std::to_string(f)).ok());
  }
  for (int f = 0; f < 30; ++f) {
    ASSERT_TRUE(fs.create("d2/new" + std::to_string(f)));
  }
  const auto report = fs.layout().verify();
  EXPECT_TRUE(report.ok()) << "links=" << report.links_consistent
                           << " blocks=" << report.blocks_unique;
  EXPECT_GT(report.inodes, 0u);
  EXPECT_EQ(report.directories, GetParam() == mfs::DirectoryMode::kEmbedded
                                    ? 7u   // root + 6
                                    : 7u);
}

TEST_P(NamespaceVerify, CleanAfterDeepTreeAndRmdirs) {
  mfs::Mfs fs(cfg());
  std::string path;
  for (int depth = 0; depth < 10; ++depth) {
    path += (depth ? "/lvl" : "lvl") + std::to_string(depth);
    ASSERT_TRUE(fs.mkdir(path));
    ASSERT_TRUE(fs.create(path + "/leaf"));
  }
  // Remove the deepest levels bottom-up.
  for (int depth = 9; depth >= 5; --depth) {
    ASSERT_TRUE(fs.unlink(path + "/leaf").ok());
    ASSERT_TRUE(fs.unlink(path).ok());
    const auto cut = path.rfind('/');
    path.resize(cut == std::string::npos ? 0 : cut);
  }
  EXPECT_TRUE(fs.layout().verify().ok());
}

INSTANTIATE_TEST_SUITE_P(BothLayouts, NamespaceVerify,
                         ::testing::Values(mfs::DirectoryMode::kNormal,
                                           mfs::DirectoryMode::kEmbedded),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(EndToEndVerify, PostmarkLeavesEverythingConsistent) {
  core::ClusterConfig cfg;
  cfg.num_targets = 4;
  cfg.target.allocator = alloc::AllocatorMode::kOnDemand;
  cfg.mds.mfs.mode = mfs::DirectoryMode::kEmbedded;
  core::ParallelFileSystem fs(cfg);
  workload::PostmarkConfig pcfg;
  pcfg.base_files = 300;
  pcfg.transactions = 800;
  pcfg.subdirectories = 12;
  (void)workload::run_postmark(fs, pcfg);
  EXPECT_TRUE(fs.mds().fs().layout().verify().ok());
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    EXPECT_TRUE(fs.target(t).verify().ok()) << "target " << t;
  }
}

}  // namespace
}  // namespace mif
