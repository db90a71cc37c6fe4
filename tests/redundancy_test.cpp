// Redundancy subsystem tests: replica-subfile naming and placement, policy
// validation, degraded-read rerouting around a killed target, the online
// repair service (including mid-repair fault rollback), attribution
// conservation while a rebuild runs under the system principal, and a
// threaded degraded-read case for the sanitizer builds.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/pfs.hpp"
#include "obs/attrib.hpp"
#include "redundancy/redundancy.hpp"
#include "redundancy/repair.hpp"
#include "rpc/fault.hpp"
#include "shard/transport.hpp"

namespace mif {
namespace {

core::ClusterConfig replicated_cluster(u32 replicas) {
  core::ClusterConfig cfg;
  cfg.num_targets = 4;
  cfg.target.allocator = alloc::AllocatorMode::kOnDemand;
  cfg.redundancy.replicas = replicas;
  cfg.rpc.inject_faults = true;  // mounts the fault layer (kill mode)
  return cfg;
}

// --- naming and placement ----------------------------------------------------

TEST(RedundancyPlacement, ReplicaInoRoundTrips) {
  const InodeNo primary{12345};
  for (u32 c = 1; c <= 3; ++c) {
    const InodeNo r = redundancy::replica_ino(primary, c);
    EXPECT_TRUE(redundancy::is_replica(r));
    EXPECT_EQ(redundancy::copy_of(r), c);
    EXPECT_EQ(redundancy::primary_ino(r).v, primary.v);
    EXPECT_NE(r.v, primary.v);
  }
  EXPECT_FALSE(redundancy::is_replica(primary));
  EXPECT_EQ(redundancy::copy_of(primary), 0u);
  EXPECT_EQ(redundancy::primary_ino(primary).v, primary.v);
}

TEST(RedundancyPlacement, CopyTargetRotatesAroundTheStripe) {
  const osd::StripeLayout layout{4};
  EXPECT_EQ(redundancy::copy_target(layout, 0, 1), 1u);
  EXPECT_EQ(redundancy::copy_target(layout, 1, 1), 2u);
  EXPECT_EQ(redundancy::copy_target(layout, 3, 1), 0u);  // wraps
  EXPECT_EQ(redundancy::copy_target(layout, 2, 2), 0u);
  // A copy never lands on its own primary for any copy index < width.
  for (u32 p = 0; p < 4; ++p) {
    for (u32 c = 1; c < 4; ++c) {
      EXPECT_NE(redundancy::copy_target(layout, p, c), p)
          << "primary " << p << " copy " << c;
    }
  }
}

TEST(RedundancyPlacement, PolicyCountsAndValidation) {
  redundancy::Policy off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.copies(), 0u);
  EXPECT_TRUE(redundancy::validate(off, 4).empty());

  redundancy::Policy three;
  three.replicas = 3;
  EXPECT_TRUE(three.enabled());
  EXPECT_EQ(three.copies(), 2u);
  EXPECT_TRUE(redundancy::validate(three, 4).empty());

  redundancy::Policy zero;
  zero.replicas = 0;
  EXPECT_FALSE(redundancy::validate(zero, 4).empty());

  redundancy::Policy wide;
  wide.replicas = 5;
  EXPECT_FALSE(redundancy::validate(wide, 4).empty());  // > width

  redundancy::Policy two;
  two.replicas = 2;
  EXPECT_FALSE(redundancy::validate(two, 65).empty());  // HealthMap capacity
}

TEST(RedundancyPlacement, HealthMapIsStickyAndCounts) {
  redundancy::HealthMap h;
  h.resize(4);
  EXPECT_TRUE(h.alive(2));
  EXPECT_FALSE(h.any_dead());
  h.mark_dead(2);
  h.mark_dead(2);  // idempotent: one death event
  EXPECT_FALSE(h.alive(2));
  EXPECT_EQ(h.dead_count(), 1u);
  EXPECT_EQ(h.deaths(), 1u);
  h.mark_alive(2);
  EXPECT_TRUE(h.alive(2));
  EXPECT_EQ(h.dead_count(), 0u);
  EXPECT_EQ(h.deaths(), 1u);  // cumulative, survives revival
}

// --- degraded reads and online repair ---------------------------------------

TEST(Redundancy, DegradedReadsRerouteAndRepairRevives) {
  core::ParallelFileSystem fs(replicated_cluster(2));
  fs.transport().fault()->kill_osd(1, 0.0);  // fires on the first envelope

  auto client = fs.connect(ClientId{1});
  std::vector<client::FileHandle> fhs;
  for (int f = 0; f < 4; ++f) {
    auto fh = client.create("/red-" + std::to_string(f));
    ASSERT_TRUE(fh);
    // 4 full stripes: every target owns primary units of every file.
    ASSERT_TRUE(client.write(*fh, 0, 0, 4 * 4 * 16 * kBlockSize).ok());
    fhs.push_back(*fh);
  }
  // The kill fired during the workload: target 1 is dead and wiped, and the
  // writes that would have landed there were carried by the surviving copy.
  EXPECT_FALSE(fs.health().alive(1));
  EXPECT_GT(fs.redundancy_stats().degraded_writes.load(), 0u);
  EXPECT_GT(fs.redundancy_stats().replica_writes.load(), 0u);

  // Degraded phase: every read succeeds, re-routed to surviving copies.
  for (const auto& fh : fhs) {
    EXPECT_TRUE(client.read(fh, 0, 4 * 4 * 16 * kBlockSize).ok());
  }
  EXPECT_GT(fs.redundancy_stats().degraded_reads.load(), 0u);
  EXPECT_EQ(fs.redundancy_stats().lost_routes.load(), 0u);

  // The drain barrier runs the rebuild to completion and revives the target.
  fs.drain_data();
  ASSERT_NE(fs.repair(), nullptr);
  const redundancy::RepairStats& rs = fs.repair()->stats();
  EXPECT_TRUE(fs.health().alive(1));
  EXPECT_EQ(fs.repair()->backlog(), 0u);
  EXPECT_EQ(rs.requested, 1u);
  EXPECT_EQ(rs.completed, 1u);
  EXPECT_GT(rs.files_rebuilt, 0u);
  EXPECT_GT(rs.bytes_rebuilt, 0u);
  EXPECT_EQ(rs.unrecoverable, 0u);
  EXPECT_GE(rs.completed_at_ms, 0.0);

  // Post-repair reads route to the primary again: the degraded counter
  // stays where the degraded phase left it.
  const u64 degraded_before = fs.redundancy_stats().degraded_reads.load();
  for (const auto& fh : fhs) {
    EXPECT_TRUE(client.read(fh, 0, 4 * 4 * 16 * kBlockSize).ok());
  }
  EXPECT_EQ(fs.redundancy_stats().degraded_reads.load(), degraded_before);

  for (const auto& fh : fhs) ASSERT_TRUE(client.close(fh).ok());
  fs.drain_data();
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    EXPECT_TRUE(fs.target(t).verify().ok()) << "target " << t;
  }
}

TEST(Redundancy, MidRepairFaultRollsBackAndConverges) {
  core::ParallelFileSystem fs(replicated_cluster(2));
  fs.transport().fault()->kill_osd(1, 0.0);

  auto client = fs.connect(ClientId{1});
  auto fh = client.create("/rollback");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(client.write(*fh, 0, 0, 8 * 4 * 16 * kBlockSize).ok());
  ASSERT_FALSE(fs.health().alive(1));

  // Lose the rebuild's first write: its gather from the survivor passes,
  // the replay onto the replacement is dropped, the victim subfile is rolled
  // back, and the next pass retries.
  rpc::FaultTransport* fault = fs.transport().fault();
  fault->arm({.drop_after = 1, .drop_count = 1});
  fs.drain_data();
  EXPECT_EQ(fault->stats().dropped, 1u);

  const redundancy::RepairStats& rs = fs.repair()->stats();
  EXPECT_GE(rs.rollbacks, 1u);
  EXPECT_EQ(rs.completed, 1u);
  EXPECT_EQ(rs.unrecoverable, 0u);
  EXPECT_TRUE(fs.health().alive(1));
  EXPECT_TRUE(client.read(*fh, 0, 8 * 4 * 16 * kBlockSize).ok());
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    EXPECT_TRUE(fs.target(t).verify().ok()) << "target " << t;
  }
}

// --- attribution conservation under repair -----------------------------------

/// Conservation tolerance (same contract as attrib_test): per-principal
/// buckets accumulate in a different order than the global counters.
void ExpectConserved(double attributed, double global) {
  const double tol =
      1e-9 * std::max({1.0, std::fabs(attributed), std::fabs(global)});
  EXPECT_NEAR(attributed, global, tol);
}

TEST(Redundancy, AttributionConservesAcrossRepair) {
  core::ParallelFileSystem fs(replicated_cluster(2));
  obs::Attribution attrib;
  fs.set_attribution(&attrib);
  fs.transport().fault()->kill_osd(2, 0.0);

  auto client = fs.connect(ClientId{1});
  auto fh = client.create("/attrib");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(client.write(*fh, 0, 0, 8 * 4 * 16 * kBlockSize).ok());
  ASSERT_TRUE(client.read(*fh, 0, 8 * 4 * 16 * kBlockSize).ok());
  ASSERT_TRUE(client.close(*fh).ok());
  fs.finish_mds();
  fs.drain_data();  // repair runs here, charged to the system principal
  ASSERT_EQ(fs.repair()->stats().completed, 1u);

  // Every cost category still sums to the stack's own global counters.
  const obs::CostAccount total = attrib.total();
  double disk_ms = fs.data_stats().busy_ms();
  double mds_cpu_ms = 0.0;
  for (std::size_t i = 0; i < fs.mds_shards(); ++i) {
    disk_ms += fs.mds(i).fs().disk().stats().busy_ms();
    mds_cpu_ms += fs.mds(i).stats().cpu_ms;
  }
  const sim::NetworkStats& mn = fs.transport().meta_network().stats();
  const sim::NetworkStats& dn = fs.transport().data_network().stats();
  ExpectConserved(total.disk_ms(), disk_ms);
  ExpectConserved(total.net_ms, mn.time_ms + dn.time_ms);
  ExpectConserved(total.mds_cpu_ms, mds_cpu_ms);
  EXPECT_EQ(total.net_bytes, mn.bytes + dn.bytes);

  // The rebuild traffic landed on the reserved system principal, not on any
  // client's bill.
  const auto accounts = attrib.accounts();
  const auto sys = accounts.find(obs::Principal{}.key());
  ASSERT_NE(sys, accounts.end());
  EXPECT_GT(sys->second.rpcs, 0u);
}

// --- threaded degraded reads (sanitizer target) ------------------------------

TEST(Redundancy, ConcurrentDegradedReadsAreClean) {
  core::ParallelFileSystem fs(replicated_cluster(2));
  fs.transport().fault()->kill_osd(1, 0.0);

  constexpr int kThreads = 4;
  constexpr u64 kBytes = 2 * 4 * 16 * kBlockSize;
  std::vector<client::ClientFs> clients;
  std::vector<client::FileHandle> fhs;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(fs.connect(ClientId{static_cast<u32>(t) + 1}));
    auto fh = clients.back().create("/deg-" + std::to_string(t));
    ASSERT_TRUE(fh);
    ASSERT_TRUE(clients[t].write(fhs.emplace_back(*fh), 0, 0, kBytes).ok());
  }
  ASSERT_FALSE(fs.health().alive(1));

  // Each session reads its own file; the degraded router and the shared
  // health/stats state are exercised from every thread at once.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        if (!clients[t].read(fhs[t], 0, kBytes).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(fs.redundancy_stats().degraded_reads.load(), 0u);

  fs.drain_data();
  EXPECT_TRUE(fs.health().alive(1));
  EXPECT_EQ(fs.repair()->stats().completed, 1u);
  for (int t = 0; t < kThreads; ++t)
    ASSERT_TRUE(clients[t].close(fhs[t]).ok());
}

}  // namespace
}  // namespace mif
