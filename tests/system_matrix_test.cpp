// System matrix: miniature versions of every workload, run across the full
// (allocator × directory-layout × shards/placement × data-path mount)
// configuration grid.  Each cell must (a) complete without errors, (b) leave
// every storage target and the namespace verifiably consistent, (c) be
// bit-deterministic across two runs, and (d) conserve the attribution ledger
// against the global counters — including over multi-run list frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "obs/attrib.hpp"
#include "shard/map.hpp"
#include "workload/btio.hpp"
#include "workload/filetree.hpp"
#include "workload/ior.hpp"
#include "workload/metarates.hpp"
#include "workload/postmark.hpp"
#include "workload/shared_file.hpp"

namespace mif {
namespace {

/// One data-path mount: list-I/O lowering (0 = per-block), async pipeline
/// depth (1 = sync chain), per-client token-bucket QoS at a rate low enough
/// to actually park envelopes mid-workload, N-way replication fanning every
/// stripe unit to its copy targets, and frame formation staging the
/// deferrable envelopes.
struct IoMode {
  u64 list_io_max_runs;
  u32 pipeline_depth;
  bool qos;
  u32 replicas;
  bool formation;
};

/// (metadata shards, placement): the placement is ignored for one shard.
using Shards = std::pair<u32, shard::Policy>;

using Config =
    std::tuple<alloc::AllocatorMode, mfs::DirectoryMode, Shards, IoMode>;

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  std::string s{alloc::to_string(std::get<0>(info.param))};
  for (auto& c : s)
    if (c == '-') c = '_';
  const Shards shards = std::get<2>(info.param);
  const IoMode io = std::get<3>(info.param);
  return s + "_" + std::string(to_string(std::get<1>(info.param))) + "_s" +
         std::to_string(shards.first) +
         (shards.second == shard::Policy::kHash ? "h" : "") + "_l" +
         std::to_string(io.list_io_max_runs) + "d" +
         std::to_string(io.pipeline_depth) + (io.qos ? "_qos" : "") +
         (io.replicas >= 2 ? "_r" + std::to_string(io.replicas) : "") +
         (io.formation ? "_f" : "");
}

class SystemMatrix : public ::testing::TestWithParam<Config> {
 protected:
  core::ClusterConfig cluster() const {
    core::ClusterConfig cfg;
    cfg.num_targets = 3;
    cfg.target.allocator = std::get<0>(GetParam());
    cfg.mds.mfs.mode = std::get<1>(GetParam());
    cfg.mds.mfs.cache_blocks = 1024;
    cfg.mds.shards = std::get<2>(GetParam()).first;
    cfg.mds.placement = std::get<2>(GetParam()).second;
    const IoMode io = std::get<3>(GetParam());
    cfg.list_io_max_runs = io.list_io_max_runs;
    if (io.pipeline_depth >= 2) cfg.rpc.pipeline_depth = io.pipeline_depth;
    if (io.qos) {
      // A rate small against the workloads' data, so the scheduler
      // genuinely parks and releases envelopes: the shared-file, IOR and
      // PostMark clients outrun their 1 MiB burst (expect_qos_parked);
      // BTIO's and the file tree's fit inside it.
      cfg.rpc.qos.rate_bytes_per_ms = 8.0 * 1024.0;
    }
    if (io.replicas >= 2) cfg.redundancy.replicas = io.replicas;
    if (io.formation) cfg.rpc.kind = rpc::TransportOptions::Kind::kFormation;
    return cfg;
  }

  /// Under the QoS mount, a workload that outruns the token bucket must
  /// have parked envelopes.
  static void expect_qos_parked(const core::ParallelFileSystem& fs) {
    if (const rpc::QosTransport* qos = fs.transport().qos()) {
      EXPECT_GT(qos->stats().throttled, 0u);
    }
  }

  void verify_everything(core::ParallelFileSystem& fs) {
    for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
      EXPECT_TRUE(fs.mds(s).fs().layout().verify().ok()) << "shard " << s;
    }
    for (std::size_t t = 0; t < fs.num_targets(); ++t) {
      const auto report = fs.target(t).verify();
      EXPECT_TRUE(report.ok())
          << "target " << t << ": overlap=" << report.overlap_free
          << " accounted=" << report.space_accounted;
    }
  }
};

TEST_P(SystemMatrix, SharedFileMicroBenchmark) {
  core::ParallelFileSystem fs(cluster());
  workload::SharedFileConfig cfg;
  cfg.processes = 8;
  cfg.blocks_per_process = 64;
  cfg.read_segments = 32;
  const auto r = workload::run_shared_file(fs, cfg);
  EXPECT_GT(r.phase2_throughput_mbps, 0.0);
  EXPECT_GT(r.extents, 0u);
  expect_qos_parked(fs);
  verify_everything(fs);
}

TEST_P(SystemMatrix, IorSmall) {
  core::ParallelFileSystem fs(cluster());
  workload::IorConfig cfg;
  cfg.processes = 8;
  cfg.bytes_per_process = 256 * 1024;
  const auto r = workload::run_ior(fs, cfg);
  EXPECT_GT(r.total_mbps, 0.0);
  expect_qos_parked(fs);
  verify_everything(fs);
}

TEST_P(SystemMatrix, BtioSmallCollectiveAndNot) {
  for (bool collective : {false, true}) {
    core::ParallelFileSystem fs(cluster());
    workload::BtioConfig cfg;
    cfg.processes = 8;
    cfg.timesteps = 3;
    cfg.cells_per_process = 4;
    cfg.collective = collective;
    const auto r = workload::run_btio(fs, cfg);
    EXPECT_GT(r.write_mbps, 0.0) << "collective=" << collective;
    verify_everything(fs);
  }
}

TEST_P(SystemMatrix, MetaratesSmall) {
  mds::MdsConfig cfg;
  cfg.mfs.mode = std::get<1>(GetParam());
  rpc::MdsNode node(cfg);
  workload::MetaratesConfig wcfg;
  wcfg.clients = 3;
  wcfg.files_per_dir = 60;
  const auto r = workload::run_metarates(node, wcfg);
  EXPECT_EQ(r.create.ops, 180u);
  EXPECT_EQ(r.remove.ops, 180u);
  EXPECT_TRUE(node.mds().fs().layout().verify().ok());
}

TEST_P(SystemMatrix, PostmarkSmall) {
  core::ParallelFileSystem fs(cluster());
  workload::PostmarkConfig cfg;
  cfg.base_files = 80;
  cfg.transactions = 150;
  cfg.subdirectories = 6;
  const auto r = workload::run_postmark(fs, cfg);
  EXPECT_GT(r.transactions_per_sec, 0.0);
  expect_qos_parked(fs);
  verify_everything(fs);
}

TEST_P(SystemMatrix, FileTreeBuildCycle) {
  core::ParallelFileSystem fs(cluster());
  workload::FileTreeConfig cfg;
  cfg.directories = 8;
  cfg.files = 80;
  workload::FileTreeWorkload tree(fs, cfg);
  EXPECT_GT(tree.untar().elapsed_ms, 0.0);
  EXPECT_GT(tree.make().ops, 0u);
  EXPECT_GT(tree.make_clean().ops, 0u);
  EXPECT_EQ(tree.tar_scan().ops, 80u);
  verify_everything(fs);
}

// The attribution ledger must conserve across every cell — in particular
// over multi-run list/strided frames, whose wire bytes and disk submits are
// split pro-rata across contributors.
TEST_P(SystemMatrix, AttributionConservesOverListFrames) {
  core::ParallelFileSystem fs(cluster());
  obs::Attribution attrib;
  fs.set_attribution(&attrib);
  workload::SharedFileConfig cfg;
  cfg.processes = 6;
  cfg.blocks_per_process = 48;
  cfg.read_segments = 24;
  const auto r = workload::run_shared_file(fs, cfg);
  EXPECT_GT(r.extents, 0u);
  fs.drain_data();

  // attribution_json()'s "global" section is the canonical comparand: it
  // adds back the disk time reset_data_stats() discarded mid-workload.
  const obs::CostAccount total = attrib.total();
  const obs::Json aj = fs.attribution_json();
  const obs::Json& g = aj.at("global");
  const auto conserved = [](double attributed, double global) {
    const double tol =
        1e-9 * std::max({1.0, std::fabs(attributed), std::fabs(global)});
    EXPECT_NEAR(attributed, global, tol);
  };
  conserved(total.disk_ms(), g.at("disk_ms").as_double());
  conserved(total.net_ms, g.at("net_ms").as_double());
  conserved(total.mds_cpu_ms, g.at("mds_cpu_ms").as_double());
  EXPECT_EQ(static_cast<double>(total.net_bytes),
            g.at("net_bytes").as_double());
  if (const rpc::AsyncTransport* a = fs.transport().async()) {
    conserved(total.stall_ms, a->report().stall_ms);
  } else {
    EXPECT_DOUBLE_EQ(total.stall_ms, 0.0);
  }
}

TEST_P(SystemMatrix, SharedFileDeterministic) {
  workload::SharedFileConfig cfg;
  cfg.processes = 6;
  cfg.blocks_per_process = 32;
  cfg.read_segments = 16;
  core::ParallelFileSystem fs1(cluster());
  core::ParallelFileSystem fs2(cluster());
  const auto a = workload::run_shared_file(fs1, cfg);
  const auto b = workload::run_shared_file(fs2, cfg);
  EXPECT_EQ(a.extents, b.extents);
  EXPECT_DOUBLE_EQ(a.phase1_ms, b.phase1_ms);
  EXPECT_DOUBLE_EQ(a.phase2_ms, b.phase2_ms);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SystemMatrix,
    ::testing::Combine(
        ::testing::Values(alloc::AllocatorMode::kVanilla,
                          alloc::AllocatorMode::kReservation,
                          alloc::AllocatorMode::kOnDemand),
        ::testing::Values(mfs::DirectoryMode::kNormal,
                          mfs::DirectoryMode::kEmbedded),
        // Metadata shards: the classic single-MDS stack, and a 3-shard
        // mount routed through shard::ShardedTransport under each placement
        // (hash placement runs every namespace op through the §IV-C name
        // table and mirrored directories).
        ::testing::Values(Shards{1, shard::Policy::kSubtree},
                          Shards{3, shard::Policy::kSubtree},
                          Shards{3, shard::Policy::kHash}),
        // I/O mode: per-block sync (the paper's default), list I/O on the
        // sync chain, list I/O through a depth-4 async pipeline, the
        // pipelined chain under token-bucket QoS admission control, a
        // 2-way replicated pipelined mount (every workload doubles its
        // stripe-unit writes through the redundancy fan), and the frame
        // formation layer staging both the per-block sync mount and the
        // replicated list-I/O pipeline the stacked_collective benchmark
        // workload mounts.
        ::testing::Values(IoMode{0, 1, false, 1, false},
                          IoMode{64, 1, false, 1, false},
                          IoMode{64, 4, false, 1, false},
                          IoMode{64, 4, true, 1, false},
                          IoMode{64, 4, false, 2, false},
                          IoMode{0, 1, false, 1, true},
                          IoMode{64, 4, false, 2, true})),
    config_name);

}  // namespace
}  // namespace mif
