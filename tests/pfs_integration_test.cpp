// Integration tests across the whole stack: MDS + OSTs + clients, both MiF
// techniques on and off, checking the end-to-end behaviours the paper's
// evaluation depends on.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/pfs.hpp"
#include "obs/span.hpp"
#include "workload/shared_file.hpp"

namespace mif::core {
namespace {

ClusterConfig cluster(alloc::AllocatorMode alloc_mode,
                      mfs::DirectoryMode dir_mode) {
  ClusterConfig cfg;
  cfg.num_targets = 5;  // the paper's five-disk stripe
  cfg.target.allocator = alloc_mode;
  cfg.mds.mfs.mode = dir_mode;
  return cfg;
}

TEST(PfsIntegration, MountConnectsAllComponents) {
  ParallelFileSystem fs(
      cluster(alloc::AllocatorMode::kOnDemand, mfs::DirectoryMode::kEmbedded));
  EXPECT_EQ(fs.num_targets(), 5u);
  EXPECT_EQ(fs.stripe().width, 5u);
  auto c = fs.connect(ClientId{7});
  EXPECT_EQ(c.id().v, 7u);
}

TEST(PfsIntegration, FullLifecycleAcrossSubsystems) {
  ParallelFileSystem fs(
      cluster(alloc::AllocatorMode::kOnDemand, mfs::DirectoryMode::kEmbedded));
  auto c = fs.connect(ClientId{1});
  ASSERT_TRUE(fs.rpc().mkdir("job"));
  auto fh = c.create("job/out.odb");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 2 << 20).ok());
  ASSERT_TRUE(c.close(*fh).ok());
  auto open = fs.rpc().open_getlayout("job/out.odb");
  ASSERT_TRUE(open);
  EXPECT_GT(open->extent_count, 0u);
  fs.delete_file(fh->ino);
  ASSERT_TRUE(fs.rpc().unlink("job/out.odb").ok());
  EXPECT_EQ(fs.rpc().open_getlayout("job/out.odb").error(), Errc::kNotFound);
}

TEST(PfsIntegration, SharedFileWorkloadRunsOnEveryAllocator) {
  workload::SharedFileConfig wcfg;
  wcfg.processes = 8;
  wcfg.blocks_per_process = 64;
  wcfg.read_segments = 64;
  for (auto mode : {alloc::AllocatorMode::kVanilla,
                    alloc::AllocatorMode::kReservation,
                    alloc::AllocatorMode::kOnDemand}) {
    ParallelFileSystem fs(cluster(mode, mfs::DirectoryMode::kNormal));
    const auto res = workload::run_shared_file(fs, wcfg);
    EXPECT_GT(res.phase2_throughput_mbps, 0.0) << to_string(mode);
    EXPECT_EQ(res.file_blocks, 8u * 64u);
    EXPECT_GT(res.extents, 0u);
  }
}

// The headline end-to-end claim (Fig. 6 ordering): static ≥ on-demand >
// reservation on phase-2 throughput, and the extent ordering matches
// Table I.
TEST(PfsIntegration, PreallocationStrategiesOrderAsInPaper) {
  workload::SharedFileConfig wcfg;
  wcfg.processes = 16;
  wcfg.blocks_per_process = 128;
  wcfg.read_segments = 128;

  auto measure = [&](alloc::AllocatorMode mode, bool static_pre) {
    ParallelFileSystem fs(cluster(mode, mfs::DirectoryMode::kNormal));
    workload::SharedFileConfig c = wcfg;
    c.static_prealloc = static_pre;
    return workload::run_shared_file(fs, c);
  };

  const auto reservation = measure(alloc::AllocatorMode::kReservation, false);
  const auto ondemand = measure(alloc::AllocatorMode::kOnDemand, false);
  const auto fallocate = measure(alloc::AllocatorMode::kStatic, true);

  EXPECT_GT(ondemand.phase2_throughput_mbps,
            reservation.phase2_throughput_mbps);
  EXPECT_GE(fallocate.phase2_throughput_mbps,
            ondemand.phase2_throughput_mbps * 0.95);
  EXPECT_LT(ondemand.extents, reservation.extents);
  EXPECT_LE(fallocate.extents, ondemand.extents);
  EXPECT_LT(ondemand.positionings, reservation.positionings);
}

TEST(PfsIntegration, MdsCpuFollowsExtentCounts) {
  workload::SharedFileConfig wcfg;
  wcfg.processes = 16;
  wcfg.blocks_per_process = 64;
  ParallelFileSystem res_fs(
      cluster(alloc::AllocatorMode::kReservation, mfs::DirectoryMode::kNormal));
  ParallelFileSystem ond_fs(
      cluster(alloc::AllocatorMode::kOnDemand, mfs::DirectoryMode::kNormal));
  const auto r = workload::run_shared_file(res_fs, wcfg);
  const auto o = workload::run_shared_file(ond_fs, wcfg);
  EXPECT_GT(r.extents, o.extents);
  EXPECT_GE(r.mds_cpu, o.mds_cpu);
}

TEST(PfsIntegration, PreallocateSplitsAcrossStripe) {
  ParallelFileSystem fs(
      cluster(alloc::AllocatorMode::kStatic, mfs::DirectoryMode::kNormal));
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/pre");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(fs.preallocate(fh->ino, 5 * 16 * 4).ok());  // 4 units per disk
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    EXPECT_EQ(fs.target(t).extent_count(fh->ino), 1u) << "target " << t;
  }
}

// A shared-file write must leave latency attribution in every layer: client
// root spans, MDS phases, OSD/allocator phases, and the simulated disks'
// mechanical phases — the end-to-end chain the span tracer exists for.
TEST(PfsIntegration, SharedFileWriteSpansEveryLayer) {
  ParallelFileSystem fs(
      cluster(alloc::AllocatorMode::kOnDemand, mfs::DirectoryMode::kEmbedded));
  obs::SpanCollector spans;
  fs.set_spans(&spans);

  workload::SharedFileConfig wcfg;
  wcfg.processes = 8;
  wcfg.blocks_per_process = 64;
  wcfg.read_segments = 64;
  const auto res = workload::run_shared_file(fs, wcfg);
  EXPECT_GT(res.phase2_throughput_mbps, 0.0);

  // Sim spans are told apart by the label their track was claimed with.
  const std::vector<std::string> labels = spans.track_labels();
  std::set<std::string> phases;
  bool data_disk = false, mds_disk = false;
  for (const obs::SpanRecord& s : spans.spans()) {
    phases.emplace(s.name);
    if (s.clock == obs::SpanClock::kSim) {
      ASSERT_LT(s.track, labels.size());
      const std::string& label = labels[s.track];
      if (label.starts_with("mds disk")) mds_disk = true;
      else if (label.starts_with("osd ")) data_disk = true;
    }
  }
  for (const char* phase :
       {"client.create", "client.write", "client.read", "client.close",
        "mds.create", "mds.report_extents", "osd.stripe_unit", "alloc.decide",
        "journal.commit", "disk.seek", "disk.transfer"}) {
    EXPECT_TRUE(phases.count(phase)) << phase;
  }
  // Both disk families recorded mechanical spans: the striped data disks
  // and the MDS metadata disk.
  EXPECT_TRUE(data_disk);
  EXPECT_TRUE(mds_disk);

  // The per-phase stats cover the same phases and the registry export
  // carries them (quantiles included).
  obs::MetricsRegistry reg;
  fs.export_metrics(reg);
  const obs::Json j = reg.to_json();
  const auto& histos = j.as_object().at("histograms").as_object();
  EXPECT_TRUE(histos.count("span.client.write"));
  EXPECT_TRUE(histos.count("span.disk.seek"));
  EXPECT_TRUE(histos.count("span.journal.commit"));
}

TEST(PfsIntegration, DataElapsedIsMaxOverTargets) {
  ParallelFileSystem fs(
      cluster(alloc::AllocatorMode::kOnDemand, mfs::DirectoryMode::kNormal));
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/skew");
  ASSERT_TRUE(fh);
  // Write only the first stripe unit → only target 0 busy.
  ASSERT_TRUE(c.write(*fh, 0, 0, 16 * kBlockSize).ok());
  fs.drain_data();
  EXPECT_DOUBLE_EQ(fs.data_elapsed_ms(), fs.target(0).elapsed_ms());
  EXPECT_DOUBLE_EQ(fs.target(1).elapsed_ms(), 0.0);
}

}  // namespace
}  // namespace mif::core
