// Figure equivalence: with the workloads set to the paper-figure
// configurations, the benchmark reproduces the simulated results of the
// library's own figure workloads bit for bit.  This is what lets a host-cost
// number from the benchmark speak for the program the figures measure.
//
//   shared_stream at pacing 1.0, 32 streams  ==  workload::run_shared_file
//     (fig6a's on-demand configuration);
//   mds_aging at fig9's seed and the 0.1 target  ==  workload::run_aging.
//
// Exit status 0 when every field matches exactly.
#include <cstdio>

#include "bench.hpp"
#include "core/pfs.hpp"
#include "workload/aging.hpp"
#include "workload/shared_file.hpp"

namespace {

int failures = 0;

void expect_eq(const char* what, double reference, double bench) {
  if (reference == bench) return;
  std::printf("MISMATCH %s: reference %.17g, benchmark %.17g\n", what,
              reference, bench);
  ++failures;
}

void expect_clean(const char* what, const perfbench::Episode& e) {
  for (const std::string& f : e.failures) {
    std::printf("GATE %s: %s\n", what, f.c_str());
    ++failures;
  }
}

void shared_stream_matches_fig6a() {
  mif::core::ClusterConfig cfg;
  cfg.num_targets = 5;
  cfg.target.allocator = mif::alloc::AllocatorMode::kOnDemand;
  mif::core::ParallelFileSystem fs(cfg);
  mif::workload::SharedFileConfig w;
  w.processes = 32;
  w.threads_per_client = 4;
  w.blocks_per_process = 256;
  w.request_blocks = 4;
  w.read_segments = 1024;
  const mif::workload::SharedFileResult ref =
      mif::workload::run_shared_file(fs, w);

  perfbench::SharedStreamOptions o;
  o.clients = 8;
  o.blocks_per_process = 256;
  o.pacing = 1.0;
  const perfbench::Episode e = perfbench::run_shared_stream(o, 1, nullptr);
  expect_clean("shared_stream", e);
  expect_eq("phase1_ms", ref.phase1_ms, e.sim.at("phase1_ms"));
  expect_eq("phase2_ms", ref.phase2_ms, e.sim.at("phase2_ms"));
  expect_eq("phase2_throughput_mbps", ref.phase2_throughput_mbps,
            e.sim.at("sim_data_mbps"));
  expect_eq("extents", static_cast<double>(ref.extents),
            e.sim.at("sim_extents_per_file"));
  expect_eq("positionings", static_cast<double>(ref.positionings),
            e.sim.at("positionings"));
  expect_eq("mds_cpu", ref.mds_cpu, e.sim.at("mds_cpu"));
}

void mds_aging_matches_fig9() {
  mif::mds::Mds mds(perfbench::aging_mds_config());
  mif::workload::AgingConfig a;
  a.target_utilisation = 0.1;
  a.files_per_round = 10000;
  a.measure_files = 1000;
  a.measure_dirs = 4;
  const mif::workload::AgingResult ref = mif::workload::run_aging(mds, a);

  perfbench::MdsAgingOptions o;
  o.target_utilisation = 0.1;
  o.files_per_round = 10000;
  o.measure_files = 1000;
  o.measure_dirs = 4;
  o.repeats = 1;
  const perfbench::Episode e = perfbench::run_mds_aging(o, a.seed, nullptr);
  expect_clean("mds_aging", e);
  expect_eq("rounds", ref.rounds, e.sim.at("rounds"));
  expect_eq("utilisation_reached", ref.utilisation_reached,
            e.sim.at("utilisation_reached"));
  expect_eq("create_ops_per_sec", ref.create_ops_per_sec,
            e.sim.at("create_ops_per_sec"));
  expect_eq("delete_ops_per_sec", ref.delete_ops_per_sec,
            e.sim.at("delete_ops_per_sec"));
  expect_eq("create_disk_accesses",
            static_cast<double>(ref.create_disk_accesses),
            e.sim.at("create_disk_accesses"));
  expect_eq("delete_disk_accesses",
            static_cast<double>(ref.delete_disk_accesses),
            e.sim.at("delete_disk_accesses"));
}

}  // namespace

int main() {
  shared_stream_matches_fig6a();
  mds_aging_matches_fig9();
  if (failures == 0) std::printf("perfbench equivalence: OK\n");
  return failures == 0 ? 0 : 1;
}
