// Regenerates Fig. 6(b): shared-file phase-2 throughput at 32 processes as
// the phase-1 allocation (request) size varies.  The paper: small requests
// suffer most under reservation ("the scheduler … can not merge the
// fragmentary requests"), on-demand narrows the gap to static.
#include <cstdio>
#include <vector>

#include "obs/report.hpp"
#include "util/table.hpp"
#include "workload/shared_file.hpp"

namespace {

double run(mif::alloc::AllocatorMode mode, bool static_pre,
           mif::u64 request_blocks, bool quick) {
  mif::core::ClusterConfig cfg;
  cfg.num_targets = 5;
  cfg.target.allocator = mode;
  mif::core::ParallelFileSystem fs(cfg);
  mif::workload::SharedFileConfig wcfg;
  wcfg.processes = quick ? 8 : 32;
  wcfg.blocks_per_process = quick ? 64 : 256;
  wcfg.request_blocks = request_blocks;
  wcfg.read_segments = quick ? 128 : 1024;
  wcfg.static_prealloc = static_pre;
  return mif::workload::run_shared_file(fs, wcfg).phase2_throughput_mbps;
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  mif::obs::BenchReport report("fig6b_request_size", argc, argv);
  std::printf(
      "Fig 6(b) — phase-2 throughput vs phase-1 request size, 32 streams\n"
      "(paper: small allocations hurt reservation most; on-demand "
      "recovers)\n\n");
  Table t({"request KiB", "reservation MB/s", "on-demand MB/s",
           "static MB/s", "on-demand vs reservation"});
  const std::vector<mif::u64> sweep =
      report.quick() ? std::vector<mif::u64>{1, 4}
                     : std::vector<mif::u64>{1, 2, 4, 8, 16, 32};
  for (mif::u64 blocks : sweep) {
    const bool q = report.quick();
    const double res = run(mif::alloc::AllocatorMode::kReservation, false,
                           blocks, q);
    const double ond = run(mif::alloc::AllocatorMode::kOnDemand, false,
                           blocks, q);
    const double sta = run(mif::alloc::AllocatorMode::kStatic, true, blocks, q);
    t.add_row({std::to_string(blocks * mif::kBlockSize / 1024),
               Table::num(res), Table::num(ond), Table::num(sta),
               Table::pct(ond / res - 1.0)});
    if (report.json_enabled()) {
      mif::obs::Json config;
      config["request_blocks"] = blocks;
      mif::obs::Json results;
      results["reservation_mbps"] = res;
      results["ondemand_mbps"] = ond;
      results["static_mbps"] = sta;
      report.add_run("request_blocks=" + std::to_string(blocks),
                     std::move(config), std::move(results));
    }
  }
  t.print();
  if (!report.write()) return 1;
  return 0;
}
