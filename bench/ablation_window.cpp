// Ablation: on-demand window tuning (§III-C).  Sweeps the growth scale
// (2 vs 4, the two values the paper allows) and max_preallocation_size
// (the "tunable" cap) on the shared-file micro-benchmark, reporting
// throughput, extents and wasted (released) blocks.
#include <cstdio>
#include <vector>

#include "obs/report.hpp"
#include "util/table.hpp"
#include "workload/shared_file.hpp"

namespace {

struct Out {
  double mbps;
  mif::u64 extents;
  mif::u64 released;
};

Out run(mif::u64 scale, mif::u64 max_blocks, bool quick) {
  mif::core::ClusterConfig cfg;
  cfg.num_targets = 5;
  cfg.target.allocator = mif::alloc::AllocatorMode::kOnDemand;
  cfg.target.tuning.scale = scale;
  cfg.target.tuning.max_preallocation_blocks = max_blocks;
  mif::core::ParallelFileSystem fs(cfg);
  mif::workload::SharedFileConfig wcfg;
  wcfg.processes = quick ? 8 : 32;
  wcfg.blocks_per_process = quick ? 64 : 256;
  const auto r = mif::workload::run_shared_file(fs, wcfg);
  mif::u64 released = 0;
  for (std::size_t t = 0; t < fs.num_targets(); ++t)
    released += fs.target(t).allocator().stats().released_blocks;
  return {r.phase2_throughput_mbps, r.extents, released};
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  mif::obs::BenchReport report("ablation_window", argc, argv);
  std::printf(
      "Ablation — on-demand window sizing (scale x max cap), 32 streams\n\n");
  Table t({"scale", "max window KiB", "read MB/s", "extents",
           "released blocks"});
  const std::vector<mif::u64> caps =
      report.quick() ? std::vector<mif::u64>{64, 1024}
                     : std::vector<mif::u64>{64, 256, 1024, 2048};
  for (mif::u64 scale : {2u, 4u}) {
    for (mif::u64 cap : caps) {
      const Out o = run(scale, cap, report.quick());
      t.add_row({std::to_string(scale),
                 std::to_string(cap * mif::kBlockSize / 1024),
                 Table::num(o.mbps), std::to_string(o.extents),
                 std::to_string(o.released)});
      if (report.json_enabled()) {
        mif::obs::Json config;
        config["scale"] = scale;
        config["max_preallocation_blocks"] = cap;
        mif::obs::Json results;
        results["read_mbps"] = o.mbps;
        results["extents"] = o.extents;
        results["released_blocks"] = o.released;
        report.add_run("scale=" + std::to_string(scale) +
                           " cap=" + std::to_string(cap),
                       std::move(config), std::move(results));
      }
    }
  }
  t.print();
  if (!report.write()) return 1;
  std::printf(
      "\nLarger caps keep long sequential runs contiguous; the scale mostly "
      "affects how fast the window gets there.\n");
  return 0;
}
