// Observability tour: mount a cluster, run the shared-file micro-benchmark,
// then print what the obs layer can tell you about it — the metrics registry
// as text, the on-demand allocator's state-machine counters from it, and
// (with --json <path>) the full machine-readable report.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/obs_report [--json report.json]
#include <cstdio>

#include "obs/report.hpp"
#include "workload/shared_file.hpp"

int main(int argc, char** argv) {
  using namespace mif;
  obs::BenchReport report("obs_report", argc, argv);

  core::ClusterConfig cfg;
  cfg.num_targets = 5;
  cfg.target.allocator = alloc::AllocatorMode::kOnDemand;
  core::ParallelFileSystem fs(cfg);

  workload::SharedFileConfig wcfg;
  wcfg.processes = 16;
  wcfg.blocks_per_process = 128;
  wcfg.request_blocks = 4;
  wcfg.read_segments = 256;
  const auto res = workload::run_shared_file(fs, wcfg);

  // --- the registry: every layer's counters under one namespace -----------
  obs::MetricsRegistry reg;
  fs.export_metrics(reg);
  std::printf("=== metrics registry ===\n%s\n", reg.to_text().c_str());

  // --- the §III state machine, as the registry counts it ------------------
  // Every target's on-demand allocator, summed under alloc.<mode>.*.
  std::printf("=== on-demand state machine (alloc.ondemand.*) ===\n");
  for (const char* key : {"layout_miss", "pre_alloc_layout",
                          "prealloc_disabled", "released_blocks"}) {
    std::printf("  %-17s: %llu\n", key,
                static_cast<unsigned long long>(reg.counter_value(
                    std::string("alloc.ondemand.") + key)));
  }

  std::printf("\nshared-file result: phase2 %.1f MB/s, %llu extents\n",
              res.phase2_throughput_mbps,
              static_cast<unsigned long long>(res.extents));

  if (report.json_enabled()) {
    obs::Json results;
    results["phase2_throughput_mbps"] = res.phase2_throughput_mbps;
    results["extents"] = res.extents;
    report.add_run("shared_file", obs::Json::Object{}, std::move(results),
                   fs.metrics_json());
    if (!report.write()) return 1;
  }
  return 0;
}
