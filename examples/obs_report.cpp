// Observability tour: mount a cluster with a trace buffer attached, run the
// shared-file micro-benchmark, then print everything the obs layer can tell
// you about it — the metrics registry as text, the allocator state-machine
// trace, and (with --json <path>) the full machine-readable report.
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

  // Attach one bounded trace sink to the whole stack: every target's
  // allocator, the MDS journal, and the MDS buffer cache record into it.
  obs::TraceBuffer trace(8192);
  fs.set_trace(&trace);

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

  // --- the trace: what the on-demand state machine actually did -----------
  std::printf("=== allocator trace (%zu events, %llu dropped) ===\n",
              trace.size(), static_cast<unsigned long long>(trace.dropped()));
  u64 misses = 0, promotions = 0, demotions = 0, lazy_frees = 0;
  for (const auto& ev : trace.events()) {
    switch (ev.type) {
      case obs::TraceEventType::kLayoutMiss: ++misses; break;
      case obs::TraceEventType::kPreAllocLayout: ++promotions; break;
      case obs::TraceEventType::kStreamDemote: ++demotions; break;
      case obs::TraceEventType::kLazyFree: ++lazy_frees; break;
      default: break;
    }
  }
  std::printf("  layout_miss     : %llu\n",
              static_cast<unsigned long long>(misses));
  std::printf("  pre_alloc_layout: %llu\n",
              static_cast<unsigned long long>(promotions));
  std::printf("  stream_demote   : %llu\n",
              static_cast<unsigned long long>(demotions));
  std::printf("  lazy_free       : %llu\n",
              static_cast<unsigned long long>(lazy_frees));

  // The events of one stream in isolation (read-side filter): take the
  // (inode, stream) of the first stream-scoped event and show its
  // miss → promote ramp.
  for (const auto& first : trace.events()) {
    if (first.stream == 0) continue;
    const InodeNo ino{first.inode};
    const StreamId sid{static_cast<u32>(first.stream >> 32),
                       static_cast<u32>(first.stream)};
    const auto one = trace.events(ino, sid);
    std::printf("\nfirst stream's events (inode %llu): %zu recorded\n",
                static_cast<unsigned long long>(first.inode), one.size());
    std::size_t shown = 0;
    for (const auto& ev : one) {
      if (++shown > 6) break;
      std::printf("  seq=%llu %s args=(%llu, %llu)\n",
                  static_cast<unsigned long long>(ev.seq),
                  std::string(obs::to_string(ev.type)).c_str(),
                  static_cast<unsigned long long>(ev.arg0),
                  static_cast<unsigned long long>(ev.arg1));
    }
    break;
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
    report.doc()["trace"] = trace.to_json();
    if (!report.write()) return 1;
  }
  return 0;
}
