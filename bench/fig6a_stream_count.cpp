// Regenerates Fig. 6(a): shared-file phase-2 throughput as the number of
// concurrent write streams varies (32/48/64), for the three preallocation
// strategies.  The paper reports on-demand beating reservation by ~17 %,
// 27 % and 48 % at 32, 48 and 64 processes, with static preallocation
// (fallocate) as the contiguous upper bound.
//
// `--json <path>` additionally writes the full per-run metrics registry
// (allocator counters, extent-count histogram, positioning-time stats);
// `--trace <path>` records end-to-end request spans and writes a
// Chrome-trace / Perfetto JSON (open at ui.perfetto.dev); `--quick` shrinks
// the sweep for CI schema checks; `--pipeline-depth N` (N >= 2) mounts the
// async completion-queue transport and adds the pipelined end-to-end
// timings to each run's results (depth <= 1 output is byte-identical to
// the synchronous chain); `--adaptive-depth N` (N >= 2) instead floats the
// window in [2, N] off the live OSD queue gauges and adds the controller's
// depth trajectory to the pipelined fields.  Every run mounts the harness's
// ClusterConfig overlay, so `--mds-shards N` and `--list-io N` apply too.
#include <cstdio>
#include <vector>

#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "util/table.hpp"
#include "workload/shared_file.hpp"

namespace {

struct RunOut {
  mif::workload::SharedFileResult res;
  mif::obs::Json metrics;
  mif::rpc::AsyncReport pipeline{};  // meaningful only when depth >= 2
};

RunOut run(const mif::obs::BenchReport& report, mif::alloc::AllocatorMode mode,
           bool static_pre, mif::u32 processes,
           mif::obs::SpanCollector* spans) {
  mif::core::ClusterConfig cfg;
  report.overlay(cfg);
  cfg.num_targets = 5;  // "all data to be striped on five disks"
  cfg.target.allocator = mode;
  mif::core::ParallelFileSystem fs(cfg);
  fs.set_spans(spans);
  mif::workload::SharedFileConfig wcfg;
  wcfg.processes = processes;
  wcfg.threads_per_client = 4;
  wcfg.blocks_per_process = report.quick() ? 64 : 256;  // full: 1 MiB each
  wcfg.request_blocks = 4;        // 16 KiB writes (Fig. 6(b)'s low-mid range)
  wcfg.read_segments = report.quick() ? 128 : 1024;
  wcfg.static_prealloc = static_pre;
  RunOut out;
  out.res = mif::workload::run_shared_file(fs, wcfg);
  out.metrics = fs.metrics_json();
  if (const mif::rpc::AsyncTransport* a = fs.transport().async())
    out.pipeline = a->report();
  return out;
}

mif::obs::Json results_json(const RunOut& out) {
  const mif::workload::SharedFileResult& r = out.res;
  mif::obs::Json j;
  j["phase1_ms"] = r.phase1_ms;
  j["phase2_ms"] = r.phase2_ms;
  j["phase2_throughput_mbps"] = r.phase2_throughput_mbps;
  j["file_blocks"] = r.file_blocks;
  j["extents"] = r.extents;
  j["positionings"] = r.positionings;
  j["mds_cpu"] = r.mds_cpu;
  // Pipelined end-to-end timings appear only under an async mount, so the
  // default (and depth-1) output stays byte-identical to the sync chain.
  // serial_ms is what a depth-1 client pays end-to-end for the same issue
  // sequence; elapsed_ms is the overlapped timeline — their ratio is the
  // transport-level aggregate-bandwidth win.
  if (out.pipeline.depth >= 2) {
    j["pipeline_depth"] = out.pipeline.depth;
    j["pipeline_serial_ms"] = out.pipeline.serial_ms;
    j["pipeline_elapsed_ms"] = out.pipeline.elapsed_ms;
    j["pipeline_stall_ms"] = out.pipeline.stall_ms;
    j["pipeline_speedup"] = out.pipeline.elapsed_ms > 0
                                ? out.pipeline.serial_ms / out.pipeline.elapsed_ms
                                : 1.0;
    // The controller's trajectory, only under an adaptive mount: how often
    // the window moved and the extremes it visited.
    if (out.pipeline.adaptive) {
      j["pipeline_depth_changes"] = out.pipeline.depth_changes;
      j["pipeline_depth_min"] = out.pipeline.depth_min_seen;
      j["pipeline_depth_max"] = out.pipeline.depth_max_seen;
    }
  }
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  mif::obs::BenchReport report("fig6a_stream_count", argc, argv);
  std::printf(
      "Fig 6(a) — shared-file micro-benchmark, phase-2 throughput vs stream "
      "count\n(paper: on-demand > reservation by ~17%%/27%%/48%% at "
      "32/48/64)\n\n");

  const std::vector<mif::u32> sweep =
      report.quick() ? std::vector<mif::u32>{8}
                     : std::vector<mif::u32>{32u, 48u, 64u};

  // One collector across the sweep: the ring keeps the most recent spans,
  // the slow log the slowest traces of the whole bench.
  mif::obs::SpanCollector spans;
  const std::string& trace_path = report.flags().trace;
  mif::obs::SpanCollector* sp = trace_path.empty() ? nullptr : &spans;

  Table t({"streams", "reservation MB/s", "on-demand MB/s", "static MB/s",
           "on-demand vs reservation"});
  for (mif::u32 procs : sweep) {
    const auto res =
        run(report, mif::alloc::AllocatorMode::kReservation, false, procs, sp);
    const auto ond =
        run(report, mif::alloc::AllocatorMode::kOnDemand, false, procs, sp);
    const auto sta =
        run(report, mif::alloc::AllocatorMode::kStatic, true, procs, sp);
    t.add_row({std::to_string(procs),
               Table::num(res.res.phase2_throughput_mbps),
               Table::num(ond.res.phase2_throughput_mbps),
               Table::num(sta.res.phase2_throughput_mbps),
               Table::pct(ond.res.phase2_throughput_mbps /
                              res.res.phase2_throughput_mbps -
                          1.0)});
    if (report.json_enabled()) {
      const struct {
        const char* mode;
        const RunOut* out;
      } rows[] = {{"reservation", &res}, {"ondemand", &ond}, {"static", &sta}};
      for (const auto& row : rows) {
        mif::obs::Json config;
        config["streams"] = procs;
        config["mode"] = row.mode;
        report.describe(config);
        report.add_run("streams=" + std::to_string(procs) +
                           " mode=" + row.mode,
                       std::move(config), results_json(*row.out),
                       row.out->metrics);
      }
    }
  }
  t.print();
  if (!report.write()) return 1;
  if (sp && !mif::obs::write_chrome_trace(spans, {}, trace_path)) return 1;
  return 0;
}
