// Bench-harness JSON reporting.
//
// Every bench binary keeps printing its human table exactly as before; with
// `--json <path>` it additionally writes a machine-readable trajectory:
//
//   {
//     "schema_version": 1,
//     "bench": "fig6a_stream_count",
//     "runs": [
//       {"name": "streams=32 mode=ondemand",
//        "config": {...},        // the knobs of this run
//        "results": {...},       // the numbers the table prints
//        "metrics": {...}},      // optional full MetricsRegistry::to_json()
//       ...
//     ]
//   }
//
// `--quick` is also parsed here: CI (scripts/check_bench_json.sh) uses it to
// run a reduced workload so the schema check stays fast.
#pragma once

#include <string>
#include <string_view>

#include "obs/config.hpp"
#include "obs/json.hpp"

namespace mif::obs {

inline constexpr u64 kReportSchemaVersion = 1;

class BenchReport {
 public:
  /// Parses `--json <path>`, `--trace <path>`, `--quick`,
  /// `--timeseries[=<interval_ms>]`, `--attribution`,
  /// `--pipeline-depth <N>`, `--mds-shards <N>`,
  /// `--collective-aggregators <N>`, `--list-io <N>`, `--qos <N>`,
  /// `--adaptive-depth <N>`, `--replicas <N>` and `--kill-osd <id>@<ms>`
  /// out of argv.
  /// Unknown arguments are ignored (google-benchmark style flags pass
  /// through).  A value flag with no value (given last, `--flag=` empty, or
  /// followed by another `--flag`), an invalid `--timeseries` interval, and
  /// a zero/negative/non-numeric count flag fail fast: the message goes to
  /// stderr and the process exits with status 2.
  BenchReport(std::string_view bench_name, int argc, char** argv);

  bool json_enabled() const { return !path_.empty(); }
  bool quick() const { return quick_; }

  /// `--pipeline-depth <N>` / `--pipeline-depth=<N>`: in-flight window for
  /// the async transport.  0 when absent; benches treat 0/1 as the default
  /// synchronous chain (output stays byte-identical).  A zero, negative or
  /// non-numeric value fails fast with status 2 (like --timeseries).
  u32 pipeline_depth() const { return pipeline_depth_; }

  /// `--mds-shards <N>` / `--mds-shards=<N>`: metadata shards to mount.
  /// 0 when absent; benches treat 0/1 as the classic single-MDS stack
  /// (output stays byte-identical).  Same fail-fast validation as
  /// --pipeline-depth.
  u32 mds_shards() const { return mds_shards_; }

  /// `--collective-aggregators <N>` / `--collective-aggregators=<N>`:
  /// aggregator count for benches that run collective rounds (ROMIO
  /// cb_nodes).  0 when absent; benches substitute their built-in default,
  /// so passing the default value explicitly stays byte-identical.  Same
  /// fail-fast validation as --pipeline-depth.
  u32 collective_aggregators() const { return collective_aggregators_; }

  /// `--list-io <N>` / `--list-io=<N>`: mount list I/O with at most N
  /// (offset,len) runs per kWriteList/kReadList envelope
  /// (ClusterConfig::list_io_max_runs) and enable the benches' list-I/O
  /// comparison sections.  0 when absent — the per-block data path runs and
  /// output stays byte-identical.  Same fail-fast validation as
  /// --pipeline-depth.
  u64 list_io_runs() const { return list_io_runs_; }

  /// `--qos <N>` / `--qos=<N>`: per-client token-bucket QoS at N MB/s of
  /// admitted envelope bytes (rpc::QosConfig::rate_bytes_per_ms = N * 1000).
  /// 0 when absent; benches leave the QoS layer unmounted (output stays
  /// byte-identical).  Same fail-fast validation as --pipeline-depth.
  u32 qos_mbps() const { return qos_mbps_; }

  /// `--adaptive-depth <N>` / `--adaptive-depth=<N>`: adaptive async window
  /// ceiling (rpc::TransportOptions::adaptive_depth_max).  0 when absent —
  /// the static --pipeline-depth (or sync) chain runs and output stays
  /// byte-identical.  Values must be >= 2 to arm the controller; a bare 1
  /// is rejected (the window floor is 2).  Same fail-fast validation as
  /// --pipeline-depth.
  u32 adaptive_depth() const { return adaptive_depth_; }

  /// `--replicas <N>` / `--replicas=<N>`: mount N-way stripe-unit
  /// replication (ClusterConfig::redundancy.replicas) and enable the
  /// benches' redundancy sections.  0 when absent; benches treat 0/1 as the
  /// unreplicated mount (output stays byte-identical).  Same fail-fast
  /// validation as --pipeline-depth.
  u32 replicas() const { return replicas_; }

  /// `--kill-osd <id>@<ms>` / `--kill-osd=<id>@<ms>`: schedule a
  /// deterministic whole-target failure at simulated time `ms`
  /// (rpc::FaultTransport::kill_osd).  Requires --replicas >= 2 — killing
  /// an unreplicated mount's target can only lose data, so the combination
  /// fails fast with status 2, as does a malformed spec.
  bool kill_armed() const { return kill_armed_; }
  u32 kill_target() const { return kill_target_; }
  double kill_at_ms() const { return kill_at_ms_; }

  /// `--attribution`: attach a cost-attribution ledger (obs/attrib.hpp) and
  /// embed each run's per-principal accounts + critical-path report.  Off
  /// by default — reports stay byte-identical without the flag.
  bool attribution_enabled() const { return attribution_; }

  /// `--trace <path>` / `--trace=<path>`: where to write the Chrome-trace /
  /// Perfetto span dump; empty when tracing was not requested.  The bench
  /// attaches an obs::SpanCollector and calls obs::write_chrome_trace.
  bool trace_enabled() const { return !trace_path_.empty(); }
  const std::string& trace_path() const { return trace_path_; }

  /// `--timeseries` / `--timeseries=<interval_ms>`: attach a flight
  /// recorder (obs/timeline.hpp) and embed each run's sampled series as a
  /// "timeseries" object in the JSON report.  Off by default — reports stay
  /// byte-identical without the flag.
  bool timeseries_enabled() const { return timeseries_; }

  /// The validated obs::Config for timelines this invocation should mount
  /// (sample_interval_ms carries the `--timeseries=<X>` override).
  const Config& timeline_config() const { return timeline_cfg_; }

  /// Append one run row.  `name` identifies the configuration point.
  /// `timeseries` (a Timeline::to_json() document) and `attribution`
  /// (a ParallelFileSystem::attribution_json() document) are embedded only
  /// when non-null, so runs without a recorder/ledger serialise exactly as
  /// before.
  void add_run(std::string_view name, Json config, Json results,
               Json metrics = Json{}, Json timeseries = Json{},
               Json attribution = Json{});

  /// Root document (already carrying schema_version/bench/runs); open for
  /// benches that want extra top-level fields.
  Json& doc() { return doc_; }

  /// Write the report if `--json` was given.  Returns false (and prints to
  /// stderr) when the file cannot be written; benches then exit non-zero.
  /// Safe to call when disabled.
  [[nodiscard]] bool write() const;

 private:
  std::string path_;
  std::string trace_path_;
  bool quick_{false};
  bool timeseries_{false};
  bool attribution_{false};
  Config timeline_cfg_{};
  u32 pipeline_depth_{0};
  u32 mds_shards_{0};
  u32 collective_aggregators_{0};
  u64 list_io_runs_{0};
  u32 qos_mbps_{0};
  u32 adaptive_depth_{0};
  u32 replicas_{0};
  bool kill_armed_{false};
  u32 kill_target_{0};
  double kill_at_ms_{0.0};
  Json doc_;
};

}  // namespace mif::obs
