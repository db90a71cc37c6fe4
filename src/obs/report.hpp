// Bench-harness flags and JSON reporting.
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
// The constructor parses argv through one flag table (report.cpp) into a
// BenchFlags; an argument outside the table exits 2.  Benches read flags(),
// start their mounts from overlay() and record the mount flags in each run's
// config with describe(), so no bench wires a flag into ClusterConfig by
// hand.  `--quick` runs a reduced workload so the CI gate (scripts/gates.py)
// stays fast.
#pragma once

#include <string>
#include <string_view>

#include "obs/config.hpp"
#include "obs/json.hpp"

namespace mif::core {
struct ClusterConfig;
}

namespace mif::obs {

inline constexpr u64 kReportSchemaVersion = 1;

/// Every harness flag's value; a flag that was not given keeps its zero
/// value (false, empty, 0), which every bench treats as "default mount,
/// byte-identical report".  Value flags take `--flag <v>` or `--flag=<v>`.
struct BenchFlags {
  /// `--quick`: reduced workload for CI.
  bool quick{false};
  /// `--attribution`: attach a cost-attribution ledger (obs/attrib.hpp) and
  /// embed each run's per-principal accounts + critical-path report.
  bool attribution{false};
  /// `--json <path>`: where to write the report.
  std::string json;
  /// `--trace <path>`: where to write the Chrome-trace / Perfetto span dump
  /// (the bench attaches an obs::SpanCollector).
  std::string trace;
  // Counts: each accepts an integer in [1, 2^32-1]; --adaptive-depth in
  // [2, 2^32-1], because the adaptive window's floor is 2.
  /// `--pipeline-depth <N>`: async in-flight window (rpc.pipeline_depth;
  /// 1 is the synchronous chain).
  u32 pipeline_depth{0};
  /// `--adaptive-depth <N>`: adaptive async window ceiling
  /// (rpc.adaptive_depth_max).
  u32 adaptive_depth{0};
  /// `--mds-shards <N>`: metadata shards to mount (mds.shards; 1 is the
  /// classic single-MDS stack).
  u32 mds_shards{0};
  /// `--list-io <N>`: list I/O with at most N (offset,len) runs per
  /// envelope (list_io_max_runs); also enables the list-I/O sweeps.
  u32 list_io_runs{0};
  /// `--qos <N>`: per-client token bucket at N MB/s (micro_antagonist's
  /// A/B sweep).
  u32 qos_mbps{0};
  /// `--replicas <N>`: N-way stripe-unit replication for the benches'
  /// redundancy sections (redundancy.replicas).
  u32 replicas{0};
  /// `--timeseries[=<interval_ms>]`: attach a flight recorder
  /// (obs/timeline.hpp) configured by `timeline` and embed each run's
  /// sampled series.
  bool timeseries{false};
  Config timeline{};
  /// `--kill-osd <id>@<ms>`: a whole-target failure of target `kill_target`
  /// at simulated time `kill_at_ms` (rpc::FaultTransport::kill_osd).
  /// Requires --replicas >= 2.
  bool kill_osd{false};
  u32 kill_target{0};
  double kill_at_ms{0.0};
};

class BenchReport {
 public:
  /// Parses argv[1..argc) against the flag table.  Any misuse fails fast —
  /// the message goes to stderr and the process exits with status 2: an
  /// argument outside the table (a positional one included), a switch given
  /// a value (`--quick=1`), a value flag with no value (given last, empty,
  /// or followed by another `--flag`), a count outside its range, a bad
  /// `--timeseries` interval or `--kill-osd` spec, and `--kill-osd` without
  /// `--replicas >= 2`.
  BenchReport(std::string_view bench_name, int argc, char** argv);

  bool json_enabled() const { return !flags_.json.empty(); }
  bool quick() const { return flags_.quick; }
  const BenchFlags& flags() const { return flags_; }

  /// Applies the mount flags that were given to `cfg`: --pipeline-depth
  /// (rpc.pipeline_depth), --adaptive-depth (rpc.adaptive_depth_max),
  /// --mds-shards (mds.shards) and --list-io (list_io_max_runs).  Leaves
  /// every other field, and the whole config when none was given, alone.
  void overlay(core::ClusterConfig& cfg) const;

  /// Records the overlay in a run's `config`: pipeline_depth and mds_shards
  /// when >= 2 (1 mounts the default stack, so the report stays
  /// byte-identical), adaptive_depth and list_io_runs when given.
  void describe(Json& config) const;

  /// Fails fast (status 2) unless --replicas and --kill-osd fit a mount of
  /// `num_targets` targets.  A no-op without --replicas.
  void check_redundancy(u32 num_targets) const;

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
  std::string bench_;
  BenchFlags flags_;
  Json doc_;
};

}  // namespace mif::obs
