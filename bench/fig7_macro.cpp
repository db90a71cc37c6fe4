// Regenerates Fig. 7: IOR2 and NPB BTIO macro benchmarks under reservation
// vs on-demand preallocation, with and without collective I/O.  The paper:
// on-demand > reservation (BTIO non-collective +19 %); IOR gains less
// (bigger, contiguous-per-process requests); collective I/O beats
// non-collective outright (~40 MB aggregated requests) and shrinks the
// allocator's influence.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/attrib.hpp"
#include "obs/critpath.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "redundancy/repair.hpp"
#include "rpc/fault.hpp"
#include "shard/transport.hpp"
#include "util/table.hpp"
#include "workload/btio.hpp"
#include "workload/ior.hpp"

namespace {

constexpr mif::u32 kTargets = 8;  // "all data are striped in eight disks"

/// Every fig7 mount: the harness's ClusterConfig overlay on eight targets.
/// Each sweep then sets only the knob it varies.
mif::core::ClusterConfig fig7_config(const mif::obs::BenchReport& report,
                                     mif::alloc::AllocatorMode mode) {
  mif::core::ClusterConfig cfg;
  report.overlay(cfg);
  cfg.num_targets = kTargets;
  cfg.target.allocator = mode;
  return cfg;
}

mif::core::ParallelFileSystem make_fs(const mif::core::ClusterConfig& cfg,
                                      mif::obs::SpanCollector* spans) {
  mif::core::ParallelFileSystem fs(cfg);
  fs.set_spans(spans);
  return fs;
}

/// With `--mds-shards N` (N >= 2): a dedicated namespace workload per
/// placement policy.  IOR/BTIO hammer a single shared file at the root, so
/// they say nothing about metadata spread; this run builds 2N directories of
/// small files and list-sweeps them, then reports the router's balance and
/// fan-out counters.  Absent the flag nothing runs and the report is
/// byte-identical to the single-MDS output.
void run_shard_namespace(mif::obs::BenchReport& report,
                         mif::obs::SpanCollector* spans) {
  const mif::u32 shards = report.flags().mds_shards;
  if (shards < 2) return;
  std::printf("\nmds-shards=%u namespace sweep (%u dirs x 24 files each)\n",
              shards, 2 * shards);
  for (auto policy : {mif::shard::Policy::kSubtree, mif::shard::Policy::kHash}) {
    mif::core::ClusterConfig cfg =
        fig7_config(report, mif::alloc::AllocatorMode::kOnDemand);
    cfg.mds.placement = policy;
    auto fs = make_fs(cfg, spans);
    auto* sharded = fs.transport().sharded();
    for (mif::u32 d = 0; d < 2 * shards; ++d) {
      const std::string dir = "ns" + std::to_string(d);
      (void)fs.rpc().mkdir(dir);
      for (int f = 0; f < 24; ++f) {
        (void)fs.rpc().create(dir + "/f" + std::to_string(f));
      }
    }
    const mif::u64 fanout_before = sharded->stats().fanout_requests;
    for (mif::u32 d = 0; d < 2 * shards; ++d) {
      (void)fs.rpc().readdir_stats("ns" + std::to_string(d));
    }
    const mif::shard::ShardStats s = sharded->stats();
    const std::string policy_name{mif::shard::to_string(policy)};
    std::printf("  %-8s imbalance=%.3f readdir_fanout=%llu\n",
                policy_name.c_str(), s.imbalance(),
                static_cast<unsigned long long>(s.fanout_requests -
                                                fanout_before));
    if (!report.json_enabled()) continue;
    mif::obs::Json config;
    config["benchmark"] = "shard-namespace";
    config["placement"] = policy_name;
    report.describe(config);
    mif::obs::Json results;
    results["shard_imbalance"] = s.imbalance();
    results["shard_fanout"] = s.fanout_requests - fanout_before;
    results["renames_cross"] = s.renames_cross;
    report.add_run("shard-namespace " + policy_name, std::move(config),
                   std::move(results));
  }
}

/// With `--list-io N`: a BTIO-style strided column sweep, once over the
/// per-block mount and once with list I/O mounted (max N runs per
/// envelope).  16 processes each write 128 single-block pieces at a
/// 16-block stride, so every process touches all eight targets and its
/// per-target slice lowers to a single strided envelope when list I/O is
/// on.  Reports data-RPC envelope counts and data-network sim time for
/// both mounts; with `--attribution`, embeds the list mount's ledger so
/// the conservation gate covers multi-run frames.  Absent the flag
/// nothing runs and the report is byte-identical.
void run_list_io_strided(mif::obs::BenchReport& report,
                         mif::obs::SpanCollector* spans,
                         mif::obs::Attribution* attrib) {
  const mif::u32 max_runs = report.flags().list_io_runs;
  if (max_runs == 0) return;
  constexpr mif::u32 kProcs = 16;
  constexpr mif::u64 kSegments = 128;
  constexpr mif::u64 kPiece = mif::kBlockSize;
  mif::u64 data_rpcs[2] = {0, 0};
  double net_ms[2] = {0.0, 0.0};
  mif::obs::Json attribution;
  for (int list = 0; list < 2; ++list) {
    mif::core::ClusterConfig cfg =
        fig7_config(report, mif::alloc::AllocatorMode::kOnDemand);
    if (!list) cfg.list_io_max_runs = 0;  // the per-block arm
    auto fs = make_fs(cfg, spans);
    if (list) fs.set_attribution(attrib);
    auto client = fs.connect(mif::ClientId{1});
    auto fh = client.create("strided.odb");
    if (!fh) return;
    for (mif::u32 p = 0; p < kProcs; ++p) {
      (void)client.write_strided(*fh, p, p * kPiece, kPiece, kProcs * kPiece,
                                 kSegments);
    }
    (void)client.close(*fh);
    fs.drain_data();
    const mif::sim::NetworkStats& dn = fs.transport().data_network().stats();
    data_rpcs[list] = dn.rpcs;
    net_ms[list] = dn.time_ms;
    if (list && attrib) attribution = fs.attribution_json();
  }
  const double ratio =
      data_rpcs[1] ? static_cast<double>(data_rpcs[0]) / data_rpcs[1] : 0.0;
  std::printf(
      "\nlist-io=%u strided sweep (%u procs x %llu single-block pieces)\n"
      "  per-block: %llu data rpcs  %.2f net ms\n"
      "  list-io:   %llu data rpcs  %.2f net ms  (%.1fx fewer envelopes)\n",
      max_runs, kProcs,
      static_cast<unsigned long long>(kSegments),
      static_cast<unsigned long long>(data_rpcs[0]), net_ms[0],
      static_cast<unsigned long long>(data_rpcs[1]), net_ms[1], ratio);
  if (!report.json_enabled()) return;
  mif::obs::Json config;
  config["benchmark"] = "strided-list-io";
  config["processes"] = kProcs;
  config["segments"] = kSegments;
  report.describe(config);
  mif::obs::Json results;
  results["perblock_data_rpcs"] = data_rpcs[0];
  results["list_data_rpcs"] = data_rpcs[1];
  results["perblock_net_ms"] = net_ms[0];
  results["list_net_ms"] = net_ms[1];
  results["envelope_ratio"] = ratio;
  report.add_run("strided list-io", std::move(config), std::move(results),
                 mif::obs::Json{}, mif::obs::Json{}, std::move(attribution));
}

/// One measured point of the redundancy sweep: a replicated 8-target mount
/// running an interleaved multi-file macro workload (write phase with
/// tick_timeline safe points, a mid-run degraded read sweep, drain — which
/// completes any queued rebuild — then a full verification read phase).
struct RedundancyRun {
  mif::u64 read_errors{0};
  mif::u64 degraded_reads{0};
  mif::u64 replica_writes{0};
  mif::u64 extents{0};  // post-repair primary-subfile extent total
  double read_ms{0.0};  // sim time of the final read phase
  mif::u64 repair_bytes{0};
  mif::u64 repair_completed{0};
  double repair_completed_ms{-1.0};
  mif::u64 dead_targets{0};
};

RedundancyRun run_redundancy_point(const mif::obs::BenchReport& report,
                                   mif::obs::SpanCollector* spans,
                                   bool kill) {
  const mif::obs::BenchFlags& flags = report.flags();
  mif::core::ClusterConfig cfg =
      fig7_config(report, mif::alloc::AllocatorMode::kOnDemand);
  cfg.redundancy.replicas = flags.replicas;
  cfg.rpc.inject_faults = kill;  // mounts the (disarmed) fault layer
  auto fs = make_fs(cfg, spans);
  if (kill) {
    fs.transport().fault()->kill_osd(flags.kill_target, flags.kill_at_ms);
  }
  auto client = fs.connect(mif::ClientId{1});

  const mif::u32 files = report.quick() ? 12 : 48;
  const mif::u64 file_blocks = report.quick() ? 192 : 512;
  const mif::u64 chunk_blocks = 16;
  std::vector<mif::client::FileHandle> fhs;
  for (mif::u32 f = 0; f < files; ++f) {
    auto fh = client.create("red" + std::to_string(f) + ".dat");
    if (!fh) return {};
    fhs.push_back(*fh);
  }
  // Interleaved write rounds (each file advances one chunk per round — the
  // fragmentation-inducing shape of the macro benches); every round is a
  // safe point, so a scheduled kill fires mid-run and the online repair
  // pumps while writes keep flowing.
  RedundancyRun out;
  for (mif::u64 round = 0; round * chunk_blocks < file_blocks; ++round) {
    for (mif::u32 f = 0; f < files; ++f) {
      if (!client.write(fhs[f], f, round * chunk_blocks * mif::kBlockSize,
                        chunk_blocks * mif::kBlockSize)) {
        ++out.read_errors;  // write errors are client-visible too
      }
    }
    fs.tick_timeline();
  }
  for (mif::u32 f = 0; f < files; ++f) (void)client.close(fhs[f]);

  // Degraded sweep: while the killed target is still dead (repair has only
  // been pumped, not drained), reads must re-route and succeed.
  for (mif::u32 f = 0; f < std::min<mif::u32>(files, 4); ++f) {
    if (!client.read(fhs[f], 0, file_blocks * mif::kBlockSize)) {
      ++out.read_errors;
    }
  }

  fs.drain_data();  // completes any queued rebuild on the sim timeline
  const double read_t0 = fs.data_elapsed_ms();
  for (mif::u32 f = 0; f < files; ++f) {
    if (!client.read(fhs[f], 0, file_blocks * mif::kBlockSize)) {
      ++out.read_errors;
    }
  }
  fs.drain_data();
  out.read_ms = fs.data_elapsed_ms() - read_t0;
  for (const auto& fh : fhs) out.extents += fs.file_extents(fh.ino);
  out.degraded_reads = fs.redundancy_stats().degraded_reads.load();
  out.replica_writes = fs.redundancy_stats().replica_writes.load();
  out.dead_targets = fs.health().dead_count();
  if (const mif::redundancy::RepairService* rep = fs.repair()) {
    out.repair_bytes = rep->stats().bytes_rebuilt;
    out.repair_completed = rep->stats().completed;
    out.repair_completed_ms = rep->stats().completed_at_ms;
  }
  return out;
}

/// With `--replicas N` (N >= 2): the striped-redundancy sweep — a baseline
/// replicated run, and, with `--kill-osd id@ms`, a second run that loses a
/// whole target mid-write and must finish with zero client-visible read
/// errors and a completed online rebuild.  Absent the flag nothing runs and
/// the report is byte-identical to the unreplicated output.
void run_redundancy_sweep(mif::obs::BenchReport& report,
                          mif::obs::SpanCollector* spans) {
  const mif::obs::BenchFlags& flags = report.flags();
  if (flags.replicas < 2) return;
  report.check_redundancy(kTargets);
  std::printf("\nreplicas=%u redundancy sweep (8 targets%s)\n", flags.replicas,
              flags.kill_osd ? ", kill-osd armed" : "");
  for (int kill = 0; kill <= (flags.kill_osd ? 1 : 0); ++kill) {
    const RedundancyRun r = run_redundancy_point(report, spans, kill != 0);
    std::printf(
        "  %-10s read_errors=%llu degraded_reads=%llu extents=%llu "
        "read_ms=%.2f repair_bytes=%llu\n",
        kill ? "killed" : "replicated",
        static_cast<unsigned long long>(r.read_errors),
        static_cast<unsigned long long>(r.degraded_reads),
        static_cast<unsigned long long>(r.extents), r.read_ms,
        static_cast<unsigned long long>(r.repair_bytes));
    if (!report.json_enabled()) continue;
    mif::obs::Json config;
    config["benchmark"] = "redundancy";
    config["replicas"] = flags.replicas;
    config["killed"] = kill != 0;
    if (kill) {
      config["kill_target"] = flags.kill_target;
      config["kill_at_ms"] = flags.kill_at_ms;
    }
    report.describe(config);
    mif::obs::Json results;
    results["read_errors"] = r.read_errors;
    results["degraded_reads"] = r.degraded_reads;
    results["replica_writes"] = r.replica_writes;
    results["extents"] = r.extents;
    results["read_ms"] = r.read_ms;
    results["repair_bytes_rebuilt"] = r.repair_bytes;
    results["repair_completed"] = r.repair_completed;
    results["repair_completed_ms"] = r.repair_completed_ms;
    results["dead_targets"] = r.dead_targets;
    report.add_run(std::string("redundancy ") +
                       (kill ? "killed" : "replicated"),
                   std::move(config), std::move(results));
  }
}

/// Pipelined transport timings for one mounted fs; empty JSON (no keys) when
/// the sync chain is mounted, so default output is untouched.
void add_pipeline_fields(mif::obs::Json& results, const char* prefix,
                         mif::core::ParallelFileSystem& fs) {
  const mif::rpc::AsyncTransport* a = fs.transport().async();
  if (!a) return;
  const mif::rpc::AsyncReport r = a->report();
  const std::string base(prefix);
  results[base + "_pipeline_serial_ms"] = r.serial_ms;
  results[base + "_pipeline_elapsed_ms"] = r.elapsed_ms;
  results[base + "_pipeline_speedup"] =
      r.elapsed_ms > 0 ? r.serial_ms / r.elapsed_ms : 1.0;
  if (r.adaptive) {
    results[base + "_pipeline_depth_changes"] = r.depth_changes;
    results[base + "_pipeline_depth_min"] = r.depth_min_seen;
    results[base + "_pipeline_depth_max"] = r.depth_max_seen;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  using mif::alloc::AllocatorMode;
  mif::obs::BenchReport report("fig7_macro", argc, argv);
  const mif::obs::BenchFlags& flags = report.flags();

  // One collector across every run: `--trace <path>` dumps the slowest
  // traces and the most recent spans of the whole macro sweep.
  // `--attribution` needs it too — the charging sites emit their sim cost
  // spans (net.exchange, io.queue_wait, …) only when BOTH a collector and a
  // ledger are attached, and the critical-path report walks them.  The
  // fig7 JSON embeds no metrics sections, so mounting the collector for
  // attribution alone leaves the default report byte-identical.
  mif::obs::SpanCollector spans;
  mif::obs::SpanCollector* sp =
      !flags.trace.empty() || flags.attribution ? &spans : nullptr;

  // One cost-attribution ledger per measured on-demand mount
  // (`--attribution`); heap-pinned like the timelines because timeline
  // gauge closures capture the raw ledger pointer.
  std::vector<std::unique_ptr<mif::obs::Attribution>> ledgers;
  auto new_ledger = [&]() -> mif::obs::Attribution* {
    if (!flags.attribution) return nullptr;
    ledgers.push_back(std::make_unique<mif::obs::Attribution>());
    return ledgers.back().get();
  };

  // One flight recorder per measured on-demand mount (`--timeseries`); the
  // series land in the JSON report and, with `--trace`, as Perfetto counter
  // tracks alongside the spans.
  std::vector<std::unique_ptr<mif::obs::Timeline>> timelines;
  auto new_timeline = [&](const std::string& label) -> mif::obs::Timeline* {
    if (!flags.timeseries) return nullptr;
    timelines.push_back(std::make_unique<mif::obs::Timeline>(flags.timeline));
    timelines.back()->set_label(label);
    return timelines.back().get();
  };

  std::printf(
      "Fig 7 — macro benchmarks on a 16-node/64-process cluster, 8-disk "
      "stripe\n(paper: on-demand > reservation, BTIO non-collective +19%%; "
      "collective >> non-collective)\n\n");

  Table t({"benchmark", "mode", "reservation MB/s", "on-demand MB/s",
           "improvement"});

  auto add_json = [&](const char* bench, bool collective, double res_mbps,
                      double ond_mbps, mif::core::ParallelFileSystem& rfs,
                      mif::core::ParallelFileSystem& ofs,
                      mif::obs::Timeline* tl) {
    if (!report.json_enabled()) return;
    mif::obs::Json config;
    config["benchmark"] = bench;
    config["collective"] = collective;
    report.describe(config);
    mif::obs::Json results;
    results["reservation_mbps"] = res_mbps;
    results["ondemand_mbps"] = ond_mbps;
    add_pipeline_fields(results, "reservation", rfs);
    add_pipeline_fields(results, "ondemand", ofs);
    report.add_run(std::string(bench) +
                       (collective ? " collective" : " non-collective"),
                   std::move(config), std::move(results), mif::obs::Json{},
                   tl ? tl->to_json() : mif::obs::Json{},
                   ofs.attribution_json());
  };

  // ---- IOR: each process owns a contiguous 1/m share, 32 KiB requests ----
  for (bool collective : {false, true}) {
    mif::workload::IorConfig cfg;
    cfg.processes = report.quick() ? 16 : 64;
    cfg.request_bytes = 64 * 1024;
    cfg.bytes_per_process = report.quick() ? 2 * 1024 * 1024 : 16 * 1024 * 1024;
    cfg.collective = collective;
    auto rfs = make_fs(fig7_config(report, AllocatorMode::kReservation), sp);
    auto ofs = make_fs(fig7_config(report, AllocatorMode::kOnDemand), sp);
    mif::obs::Timeline* tl = new_timeline(
        std::string("IOR2 ") + (collective ? "collective" : "non-collective"));
    ofs.set_timeline(tl);
    ofs.set_attribution(new_ledger());
    const auto r = mif::workload::run_ior(rfs, cfg);
    const auto o = mif::workload::run_ior(ofs, cfg);
    if (tl) tl->mark_epoch("end");
    t.add_row({"IOR2", collective ? "collective" : "non-collective",
               Table::num(r.total_mbps), Table::num(o.total_mbps),
               Table::pct(o.total_mbps / r.total_mbps - 1.0)});
    add_json("IOR2", collective, r.total_mbps, o.total_mbps, rfs, ofs, tl);
  }

  // ---- BTIO: nested-strided small cells per timestep ---------------------
  for (bool collective : {false, true}) {
    mif::workload::BtioConfig cfg;
    cfg.processes = report.quick() ? 16 : 64;
    cfg.timesteps = report.quick() ? 4 : 10;
    cfg.cells_per_process = 16;
    cfg.cell_bytes = 8 * 1024;
    cfg.collective = collective;
    auto rfs = make_fs(fig7_config(report, AllocatorMode::kReservation), sp);
    auto ofs = make_fs(fig7_config(report, AllocatorMode::kOnDemand), sp);
    mif::obs::Timeline* tl = new_timeline(
        std::string("BTIO ") + (collective ? "collective" : "non-collective"));
    ofs.set_timeline(tl);
    ofs.set_attribution(new_ledger());
    const auto r = mif::workload::run_btio(rfs, cfg);
    const auto o = mif::workload::run_btio(ofs, cfg);
    if (tl) tl->mark_epoch("end");
    const double rt = 2.0 / (1.0 / r.write_mbps + 1.0 / r.read_mbps);
    const double ot = 2.0 / (1.0 / o.write_mbps + 1.0 / o.read_mbps);
    t.add_row({"BTIO", collective ? "collective" : "non-collective",
               Table::num(rt), Table::num(ot), Table::pct(ot / rt - 1.0)});
    add_json("BTIO", collective, rt, ot, rfs, ofs, tl);
  }

  t.print();
  run_shard_namespace(report, sp);
  run_list_io_strided(report, sp, new_ledger());
  run_redundancy_sweep(report, sp);
  // Whole-sweep critical path: top slowest traced requests across every
  // mount, decomposed into the ledger's resource segments.
  if (flags.attribution && report.json_enabled()) {
    report.doc()["critical_path"] = mif::obs::analyze_critical_path(spans);
  }
  if (!report.write()) return 1;
  if (!flags.trace.empty()) {
    std::vector<const mif::obs::Timeline*> tls;
    for (const auto& tl : timelines) tls.push_back(tl.get());
    if (!mif::obs::write_chrome_trace(spans, tls, flags.trace)) return 1;
  }
  return 0;
}
