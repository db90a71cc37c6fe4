// Antagonist microbench: one hot streaming client vs N small-file clients
// sharing the same stripe — the noisy-neighbour experiment the attribution
// ledger exists for.
//
// Sweeps the hot client's intensity (256 KiB streamed writes per round: 0,
// 1, 4).  Each round every victim client runs a small-file cycle
// (create → 64 KiB write → sequential read → close) interleaved with the hot
// stream, so both classes contend on the same disks, schedulers and MDS.
// Reported per intensity point:
//
//   * per-class p99 latency (simulated ms per hot round / victim cycle,
//     exact order statistic over the sweep);
//   * Jain's fairness index over per-client *attributed* simulated cost —
//     1 when every client gets an equal share, degrading toward 1/n as the
//     antagonist's share grows;
//   * the full attribution section (per-principal accounts + the global
//     conservation comparands) in the JSON report.
//
// Attribution is always on here — this bench IS the attribution demo; the
// figure benches keep it behind `--attribution`.
//
// `--qos <N>` (MB/s) appends an A/B sweep: the same antagonist with and
// without the per-client token-bucket transport scheduler (rpc/qos.hpp)
// mounted, reporting how admission shaping restores the victims' p99 and
// the attributed-fairness index.  Absent the flag the report stays
// byte-identical.  The intensity sweep mounts the harness's ClusterConfig
// overlay (the mount flags); the A/B sweep keeps its fixed mount.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/attrib.hpp"
#include "obs/critpath.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "util/table.hpp"
#include "core/pfs.hpp"

namespace {

using mif::u32;
using mif::u64;

/// The cluster's total simulated progress: every data disk's private clock
/// plus every metadata disk's.  A per-operation latency is the delta this
/// operation advanced the cluster by — queue wait, mechanical service and
/// MDS work all land in it.
double sim_total_ms(mif::core::ParallelFileSystem& fs) {
  double t = 0.0;
  for (std::size_t i = 0; i < fs.num_targets(); ++i)
    t += fs.target(i).sim_now_ms();
  for (std::size_t i = 0; i < fs.mds_shards(); ++i)
    t += fs.mds(i).fs().elapsed_ms();
  return t;
}

/// Exact p99: the ceil(0.99 n)-th smallest sample (0 for an empty set).
double p99_ms(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank =
      static_cast<std::size_t>((v.size() * 99 + 99) / 100);  // ceil(0.99 n)
  return v[std::min(rank, v.size()) - 1];
}

struct RunResult {
  double hot_p99_ms{0.0};
  double victim_p99_ms{0.0};
  double fairness{1.0};
};

RunResult run_point(mif::core::ParallelFileSystem& fs,
                    mif::obs::Attribution& attrib, u32 intensity,
                    std::size_t victims, std::size_t rounds) {
  constexpr u64 kHotBytes = 256 * 1024;
  constexpr u64 kVictimBytes = 64 * 1024;

  auto hot = fs.connect(mif::ClientId{1});
  std::vector<mif::client::ClientFs> small;
  small.reserve(victims);
  for (std::size_t v = 0; v < victims; ++v)
    small.push_back(fs.connect(mif::ClientId{static_cast<u32>(2 + v)}));

  mif::client::FileHandle hot_fh;
  if (intensity > 0) {
    auto h = hot.create("hot");
    if (!h) return {};
    hot_fh = *h;
  }

  std::vector<double> hot_ms;
  std::vector<double> victim_ms;
  u64 hot_off = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    // The hot stream is issued but NOT drained here: its blocks sit in the
    // shared schedulers while the victims run, so a victim's cycle waits
    // out whatever hot traffic the drain services first — the antagonism
    // this bench measures.  The round-final drain (whatever the victims
    // did not already absorb) is charged to the hot class.
    double hot_round = 0.0;
    if (intensity > 0) {
      const double before = sim_total_ms(fs);
      for (u32 burst = 0; burst < intensity; ++burst) {
        (void)hot.write(hot_fh, /*pid=*/0, hot_off, kHotBytes);
        hot_off += kHotBytes;
      }
      hot_round = sim_total_ms(fs) - before;
    }
    for (std::size_t v = 0; v < victims; ++v) {
      const std::string path =
          "v" + std::to_string(v) + "_f" + std::to_string(r);
      const double before = sim_total_ms(fs);
      auto fh = small[v].create(path);
      if (!fh) continue;
      (void)small[v].write(*fh, /*pid=*/0, 0, kVictimBytes);
      (void)small[v].read(*fh, 0, kVictimBytes);
      (void)small[v].close(*fh);
      victim_ms.push_back(sim_total_ms(fs) - before);
    }
    // Every intensity point shares the same round structure: one cluster
    // drain per round.  What the victims' own reads did not already force
    // out is the hot stream's backlog, so the drain is charged to the hot
    // class's round latency.
    const double before = sim_total_ms(fs);
    fs.drain_data();
    if (intensity > 0)
      hot_ms.push_back(hot_round + (sim_total_ms(fs) - before));
  }
  if (intensity > 0) (void)hot.close(hot_fh);
  fs.finish_mds();
  fs.drain_data();

  return {p99_ms(std::move(hot_ms)), p99_ms(std::move(victim_ms)),
          attrib.fairness()};
}

/// Round-boundary disk drain that does NOT flush the transport: a pump()
/// gives the token buckets their rate-shaped release for whatever the
/// round's simulated progress refilled, then each target services its
/// queue.  run_point's fs.drain_data() would instead rpc-flush first — a
/// full-barrier release of the whole QoS backlog every round, i.e. a free
/// bypass of the very scheduler the A/B section measures.
void drain_disks(mif::core::ParallelFileSystem& fs) {
  fs.rpc().pump();
  for (std::size_t i = 0; i < fs.num_targets(); ++i) fs.target(i).drain();
}

/// One `--qos` A/B point: the antagonist rounds of run_point with two
/// changes that make the scheduler's effect measurable.  First, every
/// victim cycle ends in its own drain_disks() — an fsync: in this simulator
/// all disk service happens at drain points, so a victim only FEELS the
/// antagonist when its own sync has to wait out the hot blocks queued
/// ahead of it.  Second, the cluster-level drain_data() (which rpc-flushes
/// first, a full-barrier release of the whole QoS backlog — a free bypass
/// of the very scheduler under test) is replaced by drain_disks()
/// everywhere.  Fairness is snapshotted over the measured window, BEFORE
/// the teardown barrier (hot close) releases the hot backlog: the deferred
/// hot bytes have not consumed any resource yet, so charging them to the
/// window would misstate what the victims actually shared the disks with.
/// Teardown then releases, services and charges everything, so the
/// embedded attribution section still conserves exactly.
RunResult run_qos_point(mif::core::ParallelFileSystem& fs,
                        mif::obs::Attribution& attrib, u32 intensity,
                        std::size_t victims, std::size_t rounds) {
  constexpr u64 kHotBytes = 256 * 1024;
  constexpr u64 kVictimBytes = 64 * 1024;

  auto hot = fs.connect(mif::ClientId{1});
  std::vector<mif::client::ClientFs> small;
  small.reserve(victims);
  for (std::size_t v = 0; v < victims; ++v)
    small.push_back(fs.connect(mif::ClientId{static_cast<u32>(2 + v)}));

  auto h = hot.create("hot");
  if (!h) return {};
  const mif::client::FileHandle hot_fh = *h;

  std::vector<double> hot_ms;
  std::vector<double> victim_ms;
  u64 hot_off = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    double before = sim_total_ms(fs);
    for (u32 burst = 0; burst < intensity; ++burst) {
      (void)hot.write(hot_fh, /*pid=*/0, hot_off, kHotBytes);
      hot_off += kHotBytes;
    }
    const double hot_round = sim_total_ms(fs) - before;
    for (std::size_t v = 0; v < victims; ++v) {
      const std::string path =
          "q" + std::to_string(v) + "_f" + std::to_string(r);
      before = sim_total_ms(fs);
      auto fh = small[v].create(path);
      if (!fh) continue;
      (void)small[v].write(*fh, /*pid=*/0, 0, kVictimBytes);
      (void)small[v].read(*fh, 0, kVictimBytes);
      (void)small[v].close(*fh);
      drain_disks(fs);  // the victim's fsync — where the antagonism lands
      victim_ms.push_back(sim_total_ms(fs) - before);
    }
    before = sim_total_ms(fs);
    drain_disks(fs);
    hot_ms.push_back(hot_round + (sim_total_ms(fs) - before));
  }
  const double fairness = attrib.fairness();
  (void)hot.close(hot_fh);  // ino-scoped barrier: releases the hot backlog
  fs.finish_mds();
  fs.drain_data();

  return {p99_ms(std::move(hot_ms)), p99_ms(std::move(victim_ms)), fairness};
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  mif::obs::BenchReport report("micro_antagonist", argc, argv);

  const std::size_t victims = report.quick() ? 4 : 8;
  const std::size_t rounds = report.quick() ? 24 : 96;

  std::printf(
      "Antagonist microbench — 1 hot streaming client vs %zu small-file "
      "clients,\n%zu rounds, shared 4-disk stripe (per-class p99 + Jain's "
      "fairness over\nattributed cost)\n\n",
      victims, rounds);

  Table t({"hot intensity", "hot p99 ms", "victim p99 ms", "fairness"});

  // The ledgers and the collector outlive the report: critpath walks the
  // collector at the end, and each run's attribution JSON is read after the
  // mount is torn down.
  mif::obs::SpanCollector spans;
  std::vector<std::unique_ptr<mif::obs::Attribution>> ledgers;

  for (u32 intensity : {0u, 4u, 16u}) {
    mif::core::ClusterConfig cfg;
    report.overlay(cfg);
    cfg.num_targets = 4;
    cfg.stripe = {4, 16};
    cfg.target.allocator = mif::alloc::AllocatorMode::kOnDemand;
    cfg.target.scheduler_queue = 64;
    mif::core::ParallelFileSystem fs(cfg);
    fs.set_spans(&spans);
    ledgers.push_back(std::make_unique<mif::obs::Attribution>());
    mif::obs::Attribution& attrib = *ledgers.back();
    fs.set_attribution(&attrib);

    const RunResult r = run_point(fs, attrib, intensity, victims, rounds);

    t.add_row({std::to_string(intensity), Table::num(r.hot_p99_ms),
               Table::num(r.victim_p99_ms), Table::num(r.fairness)});

    if (report.json_enabled()) {
      mif::obs::Json config;
      config["hot_intensity"] = intensity;
      config["victims"] = static_cast<u64>(victims);
      config["rounds"] = static_cast<u64>(rounds);
      report.describe(config);
      mif::obs::Json results;
      results["hot_p99_ms"] = r.hot_p99_ms;
      results["victim_p99_ms"] = r.victim_p99_ms;
      results["fairness"] = r.fairness;
      report.add_run("hot=" + std::to_string(intensity), std::move(config),
                     std::move(results), mif::obs::Json{}, mif::obs::Json{},
                     fs.attribution_json());
    }
  }

  t.print();

  // ---- `--qos N` (MB/s) A/B sweep -----------------------------------------
  // The same antagonist, twice per intensity: once on the plain chain and
  // once with the per-client token-bucket scheduler mounted at N MB/s of
  // admitted envelope bytes.  Open-loop rounds (see run_qos_point) so the
  // bucket actually shapes; absent the flag nothing runs and the report is
  // byte-identical.
  const u32 qos_mbps = report.flags().qos_mbps;
  if (qos_mbps > 0) {
    std::printf("\nqos A/B sweep — token bucket at %u MB/s per client, "
                "open-loop rounds\n\n",
                qos_mbps);
    Table qt({"hot intensity", "qos", "hot p99 ms", "victim p99 ms",
              "fairness"});
    for (u32 intensity : {4u, 16u}) {
      for (int on = 0; on < 2; ++on) {
        mif::core::ClusterConfig cfg;
        cfg.num_targets = 4;
        cfg.stripe = {4, 16};
        cfg.target.allocator = mif::alloc::AllocatorMode::kOnDemand;
        cfg.target.scheduler_queue = 64;
        if (on) {
          cfg.rpc.qos.enabled = true;
          cfg.rpc.qos.rate_bytes_per_ms =
              static_cast<double>(qos_mbps) * 1000.0;
        }
        mif::core::ParallelFileSystem fs(cfg);
        fs.set_spans(&spans);
        ledgers.push_back(std::make_unique<mif::obs::Attribution>());
        mif::obs::Attribution& attrib = *ledgers.back();
        fs.set_attribution(&attrib);

        const RunResult r =
            run_qos_point(fs, attrib, intensity, victims, rounds);

        qt.add_row({std::to_string(intensity), on ? "on" : "off",
                    Table::num(r.hot_p99_ms), Table::num(r.victim_p99_ms),
                    Table::num(r.fairness)});

        if (report.json_enabled()) {
          mif::obs::Json config;
          config["hot_intensity"] = intensity;
          config["victims"] = static_cast<u64>(victims);
          config["rounds"] = static_cast<u64>(rounds);
          if (on) config["qos_mbps"] = qos_mbps;
          mif::obs::Json results;
          results["hot_p99_ms"] = r.hot_p99_ms;
          results["victim_p99_ms"] = r.victim_p99_ms;
          results["fairness"] = r.fairness;
          report.add_run(std::string("qos=") + (on ? "on" : "off") +
                             " hot=" + std::to_string(intensity),
                         std::move(config), std::move(results),
                         mif::obs::Json{}, mif::obs::Json{},
                         fs.attribution_json());
        }
      }
    }
    qt.print();
  }

  if (report.json_enabled()) {
    report.doc()["critical_path"] = mif::obs::analyze_critical_path(spans);
  }
  if (!report.write()) return 1;
  return 0;
}
