#include "workload/ior.hpp"

#include <cassert>

#include "obs/timeline.hpp"
#include "util/rng.hpp"

namespace mif::workload {

namespace {

/// Drive one IOR phase: every process walks its own contiguous share in
/// request-size steps; processes advance with probability `pacing` per
/// scheduler step, so their positions drift apart as on a real cluster.
template <typename IssueFn>
void drive_drifted(u32 processes, u64 rounds, double pacing, Rng& rng,
                   IssueFn&& issue) {
  std::vector<u64> next(processes, 0);
  u64 remaining = static_cast<u64>(processes) * rounds;
  while (remaining > 0) {
    for (u32 p = 0; p < processes; ++p) {
      if (next[p] >= rounds) continue;
      if (pacing < 1.0 && !rng.chance(pacing)) continue;
      issue(p, next[p]);
      ++next[p];
      --remaining;
    }
  }
}

}  // namespace

IorResult run_ior(core::ParallelFileSystem& fs, const IorConfig& cfg) {
  IorResult res;
  Rng rng(cfg.seed);
  auto client = fs.connect(ClientId{1});
  auto fh = client.create("/ior.dat");
  assert(fh);

  const u64 total_bytes =
      static_cast<u64>(cfg.processes) * cfg.bytes_per_process;
  const u64 rounds =
      (cfg.bytes_per_process + cfg.request_bytes - 1) / cfg.request_bytes;

  client::CollectiveWriter collective(client);

  auto offset_of = [&](u32 p, u64 r) {
    return static_cast<u64>(p) * cfg.bytes_per_process + r * cfg.request_bytes;
  };
  auto len_of = [&](u64 r) {
    return std::min(cfg.request_bytes,
                    cfg.bytes_per_process - r * cfg.request_bytes);
  };

  // ---- write phase --------------------------------------------------------
  // This driver is single-threaded, so request boundaries are safe points
  // for flight-recorder samples (tick_timeline is a no-op when detached).
  if (obs::Timeline* tl = fs.timeline()) tl->mark_epoch("ior.write");
  if (cfg.collective) {
    // Collective rounds ARE synchronised (MPI barrier inside MPI_File_write_all).
    for (u64 r = 0; r < rounds; ++r) {
      std::vector<client::IoRequest> round;
      round.reserve(cfg.processes);
      for (u32 p = 0; p < cfg.processes; ++p)
        round.push_back({p, offset_of(p, r), len_of(r)});
      const Status s = collective.write_round(*fh, std::move(round));
      assert(s.ok());
      (void)s;
      fs.tick_timeline();
    }
  } else {
    drive_drifted(cfg.processes, rounds, cfg.pacing, rng, [&](u32 p, u64 r) {
      const Status s = client.write(*fh, p, offset_of(p, r), len_of(r));
      assert(s.ok());
      (void)s;
      fs.tick_timeline();
    });
  }
  fs.drain_data();
  res.write_ms = fs.data_elapsed_ms();
  const Status closed = client.close(*fh);
  assert(closed.ok());
  (void)closed;
  res.extents = fs.file_extents(fh->ino);

  // ---- read-back (verification) phase -------------------------------------
  fs.reset_data_stats();
  const double t0 = fs.data_elapsed_ms();
  auto rfh = client.open("/ior.dat");
  assert(rfh);
  if (obs::Timeline* tl = fs.timeline()) tl->mark_epoch("ior.read");
  if (cfg.collective) {
    for (u64 r = 0; r < rounds; ++r) {
      std::vector<client::IoRequest> round;
      for (u32 p = 0; p < cfg.processes; ++p)
        round.push_back({p, offset_of(p, r), len_of(r)});
      const Status s = collective.read_round(*rfh, std::move(round));
      assert(s.ok());
      (void)s;
      fs.tick_timeline();
    }
  } else {
    drive_drifted(cfg.processes, rounds, cfg.pacing, rng, [&](u32 p, u64 r) {
      const Status s = client.read(*rfh, offset_of(p, r), len_of(r));
      assert(s.ok());
      (void)s;
      fs.tick_timeline();
    });
  }
  fs.drain_data();
  res.read_ms = fs.data_elapsed_ms() - t0;

  const double mb = static_cast<double>(total_bytes) / 1e6;
  res.write_mbps = mb / (res.write_ms * 1e-3);
  res.read_mbps = mb / (res.read_ms * 1e-3);
  res.total_mbps = 2.0 * mb / ((res.write_ms + res.read_ms) * 1e-3);
  // MDS CPU utilisation over the whole run (Table I).
  res.mds_cpu = fs.mds().stats().cpu_ms / (res.write_ms + res.read_ms);
  // Unmount-style metadata sync after measurement: forces the batched
  // journal out so even short runs commit + checkpoint.
  fs.finish_mds();
  return res;
}

}  // namespace mif::workload
