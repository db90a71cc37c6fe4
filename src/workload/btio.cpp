#include "workload/btio.hpp"

#include <cassert>

#include "obs/timeline.hpp"
#include "util/rng.hpp"

namespace mif::workload {

BtioResult run_btio(core::ParallelFileSystem& fs, const BtioConfig& cfg) {
  BtioResult res;
  Rng rng(cfg.seed);
  auto client = fs.connect(ClientId{1});
  auto fh = client.create("/btio.out");
  assert(fh);

  const u64 slab_bytes = static_cast<u64>(cfg.cells_per_process) *
                         cfg.cell_bytes;
  const u64 frame_bytes = static_cast<u64>(cfg.processes) * slab_bytes;
  client::CollectiveWriter collective(client);

  // Process-major layout over the whole run: process p owns the contiguous
  // region [p·T·slab, (p+1)·T·slab) and appends one slab per timestep —
  // the checkpoint-style shared-file organisation of §II-A1.  frame_bytes
  // is the data volume of one timestep across all processes.
  auto offset_of = [&](u32 step, u32 p, u32 c) {
    return static_cast<u64>(p) * cfg.timesteps * slab_bytes +
           static_cast<u64>(step) * slab_bytes +
           static_cast<u64>(c) * cfg.cell_bytes;
  };

  // ---- solution write phase ----------------------------------------------
  // Single-threaded driver: timestep/cell boundaries are safe sample points.
  if (obs::Timeline* tl = fs.timeline()) tl->mark_epoch("btio.write");
  if (cfg.collective) {
    for (u32 step = 0; step < cfg.timesteps; ++step) {
      std::vector<client::IoRequest> round;
      round.reserve(static_cast<std::size_t>(cfg.processes) *
                    cfg.cells_per_process);
      for (u32 p = 0; p < cfg.processes; ++p)
        for (u32 c = 0; c < cfg.cells_per_process; ++c)
          round.push_back({p, offset_of(step, p, c), cfg.cell_bytes});
      const Status s = collective.write_round(*fh, std::move(round));
      assert(s.ok());
      (void)s;
      fs.tick_timeline();
    }
  } else {
    // Non-collective: every process appends its cells in order, processes
    // drifting apart as on a real cluster — the arrival stream interleaves
    // cells from many slabs, which is what fragments the reservation
    // baseline (Fig. 1(a)).
    const u64 cells_total =
        static_cast<u64>(cfg.timesteps) * cfg.cells_per_process;
    std::vector<u64> next(cfg.processes, 0);
    u64 remaining = cells_total * cfg.processes;
    while (remaining > 0) {
      for (u32 p = 0; p < cfg.processes; ++p) {
        if (next[p] >= cells_total) continue;
        if (cfg.pacing < 1.0 && !rng.chance(cfg.pacing)) continue;
        const u32 step = static_cast<u32>(next[p] / cfg.cells_per_process);
        const u32 c = static_cast<u32>(next[p] % cfg.cells_per_process);
        const Status s =
            client.write(*fh, p, offset_of(step, p, c), cfg.cell_bytes);
        assert(s.ok());
        (void)s;
        fs.tick_timeline();
        ++next[p];
        --remaining;
      }
    }
  }
  fs.drain_data();
  res.write_ms = fs.data_elapsed_ms();
  const Status closed = client.close(*fh);
  assert(closed.ok());
  (void)closed;
  res.extents = fs.file_extents(fh->ino);

  // ---- verification read-back ---------------------------------------------
  fs.reset_data_stats();
  const double t0 = fs.data_elapsed_ms();
  auto rfh = client.open("/btio.out");
  assert(rfh);
  if (obs::Timeline* tl = fs.timeline()) tl->mark_epoch("btio.read");
  const u64 total_bytes = static_cast<u64>(cfg.timesteps) * frame_bytes;
  constexpr u64 kReadChunk = 256 * 1024;
  for (u64 off = 0; off < total_bytes; off += kReadChunk) {
    const Status s =
        client.read(*rfh, off, std::min(kReadChunk, total_bytes - off));
    assert(s.ok());
    (void)s;
    fs.tick_timeline();
  }
  fs.drain_data();
  res.read_ms = fs.data_elapsed_ms() - t0;

  const double mb = static_cast<double>(total_bytes) / 1e6;
  res.write_mbps = mb / (res.write_ms * 1e-3);
  res.read_mbps = mb / (res.read_ms * 1e-3);
  res.mds_cpu = fs.mds().stats().cpu_ms / (res.write_ms + res.read_ms);
  // Unmount-style metadata sync after measurement (commit + checkpoint).
  fs.finish_mds();
  return res;
}

}  // namespace mif::workload
