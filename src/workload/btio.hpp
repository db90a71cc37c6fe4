// NPB BTIO-like macro benchmark (§V-C2, Fig. 7).
//
// BT solves the 3D Navier-Stokes equations on a block-tridiagonal grid; the
// I/O variant appends the solution array every few timesteps through MPI-IO.
// The on-disk pattern that matters for placement: each process owns a
// *nested-strided* set of small cells inside every timestep's frame, so
// non-collective writes are small and interleave heavily across processes —
// the worst case for per-inode reservation and the best case for per-stream
// on-demand preallocation (the paper's 19 % BTIO gain).  Collective mode
// fuses each frame into a handful of huge aggregator writes.
#pragma once

#include "client/collective.hpp"
#include "core/pfs.hpp"

namespace mif::workload {

struct BtioConfig {
  u32 processes{64};
  u32 timesteps{20};
  /// Cells each process appends per timestep.  Each frame holds one slab
  /// per process (cells of a process adjacent inside its slab).
  u32 cells_per_process{16};
  u64 cell_bytes{8 * 1024};
  bool collective{false};
  /// Per-step probability a process issues its next cell (arrival drift —
  /// see IorConfig::pacing).
  double pacing{0.75};
  u64 seed{777};
};

struct BtioResult {
  double write_ms{0.0};
  double read_ms{0.0};
  double write_mbps{0.0};
  double read_mbps{0.0};
  u64 extents{0};
  double mds_cpu{0.0};
};

BtioResult run_btio(core::ParallelFileSystem& fs, const BtioConfig& cfg);

}  // namespace mif::workload
