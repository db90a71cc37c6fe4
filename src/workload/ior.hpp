// IOR2-like macro benchmark (§V-C2, Fig. 7).
//
// "Configured at shared mode; it writes a large amount of data to one file
// and then reads them back to verify; each of the m MPI processes is
// responsible to read or write 1/m of a file" — large-ish requests
// (32–64 KiB), each process sequential inside its own contiguous share,
// processes interleaving in arrival order.  Optionally through collective
// I/O (two-phase aggregation into ~40 MB requests).
#pragma once

#include "client/collective.hpp"
#include "core/pfs.hpp"

namespace mif::workload {

struct IorConfig {
  u32 processes{64};
  u64 request_bytes{32 * 1024};
  u64 bytes_per_process{u64{4} * 1024 * 1024};
  bool collective{false};
  /// Per-step probability that a process issues its next request.  Real
  /// clusters never run in lock-step: compute noise and network jitter let
  /// processes drift apart, which is exactly why arrival-order placement
  /// fragments shared files.  1.0 = unrealistic perfect synchrony.
  double pacing{0.75};
  u64 seed{4242};
};

struct IorResult {
  double write_ms{0.0};
  double read_ms{0.0};
  double write_mbps{0.0};
  double read_mbps{0.0};
  double total_mbps{0.0};
  u64 extents{0};
  double mds_cpu{0.0};
};

IorResult run_ior(core::ParallelFileSystem& fs, const IorConfig& cfg);

}  // namespace mif::workload
