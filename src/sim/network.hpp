// Client <-> server network cost model (GbE through the paper's Catalyst 3750
// switches).  Metadata results in the paper are disk-bound, but RPC counts
// still matter for the aggregation argument (§II-A2): readdirplus and
// open-getlayout exist to cut request counts, so we charge a per-RPC latency
// plus a bandwidth term and count RPCs.
#pragma once

#include "util/types.hpp"

namespace mif::sim {

struct NetworkStats {
  u64 rpcs{0};
  u64 bytes{0};
  double time_ms{0.0};
};

class Network {
 public:
  /// GbE switch round trip.
  static constexpr double kRttMs = 0.12;
  /// Achievable GbE payload rate.
  static constexpr double kBandwidthMbps = 117.0;

  /// Cost of one request/response exchange carrying `payload_bytes`,
  /// without charging it (no stats).  The async transport prices envelopes
  /// with this to build its pipelined timeline.
  static double cost(u64 payload_bytes);

  /// Cost of one request/response exchange carrying `payload_bytes`,
  /// charged to the stats.
  double rpc(u64 payload_bytes);

  const NetworkStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  NetworkStats stats_;
};

}  // namespace mif::sim
