// Two-phase collective I/O (ROMIO-style), used by the Fig. 7 macro
// benchmarks.
//
// The paper profiles BTIO/IOR "using either non-collective I/O or collective
// I/O" and observes that collective runs issue ~40 MB requests, which makes
// placement near-irrelevant ("this may make the effectiveness of on-demand
// preallocation be disappointed in this case").  This aggregator reproduces
// the mechanism: per collective round, the processes' requests are exchanged,
// merged into contiguous file ranges, chopped into cb_buffer-sized chunks and
// written by a few aggregator threads as single large streams.
//
// With list I/O mounted (ClusterConfig::list_io_max_runs > 0) the rounds run
// as proper two-phase I/O: the exchange phase partitions the merged request
// union into per-aggregator file domains (equal-byte contiguous shares, the
// ROMIO fd_start/fd_end split), and each aggregator lowers its domain into
// one list-I/O envelope per OSD per kCbBytes chunk through the async path.
// Without it, the legacy chop-and-stream path runs untouched, keeping the
// paper figures byte-identical.
#pragma once

#include <vector>

#include "client/client_fs.hpp"
#include "util/runs.hpp"

namespace mif::client {

struct IoRequest {
  u32 pid{0};  // issuing thread on this client
  u64 offset{0};
  u64 len{0};
};

struct CollectiveStats {
  u64 rounds{0};
  u64 requests_in{0};
  u64 requests_out{0};  // aggregated writes actually issued
  u64 bytes{0};
};

class CollectiveWriter {
 public:
  /// Collective-buffer size per aggregator request (the paper observed
  /// ~40 MB requests in its collective runs).
  static constexpr u64 kCbBytes = u64{40} * 1024 * 1024;
  /// Number of aggregator processes (ROMIO cb_nodes).
  static constexpr u32 kAggregators = 4;

  explicit CollectiveWriter(ClientFs& client);

  /// One collective round: exchange, merge, and write the union of the
  /// processes' requests through the aggregators.
  Status write_round(const FileHandle& fh, std::vector<IoRequest> requests);

  /// Same pipeline for reads.
  Status read_round(const FileHandle& fh, std::vector<IoRequest> requests);

  const CollectiveStats& stats() const { return stats_; }

 private:
  std::vector<util::ByteRange> merge(std::vector<IoRequest> requests);
  /// Split the merged union into kAggregators contiguous equal-byte file
  /// domains (the exchange phase's reorder target).
  std::vector<std::vector<util::ByteRange>> partition(
      const std::vector<util::ByteRange>& merged) const;
  bool two_phase() const;
  Status two_phase_round(const FileHandle& fh, std::vector<IoRequest> requests,
                         bool write);

  ClientFs& client_;
  CollectiveStats stats_;
};

}  // namespace mif::client
