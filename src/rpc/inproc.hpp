// InprocTransport: synchronous in-process delivery with all cost accounting.
//
// This is the innermost transport and the only place in the stack that
// touches sim::Network or Mds::account_rpc():
//
//   * one metadata network and one data network, charged from each
//     envelope's wire_bytes(); variable-length replies (layouts, listings,
//     block data) are charged as a second transfer from bulk_bytes();
//   * one `rpc.<op>` span per delivered envelope;
//   * per-op count/bytes/errors counters and a simulated-latency histogram,
//     exported as `rpc.<op>.*` plus the `rpc.meta.*`/`rpc.data.*`
//     aggregates.
//
// call_batch() delivers several envelopes as ONE wire frame (one shared
// header, one network exchange) — the quantity FormationTransport optimises.
//
// With both a ledger and a collector attached, every exchange also becomes a
// `net.exchange` sim span on a cumulative per-network clock (the critical
// path's "network" segment), on the tracks "meta net" and "data net".
//
// Thread-safety: dispatch into storage targets may run concurrently (the
// targets lock internally); both sim::Network instances are plain
// accumulators and are guarded by net_mu_.  Metadata dispatch is
// single-threaded by design, like the namespace it serialises.
#pragma once

#include <array>
#include <atomic>
#include <mutex>

#include "obs/metrics.hpp"
#include "rpc/transport.hpp"
#include "sim/network.hpp"

namespace mif::obs {
struct Principal;
}

namespace mif::rpc {

class InprocTransport final : public Transport {
 public:
  /// `sinks`: the attachment the whole chain records into.
  explicit InprocTransport(Endpoints eps,
                           const obs::Sinks& sinks = obs::Sinks::none());

  Result<Response> call(const Address& to, const Request& req) override;
  Status call_batch(const Address& to, std::vector<Request> reqs) override;

  void export_metrics(obs::MetricsRegistry& reg,
                      std::string_view prefix) const override;

  const sim::Network& meta_network() const { return meta_net_; }
  const sim::Network& data_network() const { return data_net_; }

  /// Snapshot of one op's counters (testing / diagnostics).
  struct OpCounters {
    u64 count{0};
    u64 bytes{0};
    u64 errors{0};
  };
  OpCounters op_counters(Op op) const;

 private:
  Result<Response> dispatch(const Address& to, const Request& req);
  /// Charge one network exchange to the destination-kind's network; returns
  /// the simulated cost in ms.
  double charge(Address::Kind kind, u64 bytes);
  /// What follows one envelope's dispatch, for a lone call and for each
  /// envelope of a frame alike: count the op (and its error), charge a bulk
  /// reply to the network and count its bytes (the request's were counted
  /// when it was sized), and hand the ledger `p`'s rpc and net charge —
  /// `net_ms`/`net_bytes` of the request's exchange plus the reply's.
  /// Returns the reply's charge in ms; the caller records latency.  Inline:
  /// it runs once per envelope, and a call there costs a per-block stream
  /// a few percent of its host throughput.
  inline double settle(const Address& to, Op op, const Result<Response>& resp,
                       const obs::Principal& p, double net_ms, u64 net_bytes);

  struct PerOp {
    std::atomic<u64> count{0};
    std::atomic<u64> bytes{0};
    std::atomic<u64> errors{0};
    obs::Histo latency_us{32};  // simulated exchange latency per envelope
  };

  Endpoints eps_;
  mutable std::mutex net_mu_;
  sim::Network meta_net_;
  sim::Network data_net_;
  /// The `net.exchange` clocks and their tracks, meta then data.  Guarded
  /// by net_mu_.
  std::array<double, 2> net_clock_{0.0, 0.0};
  std::array<obs::SimTrack, 2> net_track_;
  std::array<PerOp, kOpCount> ops_;
  /// The chain's queue unless an AsyncTransport wraps this one: the sync
  /// fallback admits every ticket here already complete.
  CompletionQueue queue_;
};

}  // namespace mif::rpc
