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

namespace mif::rpc {

class InprocTransport final : public Transport {
 public:
  explicit InprocTransport(Endpoints eps);

  Result<Response> call(const Address& to, const Request& req) override;
  Status call_batch(const Address& to, std::vector<Request> reqs) override;

  void set_spans(obs::SpanCollector* spans) override { spans_ = spans; }
  void set_attribution(obs::Attribution* attrib) override { attrib_ = attrib; }
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

  struct PerOp {
    std::atomic<u64> count{0};
    std::atomic<u64> bytes{0};
    std::atomic<u64> errors{0};
    obs::Histo latency_us{32};  // simulated exchange latency per envelope
  };

  Endpoints eps_;
  obs::SpanCollector* spans_{nullptr};
  obs::Attribution* attrib_{nullptr};
  mutable std::mutex net_mu_;
  sim::Network meta_net_;
  sim::Network data_net_;
  /// `net.exchange` sim spans ride a cumulative per-network clock (lane
  /// 0 = meta, 1 = data) in a lazily-reserved track namespace; only emitted
  /// while BOTH attribution and spans are attached.  Guarded by net_mu_.
  bool net_ns_set_{false};
  u32 net_ns_{0};
  std::array<double, 2> net_clock_{0.0, 0.0};
  std::array<PerOp, kOpCount> ops_;
};

}  // namespace mif::rpc
