// AsyncTransport: completion-queue decorator that retires tickets against a
// pipelined simulated timeline.
//
// The base Transport's sync fallback completes every call_async() at issue —
// the blocking chain's semantics.  This decorator is the layer that actually
// DEFERS completion: an issued envelope is dispatched into the inner
// transport immediately (server-side effects — allocation, disk service,
// rpc.* charging — happen in issue order, exactly as the sync chain), but
// its Result<Response> is admitted to the completion queue with a modeled
// done time on a sim::Pipeline timeline:
//
//   service(envelope) = network(wire) [+ network(bulk reply)]
//                       [+ disk streaming estimate for block I/O]
//
//   issue   — bounded by the pipeline window (`depth` in flight);
//   start   — max(issue, destination channel clock): FIFO per destination;
//   done    — start + service; distinct destinations overlap, so a window
//             completes in max() of its members, not their sum.
//
// depth == 1 reproduces the blocking client exactly (elapsed == serial sum);
// the stack only builds this decorator for depth >= 2, keeping the default
// figures byte-identical.  The pipelined elapsed/serial times are exposed via
// report() for the bench JSON (fig6a/fig7 --pipeline-depth) and exported as
// rpc.pipeline.* metrics plus the rpc.inflight window-occupancy histogram.
//
// Placement in the chain: directly above InprocTransport —
// Fault(Formation(Async(Inproc))) — so faults fail tickets before issue and
// formation still packs frames underneath its own deferred acks.
#pragma once

#include <functional>
#include <mutex>

#include "obs/metrics.hpp"
#include "rpc/transport.hpp"
#include "sim/disk.hpp"
#include "sim/network.hpp"
#include "sim/pipeline.hpp"

namespace mif::rpc {

struct AsyncConfig {
  /// Max in-flight envelopes per chain (the completion-queue window).
  u32 depth{2};
  /// Adaptive window ceiling.  0 (default) = static `depth`.  >= 2 arms the
  /// controller: the window floats in [2, depth_max], driven by the live
  /// device queue gauges wired via set_queue_probe() — deepen while the
  /// devices are starved, shrink when queue wait dominates.  The floor of 2
  /// guarantees the window always overlaps at least two exchanges.
  u32 depth_max{0};
  /// Geometry used for the per-envelope disk service estimate (streaming
  /// floor; the OSDs still charge the real seek-aware cost internally).
  sim::DiskGeometry geometry{};
};

/// Pipeline outcome snapshot for the bench JSON: serial_ms is what a
/// depth-1 (blocking) client would have paid end-to-end, elapsed_ms is the
/// pipelined end-to-end, so serial/elapsed is the overlap speedup.
struct AsyncReport {
  u32 depth{1};  // current window (the last adaptive choice, or the static)
  u64 issued{0};
  u64 stalls{0};
  u64 max_inflight{0};
  double stall_ms{0.0};
  double serial_ms{0.0};
  double elapsed_ms{0.0};
  // Adaptive-controller outcome (meaningful only when `adaptive`).
  bool adaptive{false};
  u64 depth_changes{0};
  u32 depth_min_seen{1};
  u32 depth_max_seen{1};
};

class AsyncTransport final : public Transport {
 public:
  AsyncTransport(Transport& inner, AsyncConfig cfg = {});

  /// Sync calls stay synchronous — the metadata path is unchanged.
  Result<Response> call(const Address& to, const Request& req) override {
    return inner_.call(to, req);
  }

  /// Eager dispatch, deferred retirement (see file comment).
  Ticket call_async(const Address& to, const Request& req) override;

  CompletionQueue& completions() override { return cq_; }

  Status call_batch(const Address& to, std::vector<Request> reqs) override {
    return inner_.call_batch(to, std::move(reqs));
  }
  Status flush() override { return inner_.flush(); }
  void pump() override { inner_.pump(); }

  /// Wire the live device-queue gauge the adaptive controller reads:
  /// `probe(osd_index)` returns that target's current scheduler queue depth
  /// (StorageTarget::queue_depth, published since the PR 6 timeline).  Only
  /// consulted when cfg.depth_max >= 2; unset probe = controller dormant.
  void set_queue_probe(std::function<double(u32)> probe);

  void set_spans(obs::SpanCollector* spans) override;
  void set_attribution(obs::Attribution* attrib) override {
    attrib_ = attrib;
    inner_.set_attribution(attrib);
  }
  void export_metrics(obs::MetricsRegistry& reg,
                      std::string_view prefix) const override;

  u32 depth() const { return cfg_.depth; }
  AsyncReport report() const;

  /// Envelopes currently inside the completion window (timeline gauge).
  u64 inflight() const {
    std::lock_guard lock(mu_);
    return pipe_.inflight();
  }

 private:
  /// One pipeline channel per destination: OSDs on their own lanes, MDS
  /// addresses offset past any realistic OSD count.
  static u32 channel_of(const Address& to) {
    return to.kind == Address::Kind::kOsd ? to.index : 128u + to.index;
  }
  /// Modeled end-to-end service time of one exchange (ms).
  double price(const Address& to, const Request& req,
               const Result<Response>& resp) const;
  /// One controller step: fold `queue_depth` into the sample window and,
  /// every kAdaptPeriod OSD issues, resize the pipeline window.  mu_ held.
  void adapt_locked(double queue_depth);

  /// OSD issues between adaptive window adjustments.
  static constexpr u32 kAdaptPeriod = 8;
  /// Adaptive floor: never below 2 — the window must keep overlapping.
  static constexpr u32 kAdaptFloor = 2;
  /// Shrink once the mean device queue exceeds this multiple of the window
  /// (queue wait dominates: deeper issue only lengthens the line).
  static constexpr double kShrinkFactor = 8.0;

  Transport& inner_;
  AsyncConfig cfg_;
  // cost() only — never charged; the same GbE model InprocTransport charges.
  sim::Network meta_model_;
  sim::Network data_model_;
  obs::SpanCollector* spans_{nullptr};
  obs::Attribution* attrib_{nullptr};
  u32 track_ns_{0};
  mutable std::mutex mu_;
  sim::Pipeline pipe_;
  obs::Histo inflight_{16};  // window occupancy at each issue
  CompletionQueue cq_;
  // Adaptive-controller state (mu_).
  std::function<double(u32)> probe_;
  double probe_sum_{0.0};
  u32 probe_samples_{0};
  u64 depth_changes_{0};
  u32 depth_min_seen_{1};
  u32 depth_max_seen_{1};
};

}  // namespace mif::rpc
