// TransportStack: owns and chains the transport decorators for one cluster.
//
//   top() == Sharded( [Fault(] [Qos(] [Formation(] [Async(]
//            Inproc [)] [)] [)] [)] )
//
// InprocTransport is always present (it dispatches and charges); the async
// pipeline is built for pipeline_depth >= 2 OR an adaptive ceiling
// adaptive_depth_max >= 2 (depth 1 IS the sync chain) and prices disk
// service from the spindle geometry the Endpoints' targets mount; frame
// formation is opt-in via TransportOptions::kind; the QoS scheduler is built
// only when qos.enabled, above the staging layer so a throttled envelope
// never occupies a staging queue; the fault decorator is built only when
// inject_faults is set, so the default request path has zero fault-check
// overhead; the shard router is built only when the Endpoints hold two or
// more metadata servers, placing the namespace by the policy those servers
// were mounted with (MdsConfig::placement) — above the fault layer, because
// multi-MDS routing is client-library logic and each of its sub-envelopes
// (fan-out legs, rename phases) must individually cross the "NIC".
// core::ParallelFileSystem holds one stack; tests build their own around
// hand-made Endpoints.
#pragma once

#include <memory>

#include "rpc/async.hpp"
#include "rpc/fault.hpp"
#include "rpc/formation.hpp"
#include "rpc/inproc.hpp"
#include "rpc/qos.hpp"
#include "shard/transport.hpp"

namespace mif::rpc {

struct TransportOptions {
  enum class Kind : u8 { kInproc, kFormation };
  /// kInproc preserves the pre-RPC-layer figures exactly; kFormation trades
  /// deferred acks for fewer wire messages: it stages per destination and
  /// packs size-bounded frames.
  Kind kind{Kind::kInproc};
  /// Frame-formation knobs (Kind::kFormation only).
  FormationConfig formation{};
  /// Per-client token-bucket admission control; qos.enabled builds the
  /// QosTransport above the staging layer.
  QosConfig qos{};
  /// In-flight window for the async completion-queue transport; depth <= 1
  /// keeps the fully synchronous chain (no AsyncTransport is built, so the
  /// default figures stay byte-identical).
  u32 pipeline_depth{1};
  /// Adaptive pipeline ceiling: >= 2 arms AsyncTransport's depth controller
  /// in [2, adaptive_depth_max] (builds the async layer even when
  /// pipeline_depth is 1, starting at max(2, pipeline_depth)).  0 = static.
  u32 adaptive_depth_max{0};
  /// Build a FaultTransport on top (disarmed until FaultTransport::arm).
  bool inject_faults{false};
};

class TransportStack {
 public:
  TransportStack() = default;
  TransportStack(Endpoints eps, const TransportOptions& opt);

  TransportStack(TransportStack&&) = default;
  TransportStack& operator=(TransportStack&&) = default;

  explicit operator bool() const { return top_ != nullptr; }

  /// The transport callers should send through (outermost decorator).
  Transport& top() { return *top_; }

  /// The charging layer (always present).
  InprocTransport& wire() { return *inproc_; }
  const InprocTransport& wire() const { return *inproc_; }

  /// Decorators, when configured (nullptr otherwise).
  AsyncTransport* async() { return async_.get(); }
  const AsyncTransport* async() const { return async_.get(); }
  FormationTransport* formation() { return formation_.get(); }
  const FormationTransport* formation() const { return formation_.get(); }
  QosTransport* qos() { return qos_.get(); }
  const QosTransport* qos() const { return qos_.get(); }
  FaultTransport* fault() { return fault_.get(); }
  shard::ShardedTransport* sharded() { return sharded_.get(); }
  const shard::ShardedTransport* sharded() const { return sharded_.get(); }

  const sim::Network& meta_network() const { return inproc_->meta_network(); }
  const sim::Network& data_network() const { return inproc_->data_network(); }

  void set_spans(obs::SpanCollector* spans) {
    // Decorators forward set_spans inward; the async layer also claims its
    // sim-track namespace on the way through.
    if (top_) top_->set_spans(spans);
  }
  void set_attribution(obs::Attribution* attrib) {
    if (top_) top_->set_attribution(attrib);
  }
  void export_metrics(obs::MetricsRegistry& reg,
                      std::string_view prefix) const {
    if (top_) top_->export_metrics(reg, prefix);
  }

 private:
  std::unique_ptr<InprocTransport> inproc_;
  std::unique_ptr<AsyncTransport> async_;
  std::unique_ptr<FormationTransport> formation_;
  std::unique_ptr<QosTransport> qos_;
  std::unique_ptr<FaultTransport> fault_;
  std::unique_ptr<shard::ShardedTransport> sharded_;
  Transport* top_{nullptr};
};

}  // namespace mif::rpc
