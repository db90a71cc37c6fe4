#include "rpc/async.hpp"

#include <algorithm>

#include "obs/attrib.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "sim/network.hpp"

namespace mif::rpc {

AsyncTransport::AsyncTransport(Transport& inner, AsyncConfig cfg)
    : Transport(inner.sinks(), queue_),
      inner_(inner),
      cfg_(cfg),
      pipe_(cfg.depth),
      stall_track_(sinks(), "pipeline stall"),
      depth_min_seen_(std::max<u32>(cfg.depth, 1)),
      depth_max_seen_(std::max<u32>(cfg.depth, 1)) {}

obs::SimTrack& AsyncTransport::channel_track_locked(const Address& to,
                                                    u32 channel) {
  if (auto it = channel_tracks_.find(channel); it != channel_tracks_.end())
    return it->second;
  const char* kind = to.kind == Address::Kind::kOsd ? "osd " : "mds ";
  return channel_tracks_
      .try_emplace(channel, sinks(), kind + std::to_string(to.index) + " async")
      .first->second;
}

void AsyncTransport::set_queue_probe(std::function<double(u32)> probe) {
  std::lock_guard lock(mu_);
  probe_ = std::move(probe);
}

void AsyncTransport::adapt_locked(double queue_depth) {
  probe_sum_ += queue_depth;
  if (++probe_samples_ < kAdaptPeriod) return;
  const double mean = probe_sum_ / probe_samples_;
  probe_sum_ = 0.0;
  probe_samples_ = 0;
  const u32 cur = pipe_.depth();
  u32 next = cur;
  if (mean < static_cast<double>(cur)) {
    // Device queues shallower than the window: the spindles are starved for
    // overlap — admit more.
    next = std::min(cur * 2, cfg_.depth_max);
  } else if (mean > kShrinkFactor * static_cast<double>(cur)) {
    // Queue wait dominates service: deeper issue only lengthens the line —
    // back off (excess in-flight exchanges drain before the next admit).
    next = std::max(cur / 2, kAdaptFloor);
  }
  next = std::clamp(next, kAdaptFloor, cfg_.depth_max);
  if (next == cur) return;
  pipe_.set_depth(next);
  ++depth_changes_;
  depth_min_seen_ = std::min(depth_min_seen_, next);
  depth_max_seen_ = std::max(depth_max_seen_, next);
}

double AsyncTransport::price(const Request& req, u64 wire,
                             const Result<Response>& resp) const {
  const OpTraits& tr = traits(op_of(req));
  if (tr.free) return 0.0;
  double ms = sim::Network::cost(wire);
  if (resp) {
    if (const u64 bulk = bulk_bytes(*resp); bulk > 0)
      ms += sim::Network::cost(bulk);
  }
  // An envelope that moves blocks also occupies the destination's spindle;
  // the streaming floor is the portion that pipelining genuinely overlaps
  // across targets.
  if (tr.direction != Direction::kNone)
    ms += sim::stream_transfer_ms(cfg_.geometry, data_blocks(req),
                                  tr.direction == Direction::kWrite
                                      ? sim::IoKind::kWrite
                                      : sim::IoKind::kRead);
  return ms;
}

Ticket AsyncTransport::call_async(const Address& to, const Request& req) {
  // Dispatch now: server-side effects happen in issue order, exactly as the
  // sync chain, so placement and figures are independent of depth.  Only
  // the caller-visible completion is deferred.
  const Op op = op_of(req);
  const u64 wire = wire_bytes(req);
  Result<Response> resp = inner_.call(to, req);
  const double service = price(req, wire, resp);

  const u32 channel = channel_of(to);
  std::lock_guard lock(mu_);
  if (cfg_.depth_max >= 2 && probe_ && to.kind == Address::Kind::kOsd)
    adapt_locked(probe_(to.index));
  const sim::Pipeline::Times t = pipe_.submit(channel, service);
  inflight_.add(pipe_.inflight());
  queue_.set_clock(pipe_.issue_clock_ms());
  obs::SpanCollector* const spans = sinks().spans;
  if (obs::Attribution* attrib = sinks().attrib; attrib && t.stall_ms > 0.0) {
    // The issuer waited out the window's backpressure — a cost of the
    // pipeline, not of any disk or network, so it gets its own category.
    attrib->charge_stall(obs::ambient_principal(), t.stall_ms);
    if (spans) {
      // On the cumulative stall clock (stats_.stall_ms grew by exactly
      // t.stall_ms above).
      spans->record_sim("rpc.stall", stall_track_.id(*spans),
                        pipe_.stats().stall_ms - t.stall_ms, t.stall_ms,
                        spans->ambient(), static_cast<u64>(op));
    }
  }
  if (spans) {
    // One sim-clock span per ticket, issue → complete, on the destination's
    // channel track.  arg0 = op (decode with rpc::to_string), arg1 = wire
    // bytes.  Distinct name from the inner host-clock rpc.<op> spans so the
    // two clock families never share a phase-stats bucket.
    spans->record_sim("rpc.async", channel_track_locked(to, channel).id(*spans),
                      t.issue_ms, t.done_ms - t.issue_ms, spans->ambient(),
                      static_cast<u64>(op), wire);
  }
  return queue_.admit(to, op, std::move(resp), t.done_ms);
}

AsyncReport AsyncTransport::report() const {
  std::lock_guard lock(mu_);
  const sim::PipelineStats& s = pipe_.stats();
  AsyncReport r;
  r.depth = pipe_.depth();
  r.issued = s.issued;
  r.stalls = s.stalls;
  r.max_inflight = s.max_inflight;
  r.stall_ms = s.stall_ms;
  r.serial_ms = s.serial_ms;
  r.elapsed_ms = pipe_.elapsed_ms();
  r.adaptive = cfg_.depth_max >= 2;
  r.depth_changes = depth_changes_;
  r.depth_min_seen = depth_min_seen_;
  r.depth_max_seen = depth_max_seen_;
  return r;
}

void AsyncTransport::export_metrics(obs::MetricsRegistry& reg,
                                    std::string_view prefix) const {
  inner_.export_metrics(reg, prefix);
  const AsyncReport r = report();
  reg.histogram(obs::join_key(prefix, "inflight"), 16)
      .merge_from(inflight_.snapshot());
  const std::string base = obs::join_key(prefix, "pipeline");
  reg.gauge(obs::join_key(base, "depth")).set(r.depth);
  reg.counter(obs::join_key(base, "issued")).inc(r.issued);
  reg.counter(obs::join_key(base, "stalls")).inc(r.stalls);
  reg.counter(obs::join_key(base, "max_inflight")).inc(r.max_inflight);
  reg.gauge(obs::join_key(base, "stall_ms")).set(r.stall_ms);
  reg.gauge(obs::join_key(base, "serial_ms")).set(r.serial_ms);
  reg.gauge(obs::join_key(base, "elapsed_ms")).set(r.elapsed_ms);
  if (r.adaptive) {
    // Adaptive-only keys: a static-depth mount's export stays unchanged.
    reg.counter(obs::join_key(base, "depth_changes")).inc(r.depth_changes);
    reg.gauge(obs::join_key(base, "depth_min_seen")).set(r.depth_min_seen);
    reg.gauge(obs::join_key(base, "depth_max_seen")).set(r.depth_max_seen);
  }
}

}  // namespace mif::rpc
