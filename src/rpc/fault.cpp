#include "rpc/fault.hpp"

#include "obs/attrib.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"

namespace mif::rpc {

bool FaultTransport::fires() {
  std::lock_guard lock(mu_);
  ++stats_.calls;
  if (!armed_) return false;
  if (cfg_.drop_count > 0) {
    if (cfg_.drop_after > 0) {
      --cfg_.drop_after;
    } else {
      --cfg_.drop_count;
      ++stats_.dropped;
      return true;
    }
  }
  if (cfg_.delay_ms > 0.0) {
    if (cfg_.delay_ms >= cfg_.timeout_ms) {
      ++stats_.dropped;
      return true;
    }
    ++stats_.delayed;
    stats_.delay_total_ms += cfg_.delay_ms;
    // An injected delay is a fault of the harness, not of any disk or
    // queue: it gets its own attribution category (`fault.delay`), so
    // fault runs don't skew per-principal disk accounts.
    if (obs::Attribution* attrib = sinks().attrib) {
      attrib->charge_fault_delay(obs::ambient_principal(), cfg_.delay_ms);
      if (obs::SpanCollector* spans = sinks().spans) {
        spans->record_sim("fault.delay", track_.id(*spans),
                          stats_.delay_total_ms - cfg_.delay_ms, cfg_.delay_ms,
                          spans->ambient());
      }
    }
  }
  return false;
}

void FaultTransport::kill_osd(u32 target, double at_ms) {
  std::lock_guard lock(mu_);
  kills_.push_back(KillEvent{target, at_ms, false});
}

void FaultTransport::set_kill_clock(std::function<double()> clock) {
  std::lock_guard lock(mu_);
  kill_clock_ = std::move(clock);
}

void FaultTransport::set_kill_sink(std::function<void(u32)> sink) {
  std::lock_guard lock(mu_);
  kill_sink_ = std::move(sink);
}

void FaultTransport::set_dead_probe(std::function<bool(u32)> dead) {
  std::lock_guard lock(mu_);
  dead_probe_ = std::move(dead);
}

void FaultTransport::poll_kills() {
  // Collect due events under the lock, run the sink outside it: the sink
  // wipes target state and enqueues repair, which must not nest under mu_.
  std::vector<u32> due;
  std::function<void(u32)> sink;
  {
    std::lock_guard lock(mu_);
    if (kills_.empty()) return;
    const double now = kill_clock_ ? kill_clock_() : 0.0;
    for (KillEvent& k : kills_) {
      if (!k.fired && now >= k.at_ms) {
        k.fired = true;
        ++stats_.kills;
        due.push_back(k.target);
      }
    }
    if (due.empty()) return;
    sink = kill_sink_;
  }
  if (sink)
    for (u32 t : due) sink(t);
}

bool FaultTransport::refuses(const Address& to, const Request& req) {
  // A dead OSD has nothing to serve reads from; writes pass — they land on
  // the freshly formatted replacement (that is the repair write path).
  if (to.kind != Address::Kind::kOsd ||
      traits(op_of(req)).direction != Direction::kRead)
    return false;
  // The probe is the HealthMap's lock-free dead mask — safe to call under
  // mu_ (it takes no locks of its own).
  std::lock_guard lock(mu_);
  if (!dead_probe_ || !dead_probe_(to.index)) return false;
  ++stats_.dead_reads;
  return true;
}

void FaultTransport::export_metrics(obs::MetricsRegistry& reg,
                                    std::string_view prefix) const {
  inner_.export_metrics(reg, prefix);
  const FaultStats s = stats();
  if (s.dropped == 0 && s.delayed == 0 && s.kills == 0) return;
  const std::string base = obs::join_key(prefix, "fault");
  reg.counter(obs::join_key(base, "calls")).inc(s.calls);
  reg.counter(obs::join_key(base, "dropped")).inc(s.dropped);
  reg.counter(obs::join_key(base, "delayed")).inc(s.delayed);
  reg.stat(obs::join_key(base, "delay_total_ms")).add(s.delay_total_ms);
  if (s.kills > 0) {
    reg.counter(obs::join_key(base, "kills")).inc(s.kills);
    reg.counter(obs::join_key(base, "dead_reads")).inc(s.dead_reads);
  }
}

}  // namespace mif::rpc
