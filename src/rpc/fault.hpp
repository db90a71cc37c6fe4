// FaultTransport: fault-injecting decorator — the outermost layer, so a
// fault hits before any queueing or coalescing, exactly where a NIC or
// switch would lose the message.
//
// Armed with a FaultConfig it can
//   * drop envelopes: after `drop_after` further calls, the next
//     `drop_count` calls fail with Errc::kIo without reaching the inner
//     transport (the servers never see them — retries must be idempotent);
//   * delay envelopes: every call is slowed by `delay_ms`; a delay at or
//     beyond `timeout_ms` is a timeout and also surfaces as Errc::kIo;
//   * kill an OSD: `kill_osd(target, at_ms)` schedules a whole-target
//     failure on the simulated clock.  The first envelope issued at or
//     after `at_ms` trips the kill: the sink callback (wired by
//     core::ParallelFileSystem) marks the target dead in the
//     redundancy::HealthMap, wipes its contents (disk replacement) and
//     queues repair.  While a target is dead, envelopes whose traits
//     direction is kRead fail with kIo here — defense in depth under the
//     client's own health-aware routing; every other envelope passes
//     (writes land on the freshly formatted replacement, which is how the
//     repair service rebuilds it).
//
// It is the only fault injector: storage targets themselves never fail.
//
// Disarmed (the default) it forwards everything untouched; kill scheduling
// is independent of arm()/disarm() (a kill is a scenario event, not a
// drop/delay profile).
#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "rpc/transport.hpp"

namespace mif::rpc {

struct FaultConfig {
  u64 drop_after{0};      // calls to let through before dropping starts
  u64 drop_count{0};      // how many calls to drop once started
  double delay_ms{0.0};   // added latency per call
  double timeout_ms{50.0};  // delays >= this are timeouts (kIo)
};

struct FaultStats {
  u64 calls{0};
  u64 dropped{0};  // drops + timeouts (the caller sees kIo either way)
  u64 delayed{0};
  double delay_total_ms{0.0};
  u64 kills{0};       // kill-OSD events fired
  u64 dead_reads{0};  // read envelopes refused because the OSD is dead
};

class FaultTransport final : public Transport {
 public:
  explicit FaultTransport(Transport& inner)
      : Transport(inner.sinks(), inner.completions()),
        inner_(inner),
        track_(sinks(), "fault") {}

  void arm(FaultConfig cfg) {
    std::lock_guard lock(mu_);
    cfg_ = cfg;
    armed_ = true;
  }
  void disarm() {
    std::lock_guard lock(mu_);
    armed_ = false;
  }
  FaultStats stats() const {
    std::lock_guard lock(mu_);
    return stats_;
  }

  // --- kill-OSD fault mode ---------------------------------------------------
  /// Schedule a deterministic whole-target failure: the first envelope
  /// issued once the simulated clock (set_kill_clock) reaches `at_ms` fires
  /// the kill sink for `target`.  Multiple kills may be scheduled.
  void kill_osd(u32 target, double at_ms);
  /// The simulated clock kills are scheduled against (the cluster-max
  /// timeline, wired at mount).  Without one, kills fire on the first call.
  void set_kill_clock(std::function<double()> clock);
  /// Invoked exactly once per fired kill, outside the fault lock (it wipes
  /// the target and queues repair).
  void set_kill_sink(std::function<void(u32)> sink);
  /// Per-OSD death probe (the redundancy::HealthMap); when set, kRead
  /// envelopes to a dead OSD fail with kIo.
  void set_dead_probe(std::function<bool(u32)> dead);

  Result<Response> call(const Address& to, const Request& req) override {
    if (auto lost = admit(to, req)) return *lost;
    return inner_.call(to, req);
  }
  Ticket call_async(const Address& to, const Request& req) override {
    // A dropped issue still yields a ticket: the loss surfaces as kIo when
    // the caller drains, on exactly the envelope that was lost.
    if (auto lost = admit(to, req))
      return completions().admit(to, op_of(req), *lost);
    return inner_.call_async(to, req);
  }
  Status flush() override {
    poll_kills();
    return inner_.flush();
  }
  void pump() override {
    poll_kills();
    inner_.pump();
  }
  void export_metrics(obs::MetricsRegistry& reg,
                      std::string_view prefix) const override;

 private:
  /// The one admission decision both call shapes act on: fire due kills,
  /// then the kIo that loses this envelope (a drop, a timeout, or a read
  /// refused by a dead target), or nullopt to forward it.
  std::optional<Errc> admit(const Address& to, const Request& req) {
    poll_kills();
    if (fires() || refuses(to, req)) return Errc::kIo;
    return std::nullopt;
  }
  /// True when this call must fail with kIo (drop or timeout).
  bool fires();
  /// Fire any scheduled kill whose time has come (sink runs unlocked).
  void poll_kills();
  /// True when `req` is a kRead envelope addressed to a dead OSD.
  bool refuses(const Address& to, const Request& req);

  struct KillEvent {
    u32 target{0};
    double at_ms{0.0};
    bool fired{false};
  };

  Transport& inner_;
  mutable std::mutex mu_;
  FaultConfig cfg_{};
  bool armed_{false};
  FaultStats stats_;
  std::vector<KillEvent> kills_;
  std::function<double()> kill_clock_;
  std::function<void(u32)> kill_sink_;
  std::function<bool(u32)> dead_probe_;
  obs::SimTrack track_;  // `fault.delay` spans, cumulative delay clock (mu_)
};

}  // namespace mif::rpc
