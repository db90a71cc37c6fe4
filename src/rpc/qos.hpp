// QosTransport: per-client token-bucket admission control for the data path.
//
// PR 7 built the measurement half of the noisy-neighbour story (per-principal
// attribution, Jain's fairness, micro_antagonist); this layer is the
// enforcement half.  Every deferrable data envelope is metered against its
// issuing client's token bucket (identity = obs::Principal, the same tag the
// attribution ledger charges): within rate, the envelope is admitted to the
// inner transport immediately; over rate, it parks in a per-client backlog
// and returns a deferred ack (formation semantics — a later failure is held
// sticky and surfaces at the next barrier or flush).  Buckets refill on the
// cluster's simulated clock, and backlogged clients drain round-robin, one
// envelope per visit, whenever tokens come back, so one hot streamer is
// capped at the configured rate while everyone else's small envelopes sail
// through.
//
// Barriers stay correct but narrow: a non-deferrable op force-releases only
// the backlogged envelopes of the SAME inode (a read must see that file's
// queued writes; it must NOT flush an unrelated client's backlog — that
// would hand the antagonist a bypass).  flush() releases everything — the
// drain-on-unmount path.
//
// Placement: above the formation layer, below fault/shard —
//   Sharded( Fault( Qos( Formation( Async( Inproc )))))
// so a throttled envelope never reaches a staging queue or the pipeline
// until its tokens are available.  Built only when QosConfig sets a rate, so
// the default chain is untouched (byte-identical figures).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>

#include "obs/attrib.hpp"
#include "obs/metrics.hpp"
#include "rpc/transport.hpp"

namespace mif::rpc {

/// One client's token bucket: `tokens` bytes available, refilled at
/// `rate_bytes_per_ms` on the simulated clock, capped at `burst_bytes`.
/// Starts full — a client's first burst up to the cap is never throttled.
/// Deterministic: refill is a pure function of the clock delta.
class TokenBucket {
 public:
  TokenBucket(double rate_bytes_per_ms, u64 burst_bytes)
      : rate_(rate_bytes_per_ms),
        burst_(static_cast<double>(burst_bytes)),
        tokens_(static_cast<double>(burst_bytes)) {}

  /// Credit rate * elapsed since the last refill, capped at the burst.  A
  /// clock that has not advanced (or went backwards) credits nothing.
  void refill(double now_ms) {
    if (now_ms > last_ms_) {
      tokens_ = std::min(burst_, tokens_ + rate_ * (now_ms - last_ms_));
      last_ms_ = now_ms;
    }
  }

  /// Take `bytes` tokens if available; false (and no change) otherwise.
  bool try_consume(u64 bytes) {
    const double b = static_cast<double>(bytes);
    if (tokens_ < b) return false;
    tokens_ -= b;
    return true;
  }

  double tokens() const { return tokens_; }
  double rate_bytes_per_ms() const { return rate_; }
  u64 burst_bytes() const { return static_cast<u64>(burst_); }

 private:
  double rate_;
  double burst_;
  double tokens_;
  double last_ms_{0.0};
};

struct QosConfig {
  /// Per-client refill rate (simulated bytes per simulated ms).  0 (the
  /// default) builds no QoS layer, so the chain stays byte-identical to a
  /// mount without QoS.
  double rate_bytes_per_ms{0.0};
  bool enabled() const { return rate_bytes_per_ms > 0.0; }
};

/// "" when `cfg` is mountable; otherwise a human-readable reason (the same
/// contract as obs::validate for the timeline Config).
std::string validate(const QosConfig& cfg);

struct QosStats {
  u64 admitted{0};        // metered envelopes forwarded within rate
  u64 throttled{0};       // metered envelopes parked in a backlog
  u64 released{0};        // backlogged envelopes admitted by refilled tokens
  u64 forced{0};          // backlogged envelopes force-released by a barrier
  u64 barriers{0};        // non-deferrable ops that scanned the backlog
  u64 flushes{0};         // explicit flush() calls
  u64 deferred_errors{0}; // errors produced by released envelopes
  u64 dropped_errors{0};  // sticky errors discarded by the destructor
  u64 backlog_peak{0};    // deepest total backlog observed (envelopes)
};

class QosTransport final : public Transport {
 public:
  /// Per-client bucket capacity: the burst a client may issue from a
  /// standing start without throttling.
  static constexpr u64 kBurstBytes = u64{1} << 20;

  QosTransport(Transport& inner, QosConfig cfg);
  ~QosTransport() override;  // best-effort release of leftovers

  Result<Response> call(const Address& to, const Request& req) override;
  Ticket call_async(const Address& to, const Request& req) override;
  Status flush() override;
  void pump() override;

  void export_metrics(obs::MetricsRegistry& reg,
                      std::string_view prefix) const override;

  /// The simulated clock buckets refill against (typically the cluster-max
  /// target clock, wired by core::ParallelFileSystem at mount).  Without
  /// one the clock stays at 0: buckets never refill past their initial
  /// burst, which is exactly what a standalone unit test wants.
  void set_clock(std::function<double()> clock);

  QosStats stats() const;
  /// Backlogged envelopes / their wire bytes across all clients (timeline
  /// gauges).
  u64 backlog() const;
  u64 backlog_bytes() const;
  /// Tokens currently available to `client` (tests; -1 for unknown client
  /// before its first metered envelope).
  double tokens(u32 client) const;

 private:
  struct Parked {
    Address to;
    Request req;
    obs::Principal principal;
    u64 bytes{0};
    double enqueue_ms{0.0};
  };
  struct Lane {
    TokenBucket bucket;
    std::deque<Parked> backlog;
  };

  /// Deferrable, non-metadata, issued by a real client: the envelopes the
  /// scheduler meters.  System/background work is never throttled.
  static bool meterable(const OpTraits& tr, const obs::Principal& p) {
    return tr.deferrable && !tr.meta && !p.system();
  }

  /// The one admission decision both call shapes act on: nullopt forwards
  /// the envelope down the chain, a value answers it here — the deferred
  /// ack of a parked envelope, or the sticky error a barrier surfaces.
  /// `lock` (on mu_, unlocked on entry) stays held on return except for an
  /// unmetered or barrier pass-through: an answer is given under it, and an
  /// admitted metered envelope is forwarded under it, so no pump on another
  /// thread overtakes it in its client's FIFO order.
  std::optional<Result<Response>> admit(const Address& to, const Request& req,
                                        std::unique_lock<std::mutex>& lock);

  double now_locked() const { return clock_ ? clock_() : 0.0; }
  Lane& lane_locked(u32 client);
  /// Refill every bucket and release backlogged envelopes round-robin, one
  /// per lane visit, while tokens allow.
  void pump_locked(double now_ms);
  /// Dispatch one parked envelope under its owner's principal; errors go
  /// sticky.
  void release_locked(Parked&& p, bool forced);
  /// Barrier scope: force-release every parked envelope of `ino` (any
  /// client, any destination) so the non-deferrable op observes them.
  void release_ino_locked(InodeNo ino);
  void release_all_locked();
  void note_backlog_locked();

  Transport& inner_;
  QosConfig cfg_;
  std::function<double()> clock_;
  mutable std::mutex mu_;
  std::map<u32, Lane> lanes_;  // keyed by client id (deterministic order)
  u64 rr_cursor_{0};           // last-served position in the RR cycle
  u64 backlog_count_{0};
  u64 backlog_bytes_{0};
  DeferredError deferred_{"qos.dropped_error"};  // mu_
  QosStats stats_;
  obs::Stat wait_ms_;  // backlog residency of released envelopes
  /// `rpc.qos.wait` spans (on the backlog's enqueue clock) and the
  /// destructor's `qos.dropped_error` marker (mu_).
  obs::SimTrack track_;
};

}  // namespace mif::rpc
