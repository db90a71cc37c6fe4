// Transport — the single seam every cross-node call passes through.
//
// A Transport takes (Address, Request) and produces a Response.  All network
// charging, rpc.* metrics and rpc.<op> span phases live behind this
// interface, so swapping the implementation (formation, async, a real socket)
// changes cost and concurrency without touching client, MDS or OSD code.
//
// Implementations compose as decorators (rpc::TransportStack builds them):
//
//   Sharded( Fault( Qos( Formation( Async( Inproc )))))
//
// with InprocTransport always innermost (it owns dispatch + charging) and
// FaultTransport outside every queueing layer (faults hit before any
// queueing, like a NIC).
//
// Two call shapes share the seam:
//
//   * call()        — synchronous request/response, used by metadata ops;
//   * call_async()  — issue an envelope and get a Ticket back; its
//                     Result<Response> retires later through the chain's
//                     CompletionQueue.  The data path (striped block I/O)
//                     issues many tickets and drains them, so an async
//                     implementation can keep a window of requests in
//                     flight across the storage targets.
//
// The base class provides a correct-by-default sync fallback: call_async()
// performs the call immediately and admits an already-completed ticket, so
// every existing transport composes without knowing about tickets.  ONE
// completion queue serves a chain, held by the transports that retire
// tickets: InprocTransport (its sync fallback) and AsyncTransport (which
// defers completion).  The innermost transport is built with its mount's
// observability attachment (obs/sinks.hpp) and its own queue; every
// decorator takes both from the layer it wraps, and AsyncTransport puts its
// own queue in place of the inner one.
#pragma once

#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/sinks.hpp"
#include "rpc/envelope.hpp"
#include "util/result.hpp"

namespace mif::mds {
class Mds;
}
namespace mif::osd {
class StorageTarget;
}
namespace mif::obs {
class MetricsRegistry;
}

namespace mif::rpc {

/// The servers an in-process transport can deliver to.  Raw pointers: the
/// cluster (core::ParallelFileSystem or a test fixture) owns the servers and
/// outlives the transport.
struct Endpoints {
  std::vector<mds::Mds*> mds;
  std::vector<osd::StorageTarget*> osds;
};

/// Handle to one in-flight envelope.  Its Result<Response> is claimed from
/// the chain's CompletionQueue (try_take/wait/wait_all); id 0 = invalid.
struct Ticket {
  u64 id{0};
  Address to{};
  Op op{Op::kMkdir};
  bool valid() const { return id != 0; }
};

/// The chain's completion side: every call_async() admits a ticket here and
/// callers retire tickets out of it.
///
/// Ordering semantics (exercised by rpc_async_test):
///   * retirement order is modeled-completion order (done_ms, then admit
///     sequence) — envelopes to DISTINCT destinations may retire out of
///     issue order when a later, cheaper exchange completes first;
///   * envelopes to ONE destination always retire FIFO: the transport's
///     per-destination channel clocks are monotonic, so a destination's
///     done_ms never reorders against its issue order.
///
/// try_take() only claims a ticket whose modeled completion lies at or
/// before the issue clock (what a non-blocking client would see);
/// wait()/wait_all() block the modeled timeline forward and retire
/// regardless.
///
/// Thread-safety: one mutex; concurrent clients admit and retire their own
/// tickets by id without observing each other's results.
class CompletionQueue {
 public:
  /// Admit a ticket.  `done_ms` < 0 ⇒ completed-at-issue (sync fallback);
  /// otherwise the ticket retires once the clock reaches done_ms.
  Ticket admit(const Address& to, Op op, Result<Response> result,
               double done_ms = -1.0);

  /// Advance the retirement horizon (the async transport's issue clock).
  void set_clock(double now_ms);

  /// Non-blocking claim of one specific ticket: its result if it has
  /// completed by the current clock, nullopt otherwise (ticket stays).
  std::optional<Result<Response>> try_take(const Ticket& t);

  /// Claim one specific ticket, blocking the modeled timeline forward to
  /// its completion.  Unknown tickets (already claimed) return kInvalid.
  Result<Response> wait(const Ticket& t);

  /// Retire everything outstanding in completion order; returns the first
  /// error encountered (sticky until reported).  The drain-on-unmount path.
  Status wait_all();

  /// Tickets admitted but not yet retired.
  std::size_t in_flight() const;

 private:
  struct Entry {
    Ticket ticket;
    Result<Response> result{Errc::kInvalid};
    double done_ms{-1.0};
    u64 seq{0};
  };
  /// True when `e` retires no later than `f` (completion order).
  static bool before(const Entry& e, const Entry& f);

  mutable std::mutex mu_;
  u64 next_id_{1};
  u64 next_seq_{0};
  double clock_ms_{0.0};
  std::deque<Entry> entries_;  // admit order; scanned in completion order
};

/// The deferred-error contract of the two staging layers (formation, QoS),
/// which ack envelopes before they run.  The first failure of such an
/// envelope is held until the next barrier or flush takes it; one still
/// held when the layer is destroyed is dropped observably — counted in the
/// layer's `dropped_errors`, marked by a `<layer>.dropped_error` span on the
/// layer's track, and printed on stderr.  The owning layer's lock guards it.
class DeferredError {
 public:
  /// `marker`: the drop span's name, "<layer>.dropped_error" (a string
  /// literal — spans keep the pointer); "<layer>" tags the stderr line.
  explicit DeferredError(const char* marker) : marker_(marker) {}

  /// Hold `s` unless an earlier failure is already held.
  void hold(Status s) {
    if (held_.ok()) held_ = s;
  }
  /// The held failure (ok when none); nothing is held afterwards.
  Status take() { return std::exchange(held_, Status{}); }

  /// The destructor's step: a failure still held is counted in `dropped`,
  /// marked at `now_ms()` on `track` and printed.
  void drop(const obs::Sinks& sinks, obs::SimTrack& track,
            const std::function<double()>& now_ms, u64& dropped);

 private:
  std::string_view marker_;
  Status held_{};
};

class Transport {
 public:
  /// `sinks`: the mount's attachment — the innermost transport's own, a
  /// decorator's inner.sinks().  `cq`: the chain's completion queue — a
  /// member of the transport that retires tickets, a decorator's
  /// inner.completions().
  Transport(const obs::Sinks& sinks, CompletionQueue& cq)
      : sinks_(sinks), cq_(cq) {}
  virtual ~Transport() = default;

  /// Deliver one envelope and wait for its response.
  virtual Result<Response> call(const Address& to, const Request& req) = 0;

  /// Issue one envelope without waiting; the Result<Response> retires
  /// through completions().  Default = sync fallback: perform the call now
  /// and admit an already-completed ticket, preserving synchronous
  /// semantics exactly.  Decorators forward to their inner transport so the
  /// deferring layer (AsyncTransport) sees every issue.
  virtual Ticket call_async(const Address& to, const Request& req) {
    return cq_.admit(to, op_of(req), call(to, req));
  }

  /// The chain's single completion queue.
  CompletionQueue& completions() { return cq_; }

  /// Deliver several envelopes to one destination as a single wire message.
  /// The default unrolls into individual calls; InprocTransport overrides it
  /// to charge one frame (AsyncTransport forwards it there) — that
  /// difference is the formation win.  FormationTransport is the only caller
  /// in a mounted stack, and it calls the layer below it.
  virtual Status call_batch(const Address& to, std::vector<Request> reqs) {
    for (const Request& r : reqs) {
      if (Result<Response> resp = call(to, r); !resp) return resp.error();
    }
    return {};
  }

  /// Push out anything a buffering implementation is holding.  Returns the
  /// first error any deferred envelope produced (sticky until reported).
  virtual Status flush() { return {}; }

  /// Give time-based layers a chance to act on clock progress (the QoS
  /// scheduler releases backlogged envelopes as its buckets refill) WITHOUT
  /// forcing anything out the way flush() does.  Decorators forward inward;
  /// the default is a no-op.  Called from client drain points.
  virtual void pump() {}

  virtual void export_metrics(obs::MetricsRegistry& reg,
                              std::string_view prefix) const {
    (void)reg;
    (void)prefix;
  }

  /// The attachment every layer of this chain records into.
  const obs::Sinks& sinks() const { return sinks_; }

 private:
  const obs::Sinks& sinks_;
  CompletionQueue& cq_;
};

}  // namespace mif::rpc
