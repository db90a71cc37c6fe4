// Transport — the single seam every cross-node call passes through.
//
// A Transport takes (Address, Request) and produces a Response.  All network
// charging, rpc.* metrics and rpc.<op> span phases live behind this
// interface, so swapping the implementation (formation, async, a real socket)
// changes cost and concurrency without touching client, MDS or OSD code.
//
// Implementations compose as decorators:
//
//   FaultTransport( FormationTransport( AsyncTransport( InprocTransport )))
//
// with InprocTransport always innermost (it owns dispatch + charging) and
// FaultTransport outermost (faults hit before any queueing, like a NIC).
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
// every existing transport composes without knowing about tickets.  Each
// decorator forwards completions() to its inner transport — ONE queue per
// chain, owned by the innermost transport that actually defers completion.
#pragma once

#include <deque>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "rpc/envelope.hpp"
#include "util/result.hpp"

namespace mif::mds {
class Mds;
}
namespace mif::osd {
class StorageTarget;
}
namespace mif::obs {
class Attribution;
class MetricsRegistry;
class SpanCollector;
}  // namespace mif::obs

namespace mif::rpc {

/// The servers an in-process transport can deliver to.  Raw pointers: the
/// cluster (core::ParallelFileSystem or a test fixture) owns the servers and
/// outlives the transport.
struct Endpoints {
  std::vector<mds::Mds*> mds;
  std::vector<osd::StorageTarget*> osds;
};

/// Handle to one in-flight envelope.  Its Result<Response> is claimed from
/// the chain's CompletionQueue (wait/try_take); id 0 = invalid.
struct Ticket {
  u64 id{0};
  Address to{};
  Op op{Op::kMkdir};
  bool valid() const { return id != 0; }
};

/// One retired envelope: the ticket plus its result and the simulated time
/// (ms on the transport's pipeline timeline) at which it completed.
struct Completion {
  Ticket ticket;
  Result<Response> result{Errc::kInvalid};
  double done_ms{0.0};
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
/// poll() only surfaces tickets whose modeled completion lies at or before
/// the issue clock (what a non-blocking client would see); wait()/wait_all()
/// block the modeled timeline forward and retire regardless.
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

  /// Next ticket already complete at the current clock, oldest completion
  /// first; nullopt when everything still in flight is ahead of the clock.
  std::optional<Completion> poll();

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

class Transport {
 public:
  virtual ~Transport() = default;

  /// Deliver one envelope and wait for its response.
  virtual Result<Response> call(const Address& to, const Request& req) = 0;

  /// Issue one envelope without waiting; the Result<Response> retires
  /// through completions().  Default = sync fallback: perform the call now
  /// and admit an already-completed ticket, preserving synchronous
  /// semantics exactly.  Decorators forward to their inner transport so the
  /// deferring layer (AsyncTransport) sees every issue.
  virtual Ticket call_async(const Address& to, const Request& req) {
    return completions().admit(to, op_of(req), call(to, req));
  }

  /// The chain's single completion queue.  Decorators forward to the inner
  /// transport; the innermost (or the async decorator) owns the real one.
  virtual CompletionQueue& completions() { return cq_; }

  /// Deliver several envelopes to one destination as a single wire message.
  /// The default unrolls into individual calls; InprocTransport overrides it
  /// to charge one frame — that difference is the formation win.
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

  virtual void set_spans(obs::SpanCollector* spans) { (void)spans; }

  /// Attach per-principal cost attribution (see obs/attrib.hpp).  Decorators
  /// keep a pointer for their own charges (stall, fault delay, frame
  /// splitting) and forward inward; with none attached the chain's cost
  /// accounting is unchanged.  nullptr detaches.
  virtual void set_attribution(obs::Attribution* attrib) { (void)attrib; }
  virtual void export_metrics(obs::MetricsRegistry& reg,
                              std::string_view prefix) const {
    (void)reg;
    (void)prefix;
  }

 private:
  CompletionQueue cq_;
};

}  // namespace mif::rpc
