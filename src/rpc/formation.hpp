// FormationTransport: first-class RPC frame formation (motr-style) — the
// stack's one staging layer.
//
// "What goes on the wire together" is explicit here, the way Lustre/motr's
// formation engine makes it: per-destination staging queues accept
// deferrable envelopes and ack them early (a later failure is held sticky
// and surfaced by the next flush() or barrier), and a flush *packs* the
// queue into frames bounded by `kMaxFrameBytes`, ordered by urgency class —
//
//   barrier   — non-deferrable ops; never staged, they flush the queues and
//               pass through (order with respect to staged work preserved);
//   metadata  — deferrable MDS envelopes (utime, extent reports): small,
//               latency-sensitive, always packed ahead of data;
//   data      — block writes: bulk, coalesced into runs (util::append_run)
//               and folded into kWriteList when noncontiguous.
//
// Frames ship through the inner transport's call_batch, and their accounting
// matches InprocTransport::call_batch exactly: a frame costs kHeaderBytes +
// Σ(wire_bytes − kHeaderBytes), so packing K envelopes into F frames puts F
// headers on the wire — the formation win is choosing F, not hiding bytes.
// An envelope whose lone marginal body exceeds `kMaxFrameBytes` ships as an
// oversize singleton frame (counted) rather than wedging the queue.  This
// layer is the only caller of call_batch in a mounted stack.
#pragma once

#include <map>
#include <mutex>
#include <optional>

#include "obs/attrib.hpp"
#include "rpc/transport.hpp"

namespace mif::rpc {

struct FormationStats {
  u64 queued{0};            // deferrable envelopes accepted
  u64 coalesced_runs{0};    // block-write runs merged into a previous run
  u64 folded_lists{0};      // multi-run block writes shipped as list envelopes
  u64 frames{0};            // frames packed from staged envelopes
  u64 oversize_frames{0};   // frames forced over kMaxFrameBytes by one envelope
  u64 flushes{0};           // explicit flush() calls
  u64 watermark_flushes{0}; // queue-full backpressure flushes
  u64 barrier_flushes{0};   // flushes forced by a non-deferrable op
  u64 urgent_reorders{0};   // mixed queues where metadata was packed first
  u64 deferred_errors{0};   // errors produced by deferred envelopes
  u64 dropped_errors{0};    // sticky errors discarded by the destructor
};

class FormationTransport final : public Transport {
 public:
  /// Upper bound on one wire frame (header + packed bodies).  Envelopes are
  /// packed first-fit in queue order; a single oversize envelope ships alone.
  static constexpr u64 kMaxFrameBytes = u64{1} << 20;
  /// Flush a destination queue once its buffered wire bytes reach this.
  static constexpr u64 kWatermarkBytes = u64{4} << 20;
  /// Flush once this many distinct envelopes are staged for one target.
  static constexpr std::size_t kMaxQueueMsgs = 512;

  explicit FormationTransport(Transport& inner);
  ~FormationTransport() override;  // best-effort flush; drops are observable

  Result<Response> call(const Address& to, const Request& req) override;
  Ticket call_async(const Address& to, const Request& req) override;
  Status flush() override;
  void pump() override { inner_.pump(); }

  void export_metrics(obs::MetricsRegistry& reg,
                      std::string_view prefix) const override;

  FormationStats stats() const {
    std::lock_guard lock(mu_);
    return stats_;
  }
  /// Buffered wire bytes across all destination staging queues.
  u64 pending_bytes() const;

 private:
  struct Queue {
    Address addr;
    std::vector<Request> reqs;
    /// Parallel per-envelope principal tags (only filled while a ledger is
    /// attached); a coalesced run keeps its tail envelope's tag.
    std::vector<obs::Principal> principals;
    u64 bytes{0};
  };
  static u64 key(const Address& a) {
    return (static_cast<u64>(a.kind) << 32) | a.index;
  }
  /// The one admission decision both call shapes act on: a deferrable
  /// envelope is staged and answered with its early ack; any other is a
  /// barrier — everything staged is flushed first, and a sticky deferred
  /// failure answers it — or, with nothing to report, forwarded (nullopt).
  std::optional<Result<Response>> admit(const Address& to, const Request& req);
  /// Try to merge a block write into the queue's pending tail envelope.
  bool coalesce_locked(Queue& q, const BlockWriteRequest& w);
  /// Stable-partition metadata envelopes (and their principal tags) ahead of
  /// data; no-op when the queue is homogeneous (the common case — a
  /// destination is either an MDS or an OSD).
  void order_urgent_locked(Queue& q);
  /// Fold, order, pack into frames and ship them.  First error goes sticky
  /// and is returned; later frames still ship (the data must reach the
  /// servers regardless).
  Status flush_queue_locked(Queue& q);
  void flush_all_locked();

  Transport& inner_;
  mutable std::mutex mu_;
  std::map<u64, Queue> queues_;  // MDS keys sort before OSD: meta frames first
  DeferredError deferred_{"formation.dropped_error"};  // mu_
  FormationStats stats_;
  obs::SimTrack track_;  // the destructor's `formation.dropped_error` marker
};

}  // namespace mif::rpc
