// Per-principal cost attribution: account every simulated millisecond.
//
// PR 2's spans answer "where did THIS request's time go"; the metrics
// registry answers "what did the whole run cost".  Neither answers the
// question the ROADMAP's QoS/formation/scavenger items need: *who* spent the
// time.  This layer tags work with a Principal — (client id, op class) with
// a reserved background/system class for journal replay and future scavenger
// work — threads the tag through the transport decorator chain down to
// sim::Disk, Mds handlers and sim::Network, and accumulates one CostAccount
// per principal.
//
// Invariant (enforced by attrib_test and scripts/gates.py): for
// every cost category, the per-principal sums equal the existing global
// counters.  Untagged work (no ScopedPrincipal open on the thread) lands on
// the system principal {client 0, kBackground}, so the invariant holds by
// construction — nothing is ever dropped on the floor.
//
// Propagation
// -----------
// ScopedPrincipal keeps a thread-local ambient stack, exactly like
// ScopedSpan's ambient trace context: ClientFs opens one per client-visible
// op, and everything the op triggers synchronously (MDS handler time,
// network charges, scheduler submits) reads `ambient_principal()`.  Two
// places need more than the ambient:
//
//  * FormationTransport flushes a packed frame on whatever thread tripped
//    the watermark — the flusher's ambient is NOT the contributors'.  The
//    queue carries a parallel per-request principal vector, and the flush
//    wraps `call_batch` in a ScopedFramePrincipals so InprocTransport can
//    split the frame's network cost back to its contributors pro-rata by
//    bytes and dispatch each request under its contributor's identity.
//
//  * sim::IoScheduler services requests at drain time, possibly merged
//    across submitters — each DiskRequest carries its submitter's principal
//    key and submit stamp, and the drain splits the merged service time
//    pro-rata by block count (and charges queue wait per contributor).
//
// Thread-safety: the ambient stack is thread_local (no lock); Attribution
// guards its accounts with one mutex — charge sites are per RPC / per disk
// dispatch, orders of magnitude rarer than per-block work.
#pragma once

#include <cstddef>
#include <mutex>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "util/types.hpp"

namespace mif::obs {

/// What kind of work a principal is doing.  Data and metadata are priced by
/// different networks and different service paths, and the QoS story needs
/// them separable; kBackground is reserved for system work (journal replay,
/// the future scavenger) and is the class of the untagged default.
enum class OpClass : u8 {
  kData = 0,
  kMeta = 1,
  kBackground = 2,
};

std::string_view to_string(OpClass cls);

/// The accountable identity: which client, doing what class of work.  The
/// default-constructed principal {client 0, kBackground} is the *system*
/// principal — everything untagged is charged there.
struct Principal {
  u32 client{0};
  OpClass cls{OpClass::kBackground};

  constexpr u64 key() const {
    return (static_cast<u64>(client) << 8) | static_cast<u64>(cls);
  }
  static constexpr Principal from_key(u64 key) {
    return {static_cast<u32>(key >> 8), static_cast<OpClass>(key & 0xffu)};
  }
  constexpr bool system() const {
    return client == 0 && cls == OpClass::kBackground;
  }
  constexpr auto operator<=>(const Principal&) const = default;

  /// Stable display label: "system", or "client<N>.<class>".
  std::string label() const;
};

/// Innermost ScopedPrincipal on this thread; the system principal when none
/// is open.  Charge sites call this at the moment the cost is incurred.
Principal ambient_principal();

/// RAII principal tag, mirroring ScopedSpan's ambient stack.  Must be
/// destroyed on the creating thread in LIFO order.
class ScopedPrincipal {
 public:
  explicit ScopedPrincipal(Principal p);
  ~ScopedPrincipal();
  ScopedPrincipal(const ScopedPrincipal&) = delete;
  ScopedPrincipal& operator=(const ScopedPrincipal&) = delete;
};

/// Per-request principals of a coalesced frame, parallel to the request
/// vector handed to `Transport::call_batch`.  FormationTransport sets this
/// around the inner call (same thread), InprocTransport reads it to split
/// the frame's cost back to contributors.  Empty when no frame is open.
std::pair<const Principal*, std::size_t> frame_principals();

/// RAII frame-principal window (see frame_principals).  Nestable; restores
/// the outer window on destruction.
class ScopedFramePrincipals {
 public:
  ScopedFramePrincipals(const Principal* principals, std::size_t count);
  ~ScopedFramePrincipals();
  ScopedFramePrincipals(const ScopedFramePrincipals&) = delete;
  ScopedFramePrincipals& operator=(const ScopedFramePrincipals&) = delete;

 private:
  const Principal* prev_;
  std::size_t prev_count_;
};

/// Everything one principal has been charged.  All `_ms` fields are
/// simulated milliseconds on the clock of the subsystem that charged them.
struct CostAccount {
  double disk_seek_ms{0.0};
  double disk_rotation_ms{0.0};
  double disk_skip_ms{0.0};
  double disk_transfer_ms{0.0};
  double queue_wait_ms{0.0};   // scheduler submit → disk service start
  double stall_ms{0.0};        // async pipeline window backpressure
  double net_ms{0.0};          // meta + data sim::Network transfer time
  double mds_cpu_ms{0.0};      // MDS handler cpu (per-RPC + per-extent)
  double fault_delay_ms{0.0};  // injected FaultTransport delays (kept out of
                               // the disk/queue categories by construction)
  u64 net_bytes{0};
  u64 rpcs{0};
  u64 disk_requests{0};

  double disk_ms() const {
    return disk_seek_ms + disk_rotation_ms + disk_skip_ms + disk_transfer_ms;
  }
  /// Total attributed simulated time across every category.
  double total_ms() const {
    return disk_ms() + queue_wait_ms + stall_ms + net_ms + mds_cpu_ms +
           fault_delay_ms;
  }
  void add(const CostAccount& o);
  Json to_json() const;
};

/// The accounts book.  One instance per mounted cluster (attached via
/// ParallelFileSystem::set_attribution, like spans and the timeline); with
/// none attached every charge site is a null-pointer check.
class Attribution {
 public:
  void charge_disk(const Principal& p, double seek_ms, double rotation_ms,
                   double skip_ms, double transfer_ms);
  void charge_queue_wait(const Principal& p, double ms);
  void charge_stall(const Principal& p, double ms);
  void charge_net(const Principal& p, double ms, u64 bytes);
  void charge_mds(const Principal& p, double cpu_ms);
  void charge_fault_delay(const Principal& p, double ms);
  void count_rpc(const Principal& p, u64 n = 1);
  void count_disk_request(const Principal& p, u64 n = 1);

  /// Snapshot of every account, keyed by Principal::key() (deterministic
  /// iteration order — client asc, then class).
  std::map<u64, CostAccount> accounts() const;

  /// Element-wise sum over every account (the conservation comparand).
  CostAccount total() const;

  /// Jain's fairness index (Σx)²/(n·Σx²) over per-client attributed
  /// total_ms, system principal excluded.  1.0 for 0/1 clients or a
  /// perfectly even split; → 1/n as one client dominates.
  double fairness() const;

  /// {"<label>": {account...}, ...} — one entry per principal.
  Json to_json() const;

  static double jain_fairness(const std::vector<double>& xs);

 private:
  mutable std::mutex mu_;
  std::map<u64, CostAccount> accounts_;
};

}  // namespace mif::obs
