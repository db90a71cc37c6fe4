// Striped redundancy: replicated layouts, per-target health, and the
// replica-subfile naming scheme the degraded-read and repair paths share.
//
// Policy (N-way replication per stripe unit)
// ------------------------------------------
// A stripe unit owned by primary target p keeps copy c (1..replicas-1) on
// target (p + c) % width, at the SAME local block addresses the primary
// uses.  The copy lives in a *replica subfile*: the primary's inode with a
// copy tag in bits 48..55 (the shard router owns 56..63, see
// shard/placement).  That tag IS the rpc envelope's replica-target
// annotation — every envelope carries an InodeNo either way, so wire sizes,
// Formation coalescing keys ((ino, stream) never mixes a copy with its
// primary) and QoS deferrable-data classification all work unchanged.
//
// Keeping local addresses identical across copies is what makes the
// degraded paths trivial: re-routing a run from a dead primary to a
// surviving copy only swaps (target, ino) — the run list is reused verbatim
// — and repair can rebuild a lost subfile by reading a copy's extents and
// replaying their logical runs onto the replacement disk.
//
// Placement queries go through copy_target()/copies() rather than
// open-coded `replicas - 1` arithmetic at call sites, so a k+m parity flavor
// would change the Policy, not its callers.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <string>

#include "osd/striping.hpp"
#include "util/types.hpp"

namespace mif::redundancy {

struct Policy {
  /// Total copies of every stripe unit, primary included.  1 (default) =
  /// redundancy off: nothing in the data path changes, byte-identical.
  u32 replicas{1};

  bool enabled() const { return replicas >= 2; }
  /// Redundant copies per stripe unit (excludes the primary).
  u32 copies() const { return enabled() ? replicas - 1 : 0; }
};

/// "" when the policy is mountable over `width` targets; otherwise the
/// reason (same contract as rpc::validate / obs::validate).
std::string validate(const Policy& p, u32 width);

// --- replica subfile naming --------------------------------------------------

/// Copy tag: bits 48..55 hold (copy index + 1); 0 = the primary subfile.
inline constexpr u32 kCopyShift = 48;
inline constexpr u64 kCopyMask = u64{0xff} << kCopyShift;

/// The replica subfile's inode for copy `c` (1-based: 1..replicas-1) of
/// `primary`.
constexpr InodeNo replica_ino(InodeNo primary, u32 copy) {
  return InodeNo{(primary.v & ~kCopyMask) |
                 (u64{copy + 1} << kCopyShift)};
}

constexpr bool is_replica(InodeNo ino) { return (ino.v & kCopyMask) != 0; }

/// 1-based copy index of a replica subfile inode (0 for a primary).
constexpr u32 copy_of(InodeNo ino) {
  const u32 tag = static_cast<u32>((ino.v & kCopyMask) >> kCopyShift);
  return tag == 0 ? 0 : tag - 1;
}

/// The primary inode a (possibly tagged) subfile inode belongs to.
constexpr InodeNo primary_ino(InodeNo ino) {
  return InodeNo{ino.v & ~kCopyMask};
}

/// Owning target of copy `c` (1..replicas-1) of a stripe unit whose primary
/// lives on `primary_target` (delegates to the stripe layout's rotation —
/// placement is the layout's decision, not the redundancy layer's).
inline u32 copy_target(const osd::StripeLayout& layout, u32 primary_target,
                       u32 copy) {
  return osd::replica_target(layout, primary_target, copy);
}

// --- per-target health -------------------------------------------------------

/// Sticky per-target liveness, shared by the FaultTransport kill mode, the
/// client's degraded routing and the repair service.  Lock-free (a 64-bit
/// dead mask) because every client issue polls it; capacity is therefore 64
/// targets — far above any mount this harness builds.
class HealthMap {
 public:
  void resize(std::size_t num_targets) {
    assert(num_targets <= 64);
    n_ = num_targets;
  }
  std::size_t size() const { return n_; }

  void mark_dead(u32 target) {
    const u64 prev = dead_.fetch_or(bit(target), std::memory_order_acq_rel);
    if ((prev & bit(target)) == 0)
      deaths_.fetch_add(1, std::memory_order_relaxed);
  }
  void mark_alive(u32 target) {
    dead_.fetch_and(~bit(target), std::memory_order_acq_rel);
  }

  bool alive(u32 target) const {
    return (dead_.load(std::memory_order_acquire) & bit(target)) == 0;
  }
  bool any_dead() const {
    return dead_.load(std::memory_order_acquire) != 0;
  }
  u32 dead_count() const {
    u64 m = dead_.load(std::memory_order_acquire);
    u32 n = 0;
    for (; m; m &= m - 1) ++n;
    return n;
  }
  /// Cumulative kill events (sticky even after repair revives the target).
  u64 deaths() const { return deaths_.load(std::memory_order_relaxed); }

 private:
  static constexpr u64 bit(u32 t) { return u64{1} << (t & 63); }
  std::atomic<u64> dead_{0};
  std::atomic<u64> deaths_{0};
  std::size_t n_{0};
};

/// Cluster-wide redundancy counters (exported as `redundancy.*` only when
/// the policy is mounted — default reports stay byte-identical).  Atomic:
/// several client sessions may route concurrently.
struct Stats {
  /// Reads re-routed from a dead primary to a surviving copy.
  std::atomic<u64> degraded_reads{0};
  /// Replica-copy write envelopes fanned out by clients.
  std::atomic<u64> replica_writes{0};
  /// Writes that skipped a dead target (the surviving copies carried them).
  std::atomic<u64> degraded_writes{0};
  /// Routes with no surviving copy — the client-visible kIo data-loss case.
  std::atomic<u64> lost_routes{0};
};

}  // namespace mif::redundancy
