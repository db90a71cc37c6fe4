// Online rebuild of a killed storage target from its surviving replicas.
//
// Driven at safe points on the simulated clock — the same hook discipline
// as the flight recorder: core::ParallelFileSystem pumps the service from
// tick_timeline() (workload loop boundaries) and loops it to completion in
// drain_data() (phase/unmount boundary), never from threaded data-path
// internals.  Each pump rebuilds a bounded number of files, so foreground
// traffic keeps flowing between pumps and the timeline gauges show the
// rebuild ramp.
//
// What a rebuild does, for dead target d of width W with R-way replication:
//   * d's primary subfiles: the data survives as replica copies c on
//     targets (d+c)%W, whose extents' logical runs ARE d's local addresses
//     (the invariant redundancy.hpp establishes).  Read them from the first
//     surviving copy via list-I/O, write them back to d's primary subfile.
//   * d's replica subfiles: copy c on d backs the primary on (d+W-c)%W;
//     re-read that primary's extents and replay them into replica_ino.
// Missing-run computation subtracts what d already holds, so repair is
// idempotent and converges while foreground writes keep landing.  The
// replacement disk is freshly formatted, and the missing runs are written
// in sorted, merged order — the allocator lays them out contiguously, so
// repair DE-fragments rather than re-fragments (the Sears/van Ingen
// regression the issue calls out).
//
// Every envelope the service issues runs under the reserved background
// principal (the system principal {client 0, kBackground}), so the
// attribution ledger's conservation invariant and Jain's fairness over
// client principals hold unchanged.
//
// A mid-repair fault rolls the victim file back: the partially written
// subfile is deleted from the replacement target and the file is retried at
// the next pump, so a transient fault window never leaves a torn rebuild.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "redundancy/redundancy.hpp"

namespace mif::obs {
struct Sinks;
}
namespace mif::osd {
class StorageTarget;
}
namespace mif::rpc {
class Client;
}

namespace mif::redundancy {

struct RepairStats {
  u64 requested{0};        // kill events queued for rebuild
  u64 completed{0};        // targets fully rebuilt and revived
  u64 files_rebuilt{0};    // subfiles that received at least one run
  u64 extents_rebuilt{0};  // source extents replayed
  u64 blocks_rebuilt{0};
  u64 bytes_rebuilt{0};
  u64 rounds{0};           // pump passes that made progress
  u64 rollbacks{0};        // files rolled back after a mid-repair fault
  u64 unrecoverable{0};    // files with runs no surviving copy holds
  double completed_at_ms{-1.0};  // sim time the last rebuild finished
};

class RepairService {
 public:
  /// Runs per kWriteList/kReadList envelope when the mount sets no list-I/O
  /// chunk size.
  static constexpr u64 kDefaultRunsPerEnvelope = 64;
  /// Files rebuilt per pump() — the online granularity.
  static constexpr u32 kFilesPerPump = 4;

  /// Passes and rebuilds record `repair.pass` / `repair.rebuild` spans into
  /// the mount's attachment `sinks`.
  RepairService(osd::StripeLayout stripe, Policy policy, HealthMap& health,
                std::vector<osd::StorageTarget*> targets, rpc::Client& rpc,
                u64 max_runs_per_envelope, const obs::Sinks& sinks);

  /// Simulated clock for the completion stamp (cluster-max, wired at
  /// mount).
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }

  /// Queue target `t` for rebuild (the kill sink calls this after wiping).
  void request(u32 target);

  bool pending() const { return !queue_.empty(); }
  /// Dead targets still queued (timeline gauge).
  u64 backlog() const { return queue_.size(); }

  /// Rebuild up to kFilesPerPump subfiles of the front target; marks the
  /// target alive once a full verification pass finds nothing missing.
  /// Returns true when any progress was made.
  bool pump();
  /// Run every queued rebuild to completion (unmount/phase barrier).
  void drain();

  const RepairStats& stats() const { return stats_; }

 private:
  struct Job {
    u32 target{0};
    /// Primary inos still to visit this pass (sorted, high to low so
    /// pop_back walks ascending).
    std::vector<u64> work;
    bool enumerated{false};
    /// Blocks rebuilt in the current pass; a clean full pass completes the
    /// job.
    u64 pass_blocks{0};
    u64 pass_failures{0};
    /// Full passes taken; a job that cannot converge is abandoned.
    u32 passes{0};
  };

  /// Full-pass cap before a rebuild is abandoned (persistent faults).
  static constexpr u32 kMaxPasses = 64;

  /// All primary inos any surviving target knows about (sorted).
  std::vector<u64> survivor_inos(u32 dead) const;
  /// Rebuild both the primary and the replica subfiles file `ino` keeps on
  /// `dead`.  Returns blocks written, or a negative count on rollback.
  long long rebuild_file(u32 dead, InodeNo ino);
  /// Rebuild one subfile (`dst_ino` on `dead`) from candidate sources
  /// ({target, ino} pairs holding the same logical runs).
  long long rebuild_subfile(
      u32 dead, InodeNo dst_ino,
      const std::vector<std::pair<u32, InodeNo>>& sources);

  osd::StripeLayout stripe_;
  Policy policy_;
  HealthMap& health_;
  std::vector<osd::StorageTarget*> targets_;
  rpc::Client& rpc_;
  u64 max_runs_per_envelope_;
  const obs::Sinks& sinks_;
  std::function<double()> clock_;
  std::deque<Job> queue_;
  RepairStats stats_;
};

}  // namespace mif::redundancy
