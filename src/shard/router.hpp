// shard::Router — the brain behind ShardedTransport.
//
// Owns everything the sharded metadata path needs besides envelope
// mechanics:
//
//   * the placement Map (subtree delegation / name hash);
//   * the inode tag: with >1 MDS each shard numbers inodes independently,
//     so every inode that crosses the client boundary is tagged with its
//     home shard in the top byte — data-path keys stay cluster-unique and
//     ino-keyed envelopes (report_extents) route without a lookup;
//   * the data-ino alias table: a cross-shard rename creates a NEW inode on
//     the target shard while the file's blocks stay keyed by the old one on
//     the storage targets; the alias chain redirects data envelopes so the
//     renamed file's data remains reachable (no orphaned subfiles);
//   * the rename journal: cross-shard renames are two-phase
//     (create-on-target, tombstone-on-source) and each phase is a separate
//     wire envelope a fault can kill; the journal records progress so
//     recover() can roll a half-done rename back;
//   * the §IV-C name table: under hash placement the router collects every
//     live name it has routed (the primary's name-hash set), so a lookup of
//     an absent name is answered without contacting any shard;
//   * shard.* statistics (per-shard op counts, fan-out, imbalance).
//
// Thread-safety: one mutex over all mutable state.  The metadata path is
// orders of magnitude colder than block I/O; data envelopes only touch the
// router through `has_aliases()` (an atomic flag) unless an alias exists.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "shard/map.hpp"
#include "util/types.hpp"

namespace mif::shard {

struct ShardStats {
  std::vector<u64> ops_per_shard;  // delivered metadata sub-envelopes
  u64 meta_ops{0};                 // total across shards
  u64 fanout_requests{0};  // sub-envelopes beyond one per aggregate op
  u64 renames_local{0};
  u64 renames_cross{0};
  u64 renames_recovered{0};  // half-done renames rolled back by recover()
  u64 rename_failures{0};    // cross-shard renames that lost a phase
  u64 avoided_rpcs{0};  // lookups of absent names answered by the name table
  /// Load imbalance: max per-shard op count over the per-shard mean
  /// (1.0 = perfectly balanced; kShards = everything on one shard).
  double imbalance() const;
};

/// One cross-shard rename's journal record.
struct RenameRecord {
  enum class State : u8 {
    kPending,    // begun, target entry not yet created
    kCreated,    // created on target, source tombstone still outstanding
    kCommitted,  // both phases done
    kAborted,    // rolled back (phase-1 failure or recover())
  };
  u64 seq{0};
  std::string from;
  std::string to;
  u32 src_shard{0};
  u32 dst_shard{0};
  InodeNo src_ino{};  // shard-local ino of the source entry
  InodeNo dst_ino{};  // shard-local ino created on the target (phase 1)
  State state{State::kPending};
};

class Router {
 public:
  Router(u32 shards, Policy policy) : map_(shards, policy) {
    ops_per_shard_.assign(shards, 0);
  }

  u32 shards() const { return map_.shards(); }
  Policy policy() const { return map_.policy(); }

  // --- inode tagging -------------------------------------------------------
  // Top byte carries (shard + 1); 0 marks an untagged number so a stray
  // untagged ino routes to shard 0 instead of aliasing shard 255's.  The
  // embedded composite (dir id << 32 | slot) stays well below bit 56 for any
  // simulated namespace; tag() asserts it in debug builds.
  static constexpr u32 kTagShift = 56;

  static InodeNo tag(u32 shard, InodeNo local);
  static u32 shard_of(InodeNo tagged) {
    const u64 hi = tagged.v >> kTagShift;
    return hi == 0 ? 0 : static_cast<u32>(hi - 1);
  }
  static InodeNo untag(InodeNo tagged) {
    return InodeNo{tagged.v & ((u64{1} << kTagShift) - 1)};
  }

  // --- routing -------------------------------------------------------------
  u32 route_path(std::string_view path) {
    std::lock_guard lock(mu_);
    return map_.owner_of(path);
  }
  /// Delegate the top-level directory of `path` (subtree policy, mkdir of a
  /// depth-1 directory) and return its home shard.
  u32 delegate_top_level(std::string_view name) {
    std::lock_guard lock(mu_);
    return map_.delegate(name);
  }
  /// True when `path`'s aggregate listing must ask every shard: always
  /// under hash placement (children scatter), and for the root directory
  /// under subtree placement (top-level entries live with their subtrees).
  bool needs_fanout(std::string_view path) const;

  // --- §IV-C name table (hash placement only) -----------------------------
  // Keyed by canonical path.  A name is live when its owner shard holds it;
  // the table must never miss a live name, so every namespace change the
  // transport makes is reported here.  Under subtree placement the table is
  // unused: nothing is filtered and the notes below do nothing.

  /// True when hash placement knows `path` is absent: the miss is counted in
  /// avoided_rpcs and the caller answers kNotFound without an envelope.
  bool filters_miss(std::string_view path);
  /// True for a directory the hash policy mirrored to every shard.
  bool mirrored_dir(std::string_view path) const;
  void note_created(std::string_view path, bool dir);
  void note_removed(std::string_view path);
  /// A rename executed by one envelope on `shard`: that shard moved its own
  /// copy of `from` and of everything it holds beneath it.
  void note_renamed(std::string_view from, std::string_view to, u32 shard);

  // --- data-ino aliases ----------------------------------------------------
  bool has_aliases() const {
    return has_aliases_.load(std::memory_order_relaxed);
  }
  void add_alias(InodeNo renamed, InodeNo original);
  /// Follow the alias chain to the ino the storage targets actually key the
  /// file's blocks by.
  InodeNo data_ino(InodeNo ino) const;

  // --- rename journal ------------------------------------------------------
  u64 journal_begin(std::string_view from, std::string_view to, u32 src,
                    u32 dst, InodeNo src_ino);
  void journal_created(u64 seq, InodeNo dst_ino);
  void journal_commit(u64 seq);
  void journal_abort(u64 seq);
  /// Records stuck in kCreated: phase 1 landed, phase 2 was lost.
  std::vector<RenameRecord> pending_renames() const;
  std::vector<RenameRecord> journal_snapshot() const;

  // --- statistics ----------------------------------------------------------
  void count_op(u32 shard);
  void count_fanout(u64 extra_requests);
  void count_rename(bool cross);
  void count_rename_failure();
  void count_rename_recovered();
  ShardStats stats() const;

 private:
  RenameRecord* find_record(u64 seq);

  bool hashed() const { return map_.policy() == Policy::kHash; }

  /// Lets the name table be probed with a string_view key.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return static_cast<std::size_t>(hash_of(key));
    }
  };

  mutable std::mutex mu_;
  Map map_;
  /// Live canonical names -> is a mirrored directory (hash placement).
  std::unordered_map<std::string, bool, NameHash, std::equal_to<>> names_;
  std::unordered_map<u64, u64> aliases_;  // renamed ino.v -> original ino.v
  std::atomic<bool> has_aliases_{false};
  std::vector<RenameRecord> journal_;
  u64 next_seq_{1};
  std::vector<u64> ops_per_shard_;
  u64 fanout_requests_{0};
  u64 renames_local_{0};
  u64 renames_cross_{0};
  u64 renames_recovered_{0};
  u64 rename_failures_{0};
  u64 avoided_rpcs_{0};
};

}  // namespace mif::shard
