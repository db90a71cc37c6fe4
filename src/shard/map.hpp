// shard::Map — the one placement policy of the multi-MDS namespace.
//
// The paper's §IV-C/§IV-D clusters place metadata two ways:
//   * kSubtree — a directory and everything beneath it live on the shard its
//     top-level directory was delegated to (round-robin at mkdir time).
//     Locality preserved: an aggregated readdirplus touches ONE shard.
//   * kHash   — every path is placed by a stable name hash.  Load spread
//     evenly, locality sacrificed: aggregates must fan out to every shard
//     (the limitation Sears & van Ingen call out for hashed placement).
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>

#include "util/types.hpp"

namespace mif::shard {

enum class Policy : u8 {
  kSubtree,  // a directory's files live with the directory
  kHash,     // every path is placed by hash of its full name
};
std::string_view to_string(Policy p);

/// The cluster-wide placement hash (FNV-1a, stable across runs and
/// processes).  Every shard-owner decision uses this one function, so two
/// components never disagree about an owner.
u64 hash_of(std::string_view key);

/// The spelling-independent form of a path: its mfs::split_path components
/// joined by '/', with no leading or trailing slash ("" is the root), so
/// "/d/f", "d/f" and "d//f/" all name "d/f".  Returns `path` itself when it
/// is already in that form, else the form built in `buf`.
std::string_view canonical(std::string_view path, std::string& buf);

class Map {
 public:
  Map(u32 shards, Policy policy) : shards_(shards), policy_(policy) {}

  u32 shards() const { return shards_; }
  Policy policy() const { return policy_; }

  /// Delegate a top-level directory round-robin (idempotent: re-delegating
  /// an assigned name keeps its shard).  Returns the home shard.
  u32 delegate(std::string_view top_level);

  /// Home shard of the subtree containing `path`: the delegation of its
  /// top-level component, shard 0 for the root and undelegated names.
  u32 home_of(std::string_view path) const;

  /// Placement of `path` under the configured policy; hash placement hashes
  /// the canonical form, so every spelling of a path has one owner.
  u32 owner_of(std::string_view path) const {
    if (policy_ == Policy::kSubtree) return home_of(path);
    std::string buf;
    return static_cast<u32>(hash_of(canonical(path, buf)) % shards_);
  }

  bool delegated(std::string_view top_level) const {
    return delegation_.find(std::string(top_level)) != delegation_.end();
  }

 private:
  u32 shards_;
  Policy policy_;
  /// Subtree policy: top-level directory name -> shard.
  std::unordered_map<std::string, u32> delegation_;
  u32 next_delegate_{0};
};

}  // namespace mif::shard
