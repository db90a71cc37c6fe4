#include "shard/router.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

#include "mfs/mfs.hpp"

namespace mif::shard {

double ShardStats::imbalance() const {
  if (ops_per_shard.empty() || meta_ops == 0) return 1.0;
  const u64 peak = *std::max_element(ops_per_shard.begin(),
                                     ops_per_shard.end());
  const double mean =
      static_cast<double>(meta_ops) / static_cast<double>(ops_per_shard.size());
  return mean > 0.0 ? static_cast<double>(peak) / mean : 1.0;
}

InodeNo Router::tag(u32 shard, InodeNo local) {
  assert(local.v >> kTagShift == 0 && "shard-local ino overflows the tag");
  return InodeNo{local.v | (static_cast<u64>(shard) + 1) << kTagShift};
}

bool Router::needs_fanout(std::string_view path) const {
  if (map_.policy() == Policy::kHash) return true;
  // Subtree placement: only the root's own listing spans shards — every
  // top-level entry lives on the shard its subtree was delegated to.
  return mfs::split_path(path).empty();
}

bool Router::filters_miss(std::string_view path) {
  if (!hashed()) return false;
  std::string buf;
  const std::string_view key = canonical(path, buf);
  if (key.empty()) return false;  // the root is always live
  std::lock_guard lock(mu_);
  if (names_.contains(key)) return false;
  ++avoided_rpcs_;
  return true;
}

bool Router::mirrored_dir(std::string_view path) const {
  if (!hashed()) return false;
  std::string buf;
  const std::string_view key = canonical(path, buf);
  std::lock_guard lock(mu_);
  const auto it = names_.find(key);
  return it != names_.end() && it->second;
}

void Router::note_created(std::string_view path, bool dir) {
  if (!hashed()) return;
  std::string buf;
  std::string key(canonical(path, buf));
  std::lock_guard lock(mu_);
  names_.insert_or_assign(std::move(key), dir);
}

void Router::note_removed(std::string_view path) {
  if (!hashed()) return;
  std::string buf;
  const std::string_view key = canonical(path, buf);
  std::lock_guard lock(mu_);
  if (const auto it = names_.find(key); it != names_.end()) names_.erase(it);
}

void Router::note_renamed(std::string_view from, std::string_view to,
                          u32 shard) {
  if (!hashed()) return;
  std::string src_buf, dst_buf;
  const std::string_view src = canonical(from, src_buf);
  const std::string_view dst = canonical(to, dst_buf);
  std::lock_guard lock(mu_);
  const auto it = names_.find(src);
  if (it == names_.end()) return;
  if (!it->second) {  // a file moves alone
    names_.erase(it);
    names_.insert_or_assign(std::string(dst), false);
    return;
  }
  // A directory: `shard` renamed only its own mirror, carrying the entries
  // it holds beneath it (every mirrored directory, and the files it owns).
  // The other mirrors keep the old name and their files stay live there.
  // A moved entry stops being live if `shard` owned it, and its new name is
  // live if `shard` owns that.
  std::vector<std::pair<std::string, bool>> moved;
  for (auto e = names_.begin(); e != names_.end();) {
    const std::string& key = e->first;
    const bool beneath =
        key.starts_with(src) &&
        (key.size() == src.size() || key[src.size()] == '/');
    const bool owned = beneath && map_.owner_of(key) == shard;
    if (!beneath || !(owned || e->second)) {  // `shard` holds no copy
      ++e;
      continue;
    }
    std::string renamed = std::string(dst) + key.substr(src.size());
    if (map_.owner_of(renamed) == shard) {
      moved.emplace_back(std::move(renamed), e->second);
    }
    e = owned ? names_.erase(e) : std::next(e);
  }
  for (auto& [key, dir] : moved) names_.insert_or_assign(std::move(key), dir);
}

void Router::add_alias(InodeNo renamed, InodeNo original) {
  std::lock_guard lock(mu_);
  aliases_[renamed.v] = original.v;
  has_aliases_.store(true, std::memory_order_relaxed);
}

InodeNo Router::data_ino(InodeNo ino) const {
  std::lock_guard lock(mu_);
  u64 v = ino.v;
  for (auto it = aliases_.find(v); it != aliases_.end();
       it = aliases_.find(v)) {
    v = it->second;
  }
  return InodeNo{v};
}

u64 Router::journal_begin(std::string_view from, std::string_view to, u32 src,
                          u32 dst, InodeNo src_ino) {
  std::lock_guard lock(mu_);
  RenameRecord rec;
  rec.seq = next_seq_++;
  rec.from = std::string(from);
  rec.to = std::string(to);
  rec.src_shard = src;
  rec.dst_shard = dst;
  rec.src_ino = src_ino;
  journal_.push_back(std::move(rec));
  return journal_.back().seq;
}

RenameRecord* Router::find_record(u64 seq) {
  for (auto& rec : journal_) {
    if (rec.seq == seq) return &rec;
  }
  return nullptr;
}

void Router::journal_created(u64 seq, InodeNo dst_ino) {
  std::lock_guard lock(mu_);
  if (auto* rec = find_record(seq)) {
    rec->dst_ino = dst_ino;
    rec->state = RenameRecord::State::kCreated;
  }
}

void Router::journal_commit(u64 seq) {
  std::lock_guard lock(mu_);
  if (auto* rec = find_record(seq)) rec->state = RenameRecord::State::kCommitted;
}

void Router::journal_abort(u64 seq) {
  std::lock_guard lock(mu_);
  if (auto* rec = find_record(seq)) rec->state = RenameRecord::State::kAborted;
}

std::vector<RenameRecord> Router::pending_renames() const {
  std::lock_guard lock(mu_);
  std::vector<RenameRecord> out;
  for (const auto& rec : journal_) {
    if (rec.state == RenameRecord::State::kCreated) out.push_back(rec);
  }
  return out;
}

std::vector<RenameRecord> Router::journal_snapshot() const {
  std::lock_guard lock(mu_);
  return journal_;
}

void Router::count_op(u32 shard) {
  std::lock_guard lock(mu_);
  if (shard < ops_per_shard_.size()) ++ops_per_shard_[shard];
}

void Router::count_fanout(u64 extra_requests) {
  std::lock_guard lock(mu_);
  fanout_requests_ += extra_requests;
}

void Router::count_rename(bool cross) {
  std::lock_guard lock(mu_);
  if (cross) {
    ++renames_cross_;
  } else {
    ++renames_local_;
  }
}

void Router::count_rename_failure() {
  std::lock_guard lock(mu_);
  ++rename_failures_;
}

void Router::count_rename_recovered() {
  std::lock_guard lock(mu_);
  ++renames_recovered_;
}

ShardStats Router::stats() const {
  std::lock_guard lock(mu_);
  ShardStats s;
  s.ops_per_shard = ops_per_shard_;
  for (const u64 n : ops_per_shard_) s.meta_ops += n;
  s.fanout_requests = fanout_requests_;
  s.renames_local = renames_local_;
  s.renames_cross = renames_cross_;
  s.renames_recovered = renames_recovered_;
  s.rename_failures = rename_failures_;
  s.avoided_rpcs = avoided_rpcs_;
  return s;
}

}  // namespace mif::shard
