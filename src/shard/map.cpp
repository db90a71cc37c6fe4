#include "shard/map.hpp"

#include "mfs/mfs.hpp"
#include "mfs/name_index.hpp"

namespace mif::shard {

std::string_view to_string(Policy p) {
  switch (p) {
    case Policy::kSubtree: return "subtree";
    case Policy::kHash: return "hash";
  }
  return "?";
}

u64 hash_of(std::string_view key) { return mfs::name_hash(key); }

std::string_view canonical(std::string_view path, std::string& buf) {
  if (path.empty() || (path.front() != '/' && path.back() != '/' &&
                       path.find("//") == std::string_view::npos)) {
    return path;
  }
  buf.clear();
  for (std::string_view part : mfs::split_path(path)) {
    if (!buf.empty()) buf += '/';
    buf += part;
  }
  return buf;
}

u32 Map::delegate(std::string_view top_level) {
  const auto [it, inserted] =
      delegation_.emplace(std::string(top_level), next_delegate_ % shards_);
  if (inserted) ++next_delegate_;
  return it->second;
}

u32 Map::home_of(std::string_view path) const {
  const auto parts = mfs::split_path(path);
  if (parts.empty()) return 0;  // the root itself
  const auto it = delegation_.find(std::string(parts.front()));
  return it == delegation_.end() ? 0 : it->second;
}

}  // namespace mif::shard
