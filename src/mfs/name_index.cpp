#include "mfs/name_index.hpp"

#include <algorithm>

namespace mif::mfs {

u64 name_hash(std::string_view name) {
  u64 h = 0xcbf29ce484222325ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool NameIndex::insert(std::string_view name, u64 ordinal) {
  return map_.emplace(std::string(name), ordinal).second;
}

std::optional<u64> NameIndex::find(std::string_view name) const {
  auto it = map_.find(name);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

bool NameIndex::erase(std::string_view name) {
  // C++20 has no heterogeneous erase(key): find with the view, erase by it.
  auto it = map_.find(name);
  if (it == map_.end()) return false;
  map_.erase(it);
  return true;
}

u64 NameIndex::lookup_block_cost(LookupDiscipline d, u64 blocks,
                                 u64 found_in) {
  if (blocks == 0) return 0;
  switch (d) {
    case LookupDiscipline::kLinearScan:
      // Scans from the first dirent block up to and including the hit.
      return std::min(found_in + 1, blocks);
    case LookupDiscipline::kHtree:
      // Htree root is resident with the directory inode; one leaf probe.
      return 1;
  }
  return 1;
}

}  // namespace mif::mfs
