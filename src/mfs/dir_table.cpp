#include "mfs/dir_table.hpp"

#include "mfs/inode.hpp"

namespace mif::mfs {

DirId DirectoryTable::register_directory(InodeNo dir_inode) {
  std::lock_guard lock(mu_);
  const DirId id{next_id_++};
  table_[id] = dir_inode;
  return id;
}

Result<InodeNo> DirectoryTable::directory_inode(DirId id) const {
  std::lock_guard lock(mu_);
  auto it = table_.find(id);
  if (it == table_.end()) return Errc::kNotFound;
  return it->second;
}

Status DirectoryTable::update(DirId id, InodeNo new_inode) {
  std::lock_guard lock(mu_);
  auto it = table_.find(id);
  if (it == table_.end()) return Errc::kNotFound;
  it->second = new_inode;
  return {};
}

Status DirectoryTable::unregister(DirId id) {
  std::lock_guard lock(mu_);
  return table_.erase(id) ? Status{} : Status{Errc::kNotFound};
}

Result<std::vector<InodeNo>> DirectoryTable::resolve_chain(
    InodeNo composite) const {
  std::vector<InodeNo> chain;
  InodeNo cur = composite;
  // Bounded walk: directory trees deeper than this indicate a cycle bug.
  for (int depth = 0; depth < 4096; ++depth) {
    const DirId dir = EmbeddedInodeNo::dir_of(cur);
    if (dir.v == 0) return chain;  // reached the root
    auto parent = directory_inode(dir);
    if (!parent) return parent.error();
    chain.push_back(*parent);
    cur = *parent;
  }
  return Errc::kInvalid;
}

std::size_t DirectoryTable::size() const {
  std::lock_guard lock(mu_);
  return table_.size();
}

}  // namespace mif::mfs
