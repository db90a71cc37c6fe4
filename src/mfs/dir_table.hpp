// Global directory table (§IV-B).
//
// Embedded directories break the direct inode-number → disk-location
// translation, so MiF introduces a dedicated table: "on creating a new
// directory, the new directory inode number is mapped to a unique directory
// identification and this mapping is stored into the global directory
// table."  Locating an inode by number walks: dir-id portion → parent
// directory inode number → (recursively) up to the root.
#pragma once

#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/result.hpp"
#include "util/types.hpp"

namespace mif::mfs {

class DirectoryTable {
 public:
  /// Registers a new directory and returns its fresh id.  `dir_inode` is the
  /// directory's own inode number.
  DirId register_directory(InodeNo dir_inode);

  /// The directory inode number for a given id.
  Result<InodeNo> directory_inode(DirId id) const;

  /// Re-point an existing id at a new inode number (directory rename: the
  /// id is stable, the composite number is not).
  Status update(DirId id, InodeNo new_inode);

  /// Remove a directory (rmdir).  Ids are never reused — management tools
  /// may still hold stale inode numbers and must get kNotFound, not a
  /// recycled directory.
  Status unregister(DirId id);

  /// Resolve the chain of parent-directory inode numbers from a composite
  /// inode number up to the root (§IV-B "tracking back recursively").  The
  /// returned vector is ordered [immediate parent, ..., root].  Each step
  /// maps the number's directory id to that directory's own number, whose
  /// id in turn names the directory holding it; the root's number carries
  /// the reserved id 0.
  Result<std::vector<InodeNo>> resolve_chain(InodeNo composite) const;

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<DirId, InodeNo> table_;
  u32 next_id_{1};  // id 0 reserved as "invalid"
};

}  // namespace mif::mfs
