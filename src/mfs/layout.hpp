// Directory-layout engine interface.
//
// The metadata file system supports two on-disk organisations of the same
// namespace (§IV vs the traditional scheme of Fig. 1(b)):
//   * NormalDirLayout   — dirent blocks in the data area + a separate inode
//                         table region + mapping overflow blocks wherever the
//                         allocator had room;
//   * EmbeddedDirLayout — inodes and layout mappings live inside the
//                         directory's (preallocated, contiguous) content.
//
// A layout engine is responsible for (a) maintaining the in-memory namespace
// and (b) issuing the *block traffic* every operation causes, through the
// buffer cache and journal it is given.  Benches read traffic from the
// underlying disk/scheduler/journal counters.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "block/buffer_cache.hpp"
#include "block/free_space.hpp"
#include "block/journal.hpp"
#include "mfs/inode.hpp"
#include "mfs/name_index.hpp"
#include "sim/readahead.hpp"
#include "util/result.hpp"

namespace mif::mfs {

enum class DirectoryMode { kNormal, kEmbedded };
std::string_view to_string(DirectoryMode m);

/// Everything a layout engine needs from the MDS storage stack.
struct MdsContext {
  block::BufferCache& cache;
  block::Journal& journal;
  block::FreeSpace& space;  // data area of the MDS disk
  LookupDiscipline discipline{LookupDiscipline::kLinearScan};
};

struct DirEntry {
  std::string name;
  InodeNo ino{};
  FileType type{FileType::kFile};
};

/// fsck-style namespace integrity report (see DirLayout::verify).
struct NamespaceVerifyReport {
  u64 inodes{0};
  u64 directories{0};
  u64 metadata_blocks{0};   // distinct on-disk blocks owned by the namespace
  bool blocks_unique{true}; // no metadata block claimed twice
  bool links_consistent{true};  // every entry's inode exists & points back
  bool dirs_reachable{true};    // every directory reachable from the root
  bool ok() const {
    return blocks_unique && links_consistent && dirs_reachable;
  }
};

struct LayoutOpStats {
  u64 creates{0};
  u64 lookups{0};
  u64 stats_ops{0};
  u64 utimes{0};
  u64 readdirs{0};
  u64 unlinks{0};
  u64 renames{0};
  u64 getlayouts{0};
  u64 layout_syncs{0};
};

class DirLayout {
 public:
  explicit DirLayout(MdsContext ctx) : ctx_(ctx) {}
  virtual ~DirLayout() = default;

  DirLayout(const DirLayout&) = delete;
  DirLayout& operator=(const DirLayout&) = delete;

  virtual DirectoryMode mode() const = 0;

  /// Create the root directory; must be the first call on a fresh layout.
  virtual Result<InodeNo> make_root() = 0;

  virtual Result<InodeNo> mkdir(InodeNo parent, std::string_view name) = 0;
  virtual Result<InodeNo> create(InodeNo parent, std::string_view name) = 0;
  virtual Result<InodeNo> lookup(InodeNo dir, std::string_view name) = 0;

  /// Touch the disk blocks a stat of `ino` reads (the caller already knows
  /// `dir` from the preceding lookup — stat cost excludes the name lookup).
  virtual Status stat(InodeNo ino) = 0;

  /// Update mtime: read-modify-write of the inode's home block, journaled.
  virtual Status utime(InodeNo ino) = 0;

  /// List a directory.  `plus` = readdirplus: also bring every child's inode
  /// (and, embedded mode, its stuffed mapping) into cache — the aggregated
  /// op modern PFS protocols issue (§II-A2).
  virtual Result<std::vector<DirEntry>> readdir(InodeNo dir, bool plus) = 0;

  virtual Status unlink(InodeNo dir, std::string_view name) = 0;

  /// Move src_dir/src_name to dst_dir/dst_name.  Returns the file's inode
  /// number AFTER the move (embedded mode re-numbers, §IV-B).
  virtual Result<InodeNo> rename(InodeNo src_dir, std::string_view src_name,
                                 InodeNo dst_dir,
                                 std::string_view dst_name) = 0;

  /// Persist a grown layout mapping for `file` now holding `extent_count`
  /// extents (called by the MDS when storage targets report new extents).
  /// Allocates overflow mapping blocks as needed.
  virtual Status sync_layout(InodeNo file, u64 extent_count) = 0;

  /// Read the blocks a getlayout (open aggregation) touches.
  virtual Status getlayout(InodeNo file) = 0;

  /// In-memory inode, or nullptr.  Embedded mode resolves stale (pre-rename)
  /// numbers transparently.
  virtual Inode* find(InodeNo ino) = 0;

  virtual InodeNo root() const = 0;

  /// Walk every structure and check the on-disk invariants (block ownership
  /// uniqueness, entry↔inode consistency, every directory reachable from
  /// the root).  Cheap enough to run inside tests after every scenario.
  virtual NamespaceVerifyReport verify() const = 0;

  /// Visit the live namespace for the fragmentation lens (obs/fraglens.hpp):
  /// `file_cb` receives every live regular file's last-synced extent count;
  /// `dir_cb` receives every directory's fragmentation degree (§III —
  /// extents per live child file) and its live file count.  Pure in-memory
  /// walk: no block traffic, no clock movement, so sampling cannot perturb
  /// the modeled timeline.
  virtual void scan_fragmentation(
      const std::function<void(u64)>& file_cb,
      const std::function<void(double, u64)>& dir_cb) const = 0;

  const LayoutOpStats& op_stats() const { return stats_; }

 protected:
  MdsContext ctx_;
  LayoutOpStats stats_;
};

}  // namespace mif::mfs
