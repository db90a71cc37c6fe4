// Traditional directory layout (Fig. 1(b)): dirent blocks in the data area,
// inodes in a dedicated inode-table region, layout mappings spilled to
// overflow blocks allocated from the data area.  Performing a stat touches
// the dirent block AND the inode-table block; a getlayout may add mapping
// blocks — each in a different disk region, hence the positioning traffic
// MiF attacks.
//
// In memory, each directory keeps an ordinal-indexed slot vector and its
// NameIndex (which owns the names).  The inodes live in one table indexed by
// inode number: numbers come from a counter and are never reused, so a
// vector maps each number ever issued to a record (4 B per number), and the
// records sit in fixed-size chunks, recycled through a free list, so an
// Inode* from find() stays valid until its inode is unlinked.  A record
// also holds the inode's linkage — the directory and ordinal of the dirent
// naming it.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>

#include "mfs/layout.hpp"

namespace mif::mfs {

class NormalDirLayout final : public DirLayout {
 public:
  /// Blocks reserved for the inode table region (16 inodes each).
  static constexpr u64 kInodeTableBlocks = 16384;  // 256 K inodes

  explicit NormalDirLayout(MdsContext ctx);

  DirectoryMode mode() const override { return DirectoryMode::kNormal; }

  Result<InodeNo> make_root() override;
  Result<InodeNo> mkdir(InodeNo parent, std::string_view name) override;
  Result<InodeNo> create(InodeNo parent, std::string_view name) override;
  Result<InodeNo> lookup(InodeNo dir, std::string_view name) override;
  Status stat(InodeNo ino) override;
  Status utime(InodeNo ino) override;
  Result<std::vector<DirEntry>> readdir(InodeNo dir, bool plus) override;
  Status unlink(InodeNo dir, std::string_view name) override;
  Result<InodeNo> rename(InodeNo src_dir, std::string_view src_name,
                         InodeNo dst_dir, std::string_view dst_name) override;
  Status sync_layout(InodeNo file, u64 extent_count) override;
  Status getlayout(InodeNo file) override;
  Inode* find(InodeNo ino) override;
  InodeNo root() const override { return root_; }
  NamespaceVerifyReport verify() const override;
  void scan_fragmentation(
      const std::function<void(u64)>& file_cb,
      const std::function<void(double, u64)>& dir_cb) const override;

 private:
  struct Slot {
    InodeNo ino{};
    FileType type{FileType::kFile};
  };
  struct DirState {
    std::vector<DiskBlock> dirent_blocks;
    std::vector<std::optional<Slot>> slots;  // ordinal-indexed
    std::vector<u64> free_ordinals;
    NameIndex index;  // name -> ordinal, and the names themselves
    u64 live_entries{0};
    // ext3-style per-directory block reservation for dirent growth, so each
    // directory's dirent blocks cluster with their own window instead of
    // interleaving block-by-block with every other growing directory.
    DiskBlock reserve_next{};
    u64 reserve_left{0};
  };

  /// An inode and its linkage: the directory and ordinal of its dirent.
  struct Record {
    Inode inode;
    InodeNo parent{};
    u64 ordinal{0};
  };
  static constexpr u32 kChunkRecords = 256;

  Result<InodeNo> create_common(InodeNo parent, std::string_view name,
                                FileType type);
  DirState* dir_state(InodeNo dir);
  /// Next ordinal a new entry of `d` takes: the most recently freed one,
  /// else one past the end.
  static u64 next_ordinal(const DirState& d);
  /// Claim `ordinal` (just returned by next_ordinal) for a new entry.
  static void take_ordinal(DirState& d, u64 ordinal);
  /// Live record of `ino`, or nullptr.
  Record* record(InodeNo ino);
  const Record* record(InodeNo ino) const;
  /// Issue the next inode number, with a fresh record.
  Record& new_record();
  void drop_record(InodeNo ino);
  DiskBlock inode_block_of(InodeNo ino) const;
  /// Ensure the dirent block covering `ordinal` exists; returns it.
  Result<DiskBlock> ensure_dirent_block(DirState& d, u64 ordinal);
  /// Read the dirent block holding `ordinal` (1 block through the cache).
  void read_dirent_block(DirState& d, u64 ordinal);

  DiskBlock table_base_{};
  DiskBlock ibitmap_block_{};
  DiskBlock gdesc_block_{};
  InodeNo root_{};
  std::unordered_map<u64, DirState> dirs_;
  /// Inode number -> record index + 1 (0: no live inode).  Its size is the
  /// next number to issue.
  std::vector<u32> record_of_{0};
  std::vector<std::unique_ptr<Record[]>> chunks_;
  u32 records_used_{0};  // records ever carved out of chunks_
  std::vector<u32> free_records_;
};

}  // namespace mif::mfs
