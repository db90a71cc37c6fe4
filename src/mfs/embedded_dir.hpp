// Embedded directory layout (§IV): every file's inode AND layout mapping
// live inside the parent directory's content blocks.
//
//   * mkdir persistently preallocates content blocks for future children,
//     doubling the reservation as the directory grows;
//   * create takes a slot inside those (contiguous) blocks — no separate
//     dirent block, no inode-table block, no inode bitmap;
//   * layout mappings are stuffed in the inode tail and spill into extra
//     mapping blocks drawn from the SAME content reservation, so a
//     getlayout/readdirplus touches one contiguous region;
//   * a per-directory fragmentation degree (extents ÷ files) triggers eager
//     mapping-block preallocation at create time;
//   * unlink is lazy: freed slots batch up and are reclaimed in bulk;
//   * inode numbers encode (directory id, slot); the global directory table
//     plus a rename correlation keep number-based access working (§IV-B).
#pragma once

#include <optional>
#include <unordered_map>

#include "mfs/dir_table.hpp"
#include "mfs/layout.hpp"
#include "mfs/rename_map.hpp"

namespace mif::mfs {

struct EmbeddedLayoutConfig {
  /// Unlinked slots batched before lazy-free reclaims them (§IV-A).
  u64 lazy_free_batch{64};
};

class EmbeddedDirLayout final : public DirLayout {
 public:
  /// Content blocks persistently preallocated at mkdir (§IV-A).
  static constexpr u64 kInitialDirBlocks = 16;
  /// Reservation growth factor when the directory outgrows its content.
  static constexpr u64 kGrowthFactor = 2;
  /// Fragmentation degree (extents per file) above which creates eagerly
  /// preallocate an extra mapping block next to the inode (§IV-A).
  static constexpr double kFragDegreeThreshold = 4.0;
  /// Blocks reserved for the global directory table.
  static constexpr u64 kDirTableBlocks = 16;

  EmbeddedDirLayout(MdsContext ctx, EmbeddedLayoutConfig cfg = {});

  DirectoryMode mode() const override { return DirectoryMode::kEmbedded; }

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

  // --- introspection for tests, examples and benches --------------------
  const DirectoryTable& dir_table() const { return dir_table_; }
  RenameCorrelation& correlation() { return correlation_; }
  /// Fragmentation degree of a directory (extents per live file).
  double fragmentation_degree(InodeNo dir) const;
  /// Pending (not yet reclaimed) lazily-freed slots of a directory.
  u64 pending_lazy_frees(InodeNo dir) const;
  /// Content blocks (used + preallocated) a directory currently owns.
  u64 content_blocks(InodeNo dir) const;
  /// Resolve an inode number to the chain of parent-directory inode numbers
  /// up to the root (extra I/O path of §IV-B).
  Result<std::vector<InodeNo>> resolve_by_number(InodeNo ino);

 private:
  struct Slot {
    InodeNo ino{};
    FileType type{FileType::kFile};
  };
  struct DirState {
    DirId id{};
    std::vector<DiskBlock> content;     // all blocks of the reservation
    u64 used_blocks{0};                 // prefix of `content` in use
    std::vector<u64> slot_group_block;  // slot-group -> index into `content`
    u64 next_slot{0};
    std::vector<u32> reusable_slots;    // reclaimed by lazy-free
    std::vector<u32> pending_frees;     // awaiting lazy-free
    NameIndex index;                    // name -> slot, and the names
    std::vector<std::optional<Slot>> slots;  // slot-indexed
    u64 live_entries{0};
    u64 extent_units{0};  // Σ extent counts of child files
    u64 file_count{0};
  };

  DirState* dir_state(InodeNo dir);
  const DirState* dir_state(InodeNo dir) const;
  Result<InodeNo> create_common(InodeNo parent, std::string_view name,
                                FileType type);
  /// Grow the directory's content reservation (doubling), preferably in
  /// place so the region stays contiguous.
  Status grow_content(DirState& d);
  /// Hand out the next unused content block (for a slot group or a mapping
  /// block), growing the reservation if exhausted.
  Result<u64> take_content_block(DirState& d);
  /// Content block holding a slot's embedded inode.
  Result<DiskBlock> slot_block(DirState& d, u32 slot);
  /// Slot a new entry of `d` takes: the most recently reclaimed one, else
  /// the next never-used one.
  static u32 next_slot(const DirState& d);
  /// Claim `slot` (just returned by next_slot) for a new entry.
  static void take_slot(DirState& d, u32 slot);
  DiskBlock dir_table_block(DirId id) const;
  void lazy_free_flush(DirState& d);
  /// Free the content blocks from index `keep` on, and forget them (rmdir
  /// releases them all).
  void release_content(DirState& d, std::size_t keep);

  EmbeddedLayoutConfig cfg_;
  DiskBlock table_base_{};     // global directory table region
  DiskBlock free_bitmap_block_{};
  InodeNo root_{};
  DirectoryTable dir_table_;
  RenameCorrelation correlation_;
  std::unordered_map<u64, Inode> inodes_;      // keyed by CURRENT ino
  // Directories are keyed by their own DirId — stable across rename, unlike
  // their composite inode number.
  std::unordered_map<u32, DirState> dirs_;
  std::unordered_map<u64, InodeNo> parent_of_; // dir ino -> parent dir ino
};

}  // namespace mif::mfs
