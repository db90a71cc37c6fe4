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
//
// In memory each inode lives in its directory's slot record, as on disk: a
// number resolves to (directory, slot) through its own bits, with no table
// over all inodes, and a directory's parent is the directory its number
// names.
#pragma once

#include <array>
#include <memory>
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
  static constexpr u64 kSlotsPerGroup = Format::kEmbeddedSlotsPerBlock;
  /// The slots of one content block, holding their embedded inodes (a free
  /// slot's inode has an invalid number).  A group is never moved once
  /// made, so an inode stays put while its directory grows.
  struct SlotGroup {
    u64 block{0};  // index into the directory's `content`
    std::array<Inode, kSlotsPerGroup> inodes;
  };
  struct DirState {
    DirId id{};
    std::vector<DiskBlock> content;     // all blocks of the reservation
    u64 used_blocks{0};                 // prefix of `content` in use
    std::vector<std::unique_ptr<SlotGroup>> groups;  // by slot / group size
    u64 next_slot{0};
    std::vector<u32> reusable_slots;    // reclaimed by lazy-free
    std::vector<u32> pending_frees;     // awaiting lazy-free
    NameIndex index;                    // name -> slot, and the names
    u64 live_entries{0};
    u64 extent_units{0};  // Σ extent counts of child files
    u64 file_count{0};

    /// The inode in `slot`, which must be below next_slot.
    Inode& inode(u64 slot) {
      return groups[slot / kSlotsPerGroup]->inodes[slot % kSlotsPerGroup];
    }
    const Inode& inode(u64 slot) const {
      return groups[slot / kSlotsPerGroup]->inodes[slot % kSlotsPerGroup];
    }
    /// Content block holding `slot`.
    DiskBlock block_of(u64 slot) const {
      return content[groups[slot / kSlotsPerGroup]->block];
    }
  };

  /// The live inode numbered `cur` (a current, not a stale, number), and
  /// the directory whose slot holds it (nullptr for the root); nullptr when
  /// no live inode has that number.
  Inode* record(InodeNo cur, DirState** holder = nullptr);
  const Inode* record(InodeNo cur) const;
  /// find() with the holding directory: the live inode numbered `ino`,
  /// else the one a rename moved it to.
  Inode* locate(InodeNo ino, DirState** holder);
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
  /// Content block holding a slot's embedded inode, making the slot's group
  /// first if needed.
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
  /// The root has no parent slot; its inode lives here.
  Inode root_inode_;
  // Directories are keyed by their own DirId — stable across rename, unlike
  // their composite inode number.
  std::unordered_map<u32, DirState> dirs_;
};

}  // namespace mif::mfs
