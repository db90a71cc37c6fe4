// Inode model for the metadata file system (MFS) behind the MDS.
//
// In a block-based PFS the MDS persists, per file: the inode proper plus the
// *layout mapping* — the extent list describing where the file's data lives
// on the storage targets (§IV-A: "it can be either the extents in
// block-based parallel file systems or the object id in the object-based
// file systems").  MiF's embedded directory stuffs that mapping into the
// inode tail and spills to extra blocks placed contiguously with the inode;
// the traditional layout keeps inodes in per-group inode tables and spills
// mappings to blocks allocated wherever the data area had room.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace mif::mfs {

enum class FileType : u8 { kFile, kDirectory };

/// Structural constants of the on-disk format.  They only need to be
/// *plausible* (ext3-like) — what the experiments measure is which blocks
/// each operation touches, and these constants decide that.
struct Format {
  /// ext3-style 256-byte inodes, 16 per 4 KiB block (normal-mode tables).
  static constexpr u64 kInodesPerTableBlock = 16;
  /// Directory entries per 4 KiB dirent block (normal mode).
  static constexpr u64 kDirentsPerBlock = 64;
  /// Embedded-mode slots per directory content block: the embedded inode
  /// (with the name and the stuffed mapping in its tail) stays 256 B like a
  /// table inode, so content is as dense as an inode table.
  static constexpr u64 kEmbeddedSlotsPerBlock = 16;
  /// Extents that fit in the inode tail before spilling (§IV-A).
  static constexpr u64 kInlineExtents = 8;
  /// Extents per dedicated mapping block.
  static constexpr u64 kExtentsPerMappingBlock = 256;
  /// Reserved overflow pointers in the inode ("two pointers in inode
  /// structure are reserved to indicate the address of extra blocks").
  static constexpr u64 kReservedMappingPointers = 2;
};

struct Inode {
  InodeNo num{};
  FileType type{FileType::kFile};
  u64 size_bytes{0};
  u32 links{1};
  u64 mtime{0};  // logical op counter, not wall time
  u64 ctime{0};

  /// Where this inode structure itself lives on the MDS disk.
  DiskBlock inode_block{};
  /// Overflow blocks on the MDS disk holding spilled layout mappings.
  std::vector<DiskBlock> mapping_blocks;

  /// Directories only: id in the global directory table (embedded mode).
  DirId dir_id{};

  /// Extent count last persisted via sync_layout (drives the per-directory
  /// fragmentation degree without rescanning the layout).
  u64 last_synced_extents{0};

  bool is_dir() const { return type == FileType::kDirectory; }

  /// Mapping blocks needed to persist `extent_count` extents beyond the
  /// inline capacity.
  static u64 overflow_blocks_for(u64 extent_count) {
    if (extent_count <= Format::kInlineExtents) return 0;
    const u64 spill = extent_count - Format::kInlineExtents;
    return (spill + Format::kExtentsPerMappingBlock - 1) /
           Format::kExtentsPerMappingBlock;
  }
};

/// Inode-number codec for the embedded-directory scheme (§IV-B): the number
/// is (directory id << 32) | slot offset inside that directory.
struct EmbeddedInodeNo {
  static InodeNo make(DirId dir, u32 offset) {
    return InodeNo{(static_cast<u64>(dir.v) << 32) | offset};
  }
  static DirId dir_of(InodeNo n) {
    return DirId{static_cast<u32>(n.v >> 32)};
  }
  static u32 offset_of(InodeNo n) { return static_cast<u32>(n.v); }

  /// Structural limits of the 64-bit carrier the paper notes: at most 2^32
  /// files per directory and 2^32 directories per file system.
  static constexpr u64 kMaxSlots = u64{1} << 32;
  static constexpr u64 kMaxDirectories = u64{1} << 32;
};

}  // namespace mif::mfs
