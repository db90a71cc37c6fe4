// On-disk layout primitives.
//
// Redbud is a block-based PFS whose "basic element of file layout is extent,
// identified by a tuple of [file offset, group offset, length, flags]"
// (§V-A).  Extent is exactly that tuple; ExtentMap is the per-file logical →
// physical indirection whose fragmentation the whole paper is about (Table I
// counts these entries).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "util/types.hpp"

namespace mif::block {

enum ExtentFlags : u32 {
  kExtentNone = 0,
  /// Persistently preallocated but not yet written (fallocate-style or the
  /// unwritten tail of an on-demand current window).
  kExtentUnwritten = 1u << 0,
};

struct Extent {
  FileBlock file_off{};   // first logical block covered
  DiskBlock disk_off{};   // first physical block
  u64 length{0};          // blocks
  u32 flags{kExtentNone};

  u64 file_end() const { return file_off.v + length; }
  u64 disk_end() const { return disk_off.v + length; }
  bool covers(FileBlock b) const {
    return b.v >= file_off.v && b.v < file_end();
  }
  /// Physical block backing logical block `b`; caller must check covers().
  DiskBlock map(FileBlock b) const {
    return DiskBlock{disk_off.v + (b.v - file_off.v)};
  }
  bool operator==(const Extent&) const = default;
};

/// A run of physical blocks (no logical position attached).
struct BlockRange {
  DiskBlock start{};
  u64 length{0};
  u64 end() const { return start.v + length; }
  bool contains(DiskBlock b) const {
    return b.v >= start.v && b.v < end();
  }
  bool operator==(const BlockRange&) const = default;
};

/// Sorted, merging extent map for one file.
///
/// Adjacent extents that are contiguous in BOTH address spaces (and share
/// flags) coalesce on insert — this is what makes extent counts a direct
/// fragmentation metric: a perfectly placed file has one extent per
/// contiguous physical run, a badly interleaved one has an extent per write.
class ExtentMap {
 public:
  /// Insert a mapping.  The caller guarantees the logical range is not
  /// already mapped (files here are extend-only or hole-filling, never
  /// remapped in place — the paper notes mappings don't change before
  /// deletion).
  void insert(Extent e);

  /// Find the extent covering logical block `b`.
  std::optional<Extent> lookup(FileBlock b) const;

  /// Start of the first extent that begins after logical block `b`, or
  /// `limit` if there is none or it starts later.  For an unmapped `b` this
  /// is where the hole at `b` ends, clamped to `limit`.  O(log extents).
  u64 next_mapped(FileBlock b, u64 limit) const;

  /// Translate a logical run [b, b+len) into physical runs.  Holes and
  /// unmapped tails are skipped (a real FS would return zeros).
  std::vector<BlockRange> map_range(FileBlock b, u64 len) const;

  /// Clear the unwritten flag over [b, b+len), splitting extents as needed.
  void mark_written(FileBlock b, u64 len);

  std::size_t extent_count() const { return extents_.size(); }
  const std::vector<Extent>& extents() const { return extents_; }
  bool empty() const { return extents_.empty(); }

  /// One past the last mapped logical block (file size in blocks when there
  /// are no holes at the end).
  u64 logical_end() const;

  /// Total mapped blocks (excludes holes).
  u64 mapped_blocks() const;

 private:
  // First extent whose file_off is greater than `b`.
  std::vector<Extent>::const_iterator first_after(FileBlock b) const;

  std::vector<Extent> extents_;  // sorted by file_off
};

}  // namespace mif::block
