// On-disk layout primitives.
//
// Redbud is a block-based PFS whose "basic element of file layout is extent,
// identified by a tuple of [file offset, group offset, length, flags]"
// (§V-A).  Extent is exactly that tuple; ExtentMap is the per-file logical →
// physical indirection whose fragmentation the whole paper is about (Table I
// counts these entries).
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
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
///
/// Storage is a two-level sorted sequence: leaves of at most kLeafExtents
/// extents in file order.  A lookup binary-searches the leaves' first file
/// offsets, then the leaf; an insert moves at most one leaf's extents, so a
/// shared file whose streams each append to their own region (one extent per
/// region per round, every one of them before the later regions' extents)
/// does not shift the whole file's map on every write.  No leaf reserves
/// kLeafExtents slots up front: a map that fits in one leaf grows like the
/// flat vector it replaces.
///
/// The map remembers where its last search ended.  A search tries that
/// extent first and takes it when it still starts at or before the offset
/// and its successor starts after it, so the several searches a write makes
/// at the offset it places (the allocator's lookup and hole probe, the
/// insert, the range walk that submits the I/O) descend the leaves once.
/// Searches therefore mutate the map like any edit does: the caller
/// serialises every use of one map (the OSD's per-file lock).
class ExtentMap {
  using Leaf = std::vector<Extent>;

 public:
  /// Most extents a leaf holds; a full leaf splits in half before an insert.
  static constexpr std::size_t kLeafExtents = 128;

  /// In-order forward iteration over every extent.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Extent;
    using difference_type = std::ptrdiff_t;
    using pointer = const Extent*;
    using reference = const Extent&;

    const_iterator() = default;
    reference operator*() const { return (*leaf_)[i_]; }
    pointer operator->() const { return &(*leaf_)[i_]; }
    const_iterator& operator++() {
      if (++i_ == leaf_->size()) {
        ++leaf_;
        i_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    friend class ExtentMap;
    const_iterator(const Leaf* leaf, std::size_t i) : leaf_(leaf), i_(i) {}
    const Leaf* leaf_{nullptr};
    std::size_t i_{0};
  };

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

  /// Translate a logical run [b, b+len) into physical runs, handing each to
  /// `visit(const BlockRange&)` in file order.  Holes and unmapped tails are
  /// skipped (a real FS would return zeros); physically contiguous pieces
  /// reach `visit` as one run.
  template <typename Visit>
  void map_range(FileBlock b, u64 len, Visit&& visit) const;

  /// Clear the unwritten flag over [b, b+len), splitting extents as needed.
  void mark_written(FileBlock b, u64 len);

  std::size_t extent_count() const { return count_; }
  bool empty() const { return count_ == 0; }

  const_iterator begin() const { return {leaves_.data(), 0}; }
  const_iterator end() const { return {leaves_.data() + leaves_.size(), 0}; }
  /// The extent with the highest file offset; the map must not be empty.
  const Extent& back() const { return leaves_.back().back(); }

  /// One past the last mapped logical block (file size in blocks when there
  /// are no holes at the end).
  u64 logical_end() const;

  /// Total mapped blocks (excludes holes).
  u64 mapped_blocks() const;

 private:
  // An extent's place: its leaf and its index within that leaf.
  struct Pos {
    std::size_t leaf{0};
    std::size_t i{0};
  };
  // Index of the last leaf whose first extent starts at or before `off`, or
  // 0 when there is none; the map must not be empty.
  std::size_t leaf_for(u64 off) const;
  // Place of the last extent whose file_off is at most `off`, or of the
  // first extent when there is none; the map must not be empty.  Tries the
  // previous search's answer before descending.
  Pos find(u64 off) const;
  // Last extent whose file_off is at most `b`; begin() if there is none.
  const_iterator last_at_or_before(FileBlock b) const;

  std::vector<Leaf> leaves_;  // each non-empty, in file order
  std::size_t count_{0};
  // The last search's answer.  Checked against the map before each use, so
  // no edit has to keep it current.
  mutable Pos hint_;
};

template <typename Visit>
void ExtentMap::map_range(FileBlock b, u64 len, Visit&& visit) const {
  const u64 stop = b.v + len;
  BlockRange run{};
  for (auto it = last_at_or_before(b); it != end() && it->file_off.v < stop;
       ++it) {
    const u64 lo = std::max(b.v, it->file_off.v);
    const u64 hi = std::min(stop, it->file_end());
    if (lo >= hi) continue;
    const DiskBlock at = it->map(FileBlock{lo});
    // Physically contiguous with the run so far: coalesce so callers see
    // the true contiguity of the placement.
    if (run.length > 0 && run.end() == at.v) {
      run.length += hi - lo;
      continue;
    }
    if (run.length > 0) visit(run);
    run = {at, hi - lo};
  }
  if (run.length > 0) visit(run);
}

}  // namespace mif::block
