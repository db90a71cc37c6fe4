// Unit + property tests for the per-file extent map (the fragmentation
// metric of Table I lives here).
#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <vector>

#include "block/block_types.hpp"
#include "util/rng.hpp"

namespace mif::block {
namespace {

Extent ext(u64 file, u64 disk, u64 len, u32 flags = kExtentNone) {
  return Extent{FileBlock{file}, DiskBlock{disk}, len, flags};
}

// The runs map_range hands its visitor, in order.
std::vector<BlockRange> runs_of(const ExtentMap& m, FileBlock b, u64 len) {
  std::vector<BlockRange> out;
  m.map_range(b, len, [&out](const BlockRange& r) { out.push_back(r); });
  return out;
}

TEST(ExtentMap, InsertAndLookup) {
  ExtentMap m;
  m.insert(ext(0, 100, 10));
  auto e = m.lookup(FileBlock{5});
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->map(FileBlock{5}).v, 105u);
  EXPECT_FALSE(m.lookup(FileBlock{10}).has_value());
}

TEST(ExtentMap, MergesContiguousInserts) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(4, 104, 4));
  m.insert(ext(8, 108, 4));
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_EQ(m.mapped_blocks(), 12u);
}

TEST(ExtentMap, DoesNotMergeLogicalOnlyAdjacency) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(4, 500, 4));  // logically adjacent, physically not
  EXPECT_EQ(m.extent_count(), 2u);
}

TEST(ExtentMap, DoesNotMergeAcrossFlags) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(4, 104, 4, kExtentUnwritten));
  EXPECT_EQ(m.extent_count(), 2u);
}

TEST(ExtentMap, MergesGapFillBothSides) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(8, 108, 4));
  m.insert(ext(4, 104, 4));  // plugs the hole, joins all three
  EXPECT_EQ(m.extent_count(), 1u);
}

TEST(ExtentMap, OutOfOrderInsertKeepsSorted) {
  ExtentMap m;
  m.insert(ext(100, 1000, 10));
  m.insert(ext(0, 2000, 10));
  m.insert(ext(50, 3000, 10));
  const std::vector<Extent> in_order(m.begin(), m.end());
  ASSERT_EQ(in_order.size(), 3u);
  EXPECT_EQ(in_order[0].file_off.v, 0u);
  EXPECT_EQ(in_order[1].file_off.v, 50u);
  EXPECT_EQ(in_order[2].file_off.v, 100u);
  EXPECT_EQ(m.back().file_off.v, 100u);
  EXPECT_EQ(m.logical_end(), 110u);
}

TEST(ExtentMap, NextMappedFindsWhereTheHoleEnds) {
  ExtentMap m;
  EXPECT_EQ(m.next_mapped(FileBlock{0}, 50), 50u);  // empty map
  m.insert(ext(10, 100, 5));  // [10, 15)
  m.insert(ext(30, 500, 5));  // [30, 35)
  // Before the first extent.
  EXPECT_EQ(m.next_mapped(FileBlock{0}, 100), 10u);
  EXPECT_EQ(m.next_mapped(FileBlock{9}, 100), 10u);
  // Between two extents.
  EXPECT_EQ(m.next_mapped(FileBlock{15}, 100), 30u);
  EXPECT_EQ(m.next_mapped(FileBlock{29}, 100), 30u);
  // Inside an extent: the next one that begins after it.
  EXPECT_EQ(m.next_mapped(FileBlock{10}, 100), 30u);
  // After the last one only the limit ends the hole.
  EXPECT_EQ(m.next_mapped(FileBlock{30}, 100), 100u);
  EXPECT_EQ(m.next_mapped(FileBlock{35}, 100), 100u);
  // The limit clamps a later extent start.
  EXPECT_EQ(m.next_mapped(FileBlock{0}, 7), 7u);
  EXPECT_EQ(m.next_mapped(FileBlock{15}, 20), 20u);
  EXPECT_EQ(m.next_mapped(FileBlock{15}, 30), 30u);
}

TEST(ExtentMap, MapRangeCrossesExtentsAndSkipsHoles) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(8, 300, 4));  // hole at [4, 8)
  auto runs = runs_of(m, FileBlock{0}, 12);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].start.v, 100u);
  EXPECT_EQ(runs[0].length, 4u);
  EXPECT_EQ(runs[1].start.v, 300u);
  EXPECT_EQ(runs[1].length, 4u);
}

TEST(ExtentMap, MapRangeCoalescesPhysicallyContiguousRuns) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(4, 104, 4, kExtentUnwritten));  // separate extent, same run
  auto runs = runs_of(m, FileBlock{0}, 8);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].length, 8u);
}

TEST(ExtentMap, MapRangePartialOverlap) {
  ExtentMap m;
  m.insert(ext(0, 100, 10));
  auto runs = runs_of(m, FileBlock{3}, 4);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].start.v, 103u);
  EXPECT_EQ(runs[0].length, 4u);
}

TEST(ExtentMap, MarkWrittenSplitsUnwrittenExtent) {
  ExtentMap m;
  m.insert(ext(0, 100, 10, kExtentUnwritten));
  m.mark_written(FileBlock{4}, 2);
  // [0,4) unwritten, [4,6) written, [6,10) unwritten.
  EXPECT_EQ(m.extent_count(), 3u);
  EXPECT_EQ(m.lookup(FileBlock{4})->flags, kExtentNone);
  EXPECT_EQ(m.lookup(FileBlock{0})->flags, kExtentUnwritten);
  EXPECT_EQ(m.lookup(FileBlock{9})->flags, kExtentUnwritten);
  // Physical mapping is unchanged.
  EXPECT_EQ(m.lookup(FileBlock{5})->map(FileBlock{5}).v, 105u);
}

TEST(ExtentMap, MarkWrittenWholeExtentRemerges) {
  ExtentMap m;
  m.insert(ext(0, 100, 4));
  m.insert(ext(4, 104, 4, kExtentUnwritten));
  m.mark_written(FileBlock{4}, 4);
  EXPECT_EQ(m.extent_count(), 1u);  // flags now equal → merge
}

TEST(ExtentMap, MarkWrittenIgnoresAlreadyWritten) {
  ExtentMap m;
  m.insert(ext(0, 100, 8));
  m.mark_written(FileBlock{0}, 8);
  EXPECT_EQ(m.extent_count(), 1u);
}

// Property: inserting N randomly-shuffled, pairwise-disjoint sub-extents of
// one physical run always collapses back to a single extent after all are
// written.
TEST(ExtentMapProperty, ShuffledContiguousPiecesAlwaysCoalesce) {
  mif::Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<u64> order(64);
    for (u64 i = 0; i < 64; ++i) order[i] = i;
    for (u64 i = 63; i > 0; --i)
      std::swap(order[i], order[rng.uniform(0, i)]);
    ExtentMap m;
    for (u64 i : order) m.insert(ext(i * 2, 1000 + i * 2, 2));
    EXPECT_EQ(m.extent_count(), 1u) << "trial " << trial;
    EXPECT_EQ(m.mapped_blocks(), 128u);
  }
}

// Property: map_range over random queries agrees with per-block lookup, and
// next_mapped with a linear scan for the first extent past the query start.
TEST(ExtentMapProperty, MapRangeMatchesBlockwiseLookup) {
  mif::Rng rng(14);
  ExtentMap m;
  u64 file = 0;
  for (int i = 0; i < 50; ++i) {
    const u64 len = rng.uniform(1, 8);
    if (rng.chance(0.3)) file += rng.uniform(1, 5);  // hole
    m.insert(ext(file, rng.uniform(0, 1) * 100000 + file * 7 + i * 1000, len));
    file += len;
  }
  for (int q = 0; q < 200; ++q) {
    const u64 start = rng.uniform(0, file);
    const u64 len = rng.uniform(1, 32);
    auto runs = runs_of(m, FileBlock{start}, len);
    u64 covered = 0;
    for (const auto& r : runs) covered += r.length;
    u64 expect = 0;
    for (u64 b = start; b < start + len; ++b)
      if (m.lookup(FileBlock{b})) ++expect;
    EXPECT_EQ(covered, expect);
    u64 next = start + len;
    for (const Extent& e : m) {
      if (e.file_off.v > start) {
        next = std::min(next, e.file_off.v);
        break;
      }
    }
    EXPECT_EQ(m.next_mapped(FileBlock{start}, start + len), next)
        << "start " << start << " len " << len;
  }
}

// The flat sorted-vector map that ExtentMap was before its storage became
// leaves of at most kLeafExtents extents, kept verbatim as the reference the
// differential tests below drive in lockstep.
class RefExtentMap {
 public:
  void insert(Extent e);
  std::optional<Extent> lookup(FileBlock b) const;
  u64 next_mapped(FileBlock b, u64 limit) const;
  std::vector<BlockRange> map_range(FileBlock b, u64 len) const;
  void mark_written(FileBlock b, u64 len);
  std::size_t extent_count() const { return extents_.size(); }
  const std::vector<Extent>& extents() const { return extents_; }
  bool empty() const { return extents_.empty(); }
  u64 logical_end() const;
  u64 mapped_blocks() const;

 private:
  // First extent whose file_off is greater than `b`.
  std::vector<Extent>::const_iterator first_after(FileBlock b) const;

  std::vector<Extent> extents_;  // sorted by file_off
};

bool mergeable(const Extent& a, const Extent& b) {
  return a.file_end() == b.file_off.v && a.disk_end() == b.disk_off.v &&
         a.flags == b.flags;
}

void RefExtentMap::insert(Extent e) {
  assert(e.length > 0);
  auto it = std::lower_bound(extents_.begin(), extents_.end(), e,
                             [](const Extent& a, const Extent& b) {
                               return a.file_off.v < b.file_off.v;
                             });
  // No overlap allowed: check neighbours.
  assert(it == extents_.end() || e.file_end() <= it->file_off.v);
  assert(it == extents_.begin() || std::prev(it)->file_end() <= e.file_off.v);

  // Try merging with the predecessor.
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (mergeable(*prev, e)) {
      prev->length += e.length;
      // The grown predecessor may now touch the successor too.
      if (it != extents_.end() && mergeable(*prev, *it)) {
        prev->length += it->length;
        extents_.erase(it);
      }
      return;
    }
  }
  // Try merging with the successor.
  if (it != extents_.end() && mergeable(e, *it)) {
    it->file_off = e.file_off;
    it->disk_off = e.disk_off;
    it->length += e.length;
    return;
  }
  extents_.insert(it, e);
}

std::vector<Extent>::const_iterator RefExtentMap::first_after(
    FileBlock b) const {
  return std::upper_bound(extents_.begin(), extents_.end(), b,
                          [](FileBlock lhs, const Extent& rhs) {
                            return lhs.v < rhs.file_off.v;
                          });
}

std::optional<Extent> RefExtentMap::lookup(FileBlock b) const {
  auto it = first_after(b);
  if (it == extents_.begin()) return std::nullopt;
  --it;
  if (it->covers(b)) return *it;
  return std::nullopt;
}

u64 RefExtentMap::next_mapped(FileBlock b, u64 limit) const {
  auto it = first_after(b);
  return it == extents_.end() ? limit : std::min(limit, it->file_off.v);
}

std::vector<BlockRange> RefExtentMap::map_range(FileBlock b, u64 len) const {
  std::vector<BlockRange> out;
  const u64 end = b.v + len;
  auto it = first_after(b);
  if (it != extents_.begin()) --it;
  for (; it != extents_.end() && it->file_off.v < end; ++it) {
    const u64 lo = std::max(b.v, it->file_off.v);
    const u64 hi = std::min(end, it->file_end());
    if (lo >= hi) continue;
    BlockRange r{DiskBlock{it->disk_off.v + (lo - it->file_off.v)}, hi - lo};
    // Physically contiguous with the previous run: coalesce so callers see
    // the true contiguity of the placement.
    if (!out.empty() && out.back().end() == r.start.v) {
      out.back().length += r.length;
    } else {
      out.push_back(r);
    }
  }
  return out;
}

void RefExtentMap::mark_written(FileBlock b, u64 len) {
  const u64 end = b.v + len;
  std::vector<Extent> rebuilt;
  rebuilt.reserve(extents_.size() + 2);
  for (const Extent& e : extents_) {
    const u64 lo = std::max(b.v, e.file_off.v);
    const u64 hi = std::min(end, e.file_end());
    if (lo >= hi || !(e.flags & kExtentUnwritten)) {
      rebuilt.push_back(e);
      continue;
    }
    // Split into up-to-three pieces; the middle one becomes written.
    if (e.file_off.v < lo) {
      rebuilt.push_back(
          Extent{e.file_off, e.disk_off, lo - e.file_off.v, e.flags});
    }
    rebuilt.push_back(Extent{FileBlock{lo},
                             DiskBlock{e.disk_off.v + (lo - e.file_off.v)},
                             hi - lo, e.flags & ~kExtentUnwritten});
    if (hi < e.file_end()) {
      rebuilt.push_back(Extent{FileBlock{hi},
                               DiskBlock{e.disk_off.v + (hi - e.file_off.v)},
                               e.file_end() - hi, e.flags});
    }
  }
  extents_.clear();
  for (const Extent& e : rebuilt) insert(e);  // re-merge
}

u64 RefExtentMap::logical_end() const {
  return extents_.empty() ? 0 : extents_.back().file_end();
}

u64 RefExtentMap::mapped_blocks() const {
  u64 n = 0;
  for (const Extent& e : extents_) n += e.length;
  return n;
}

// Drives an ExtentMap and a RefExtentMap with the same edits and, after
// every one, requires the same answers from both: the whole extent sequence,
// the summary counters, and lookup/next_mapped/map_range at random points
// and at the edges of a random extent.
class Lockstep {
 public:
  explicit Lockstep(u64 seed) : rng_(seed) {}

  void insert(Extent e) {
    map_.insert(e);
    ref_.insert(e);
    check();
  }
  void mark_written(FileBlock b, u64 len) {
    map_.mark_written(b, len);
    ref_.mark_written(b, len);
    check();
  }
  const ExtentMap& map() const { return map_; }
  Rng& rng() { return rng_; }
  // lookup, next_mapped and map_range at `at` (over a random length) must
  // answer as the reference does.
  void probe(u64 at) {
    const FileBlock b{at};
    const u64 len = rng_.uniform(1, 96);
    ASSERT_EQ(map_.lookup(b), ref_.lookup(b)) << "step " << step_ << " at " << at;
    ASSERT_EQ(map_.next_mapped(b, at + len), ref_.next_mapped(b, at + len))
        << "step " << step_ << " at " << at;
    ASSERT_EQ(runs_of(map_, b, len), ref_.map_range(b, len))
        << "step " << step_ << " at " << at << " len " << len;
  }

 private:
  void check() {
    ++step_;
    ASSERT_EQ(map_.extent_count(), ref_.extent_count()) << "step " << step_;
    ASSERT_EQ(map_.empty(), ref_.empty());
    ASSERT_EQ(map_.logical_end(), ref_.logical_end()) << "step " << step_;
    ASSERT_EQ(map_.mapped_blocks(), ref_.mapped_blocks()) << "step " << step_;
    ASSERT_EQ(std::vector<Extent>(map_.begin(), map_.end()), ref_.extents())
        << "step " << step_;
    if (!map_.empty()) {
      ASSERT_EQ(map_.back(), ref_.extents().back());
    }
    const u64 span = ref_.logical_end() + 2;
    for (int q = 0; q < 8; ++q) probe(rng_.uniform(0, span));
    if (!ref_.empty()) {
      const Extent& e =
          ref_.extents()[rng_.uniform(0, ref_.extent_count() - 1)];
      for (u64 b : {e.file_off.v, e.file_end() - 1, e.file_end()}) probe(b);
      if (e.file_off.v > 0) probe(e.file_off.v - 1);
    }
  }

  Rng rng_;
  ExtentMap map_;
  RefExtentMap ref_;
  u64 step_{0};
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.uniform(0, i - 1)]);
}

// IOR's segmented N-1 layout: 64 regions of one shared file, each appended
// round-robin, so every round adds an extent to each region and all but the
// last land before later regions' extents.  Now and then a write continues
// its region's physical run and merges with its predecessor.
TEST(ExtentMapDifferential, InterleavedRegionAppends) {
  constexpr u64 kRegions = 64, kRegionBlocks = u64{1} << 20;
  Lockstep s(71);
  std::vector<Extent> last(kRegions);
  u64 disk = 0;
  while (s.map().extent_count() < 4096 + 256) {
    for (u64 r = 0; r < kRegions; ++r) {
      const u64 len = s.rng().uniform(1, 4);
      Extent& prev = last[r];
      const u64 at = prev.length ? prev.file_end() : r * kRegionBlocks;
      Extent e{FileBlock{at}, DiskBlock{disk}, len,
               s.rng().chance(0.1) ? kExtentUnwritten : kExtentNone};
      if (prev.length && s.rng().chance(0.2)) {
        e.disk_off = DiskBlock{prev.disk_end()};
        e.flags = prev.flags;
      }
      s.insert(e);
      if (HasFatalFailure()) return;
      disk += len + 1;
      prev = e;
    }
  }
  EXPECT_GT(s.map().extent_count(), 4 * ExtentMap::kLeafExtents);
}

// Disjoint pieces inserted in random order; a piece that fills its whole
// slot touches the next slot, and the identity-offset placement makes
// logical neighbours physical neighbours, so pieces merge with the
// predecessor, the successor or both, anywhere in the map.
TEST(ExtentMapDifferential, RandomOrderInserts) {
  for (u64 seed : {5u, 6u, 7u}) {
    Lockstep s(seed);
    std::vector<Extent> pieces;
    for (u64 slot = 0; slot < 3000; ++slot) {
      const u64 len = s.rng().uniform(1, 4);
      pieces.push_back({FileBlock{slot * 4}, DiskBlock{1000 + slot * 4}, len,
                        s.rng().chance(0.15) ? kExtentUnwritten : kExtentNone});
    }
    shuffle(pieces, s.rng());
    for (const Extent& e : pieces) {
      s.insert(e);
      if (HasFatalFailure()) return;
    }
  }
}

// Fill every hole of a long run of one-block extents, in random order.
// Each fill either merges both neighbours (the identity placement) or only
// its successor (the predecessor sits elsewhere on disk), so fills at leaf
// boundaries merge across leaves and, as merges drain the head of a leaf,
// empty it.
TEST(ExtentMapDifferential, GapFillsMergeAcrossLeaves) {
  constexpr u64 kExtents = 2000;
  for (bool both : {true, false}) {
    Lockstep s(both ? 11 : 12);
    auto disk_of = [&](u64 file) {
      return both ? 500 + file : 500 + (file / 2) * 10 + (file % 2 ? 19 : 10);
    };
    for (u64 i = 0; i < kExtents; ++i) {
      s.insert({FileBlock{2 * i}, DiskBlock{disk_of(2 * i)}, 1, kExtentNone});
      if (HasFatalFailure()) return;
    }
    std::vector<u64> holes;
    for (u64 i = 0; i + 1 < kExtents; ++i) holes.push_back(2 * i + 1);
    shuffle(holes, s.rng());
    for (u64 h : holes) {
      s.insert({FileBlock{h}, DiskBlock{disk_of(h)}, 1, kExtentNone});
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(s.map().extent_count(), both ? 1u : kExtents);
  }
}

// Written and unwritten extents, then mark_written over random ranges that
// span several leaves: splits, flag flips and the re-merge that follows.
TEST(ExtentMapDifferential, MarkWrittenAcrossLeaves) {
  Lockstep s(21);
  std::vector<Extent> pieces;
  for (u64 slot = 0; slot < 1500; ++slot) {
    const u64 len = s.rng().uniform(2, 4);
    pieces.push_back({FileBlock{slot * 4}, DiskBlock{1000 + slot * 4}, len,
                      s.rng().chance(0.7) ? kExtentUnwritten : kExtentNone});
  }
  shuffle(pieces, s.rng());
  for (const Extent& e : pieces) {
    s.insert(e);
    if (HasFatalFailure()) return;
  }
  for (int i = 0; i < 200; ++i) {
    const u64 at = s.rng().uniform(0, 6000);
    s.mark_written(FileBlock{at}, s.rng().uniform(1, 1200));
    if (HasFatalFailure()) return;
  }
}

// The map's searches start from where the last one ended.  Here every edit
// is preceded by a search at the far side of the map and followed by the
// lockstep probes (random offsets and the edges of a random extent), so
// edits and searches alike start from a remembered extent that is far away,
// right beside the edit, or moved by it.  The edits: appends that split full
// leaves, hole fills whose merges drain leaves from the head until they are
// gone, and mark_written refills of every leaf.
TEST(ExtentMapDifferential, SearchesJumpAroundEveryEdit) {
  constexpr u64 kExtents = 1200;  // 18 leaves once the appends have split
  Lockstep s(31);
  auto edit_at = [&s](u64 at) {
    const u64 span = s.map().logical_end() + 2;
    s.probe((at + span / 2) % span);
  };
  // Appends: each one past a full last leaf splits it.
  for (u64 i = 0; i < kExtents; ++i) {
    edit_at(2 * i);
    s.insert({FileBlock{2 * i}, DiskBlock{500 + 2 * i}, 1, kExtentNone});
    if (HasFatalFailure()) return;
  }
  // Hole fills from the left: each merges both neighbours, so the first
  // extent grows across the map, taking each next leaf's head until the
  // leaf's last extent goes and the leaf with it.
  for (u64 i = 0; i + 1 < kExtents; ++i) {
    edit_at(2 * i + 1);
    s.insert({FileBlock{2 * i + 1}, DiskBlock{501 + 2 * i}, 1, kExtentNone});
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(s.map().extent_count(), 1u);
  // Unwritten and written pieces behind it, in random order, then
  // mark_written over ranges that span leaves: each one refills them all.
  const u64 base = 4 * kExtents;
  std::vector<Extent> pieces;
  for (u64 slot = 0; slot < kExtents; ++slot) {
    pieces.push_back({FileBlock{base + slot * 4},
                      DiskBlock{base + 1000 + slot * 4}, s.rng().uniform(2, 4),
                      s.rng().chance(0.7) ? kExtentUnwritten : kExtentNone});
  }
  shuffle(pieces, s.rng());
  for (const Extent& e : pieces) {
    edit_at(e.file_off.v);
    s.insert(e);
    if (HasFatalFailure()) return;
  }
  for (int i = 0; i < 150; ++i) {
    const u64 at = base + s.rng().uniform(0, 4 * kExtents);
    edit_at(at);
    s.mark_written(FileBlock{at}, s.rng().uniform(1, 900));
    if (HasFatalFailure()) return;
    s.probe(at);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace mif::block
