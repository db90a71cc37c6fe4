#include <algorithm>
#include <cassert>

#include "block/block_types.hpp"

namespace mif::block {

namespace {
bool mergeable(const Extent& a, const Extent& b) {
  return a.file_end() == b.file_off.v && a.disk_end() == b.disk_off.v &&
         a.flags == b.flags;
}

bool starts_before(u64 off, const Extent& e) { return off < e.file_off.v; }
}  // namespace

std::size_t ExtentMap::leaf_for(u64 off) const {
  auto it = std::upper_bound(
      leaves_.begin(), leaves_.end(), off,
      [](u64 o, const Leaf& leaf) { return starts_before(o, leaf.front()); });
  return it == leaves_.begin() ? 0 : (it - leaves_.begin()) - 1;
}

ExtentMap::Pos ExtentMap::find(u64 off) const {
  if (hint_.leaf < leaves_.size()) {
    const Leaf& leaf = leaves_[hint_.leaf];
    if (hint_.i < leaf.size() && leaf[hint_.i].file_off.v <= off) {
      // The remembered extent starts at or before `off`; it is the last
      // such extent exactly when its successor, if any, starts after `off`.
      const Extent* next = hint_.i + 1 < leaf.size() ? &leaf[hint_.i + 1]
                           : hint_.leaf + 1 < leaves_.size()
                               ? &leaves_[hint_.leaf + 1].front()
                               : nullptr;
      if (!next || starts_before(off, *next)) return hint_;
    }
  }
  const std::size_t li = leaf_for(off);
  const Leaf& leaf = leaves_[li];
  const std::size_t i =
      std::upper_bound(leaf.begin(), leaf.end(), off, starts_before) -
      leaf.begin();
  hint_ = {li, i == 0 ? 0 : i - 1};
  return hint_;
}

void ExtentMap::insert(Extent e) {
  assert(e.length > 0);
  if (leaves_.empty()) {
    leaves_.push_back(Leaf{e});
    count_ = 1;
    hint_ = {};
    return;
  }
  const Pos at = find(e.file_off.v);
  std::size_t li = at.leaf;
  Leaf* leaf = &leaves_[li];
  // First extent after e: at index i of this leaf, or else the next leaf's
  // first.  Its predecessor is in this leaf unless e precedes every extent.
  std::size_t i = (*leaf)[at.i].file_off.v <= e.file_off.v ? at.i + 1 : 0;
  Extent* prev = i > 0 ? &(*leaf)[i - 1] : nullptr;
  Leaf* next_leaf = li + 1 < leaves_.size() ? &leaves_[li + 1] : nullptr;
  Extent* next = i < leaf->size() ? &(*leaf)[i]
                 : next_leaf     ? &next_leaf->front()
                                 : nullptr;
  // No overlap allowed: check neighbours.
  assert(!next || e.file_end() <= next->file_off.v);
  assert(!prev || prev->file_end() <= e.file_off.v);

  // Try merging with the predecessor, which then still sits at `at`.
  if (prev && mergeable(*prev, e)) {
    prev->length += e.length;
    // The grown predecessor may now touch the successor too, which may sit
    // at the head of the next leaf; a leaf the merge empties goes away.
    if (next && mergeable(*prev, *next)) {
      prev->length += next->length;
      --count_;
      if (i < leaf->size()) {
        leaf->erase(leaf->begin() + static_cast<std::ptrdiff_t>(i));
      } else if (next_leaf->size() > 1) {
        next_leaf->erase(next_leaf->begin());
      } else {
        leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(li + 1));
      }
    }
    return;
  }
  // Try merging with the successor.
  if (next && mergeable(e, *next)) {
    next->file_off = e.file_off;
    next->disk_off = e.disk_off;
    next->length += e.length;
    hint_ = i < leaf->size() ? Pos{li, i} : Pos{li + 1, 0};
    return;
  }
  if (leaf->size() == kLeafExtents) {
    // Split in half before the insert; e goes to whichever half holds its
    // position.
    constexpr std::size_t kHalf = kLeafExtents / 2;
    const auto mid = leaf->begin() + static_cast<std::ptrdiff_t>(kHalf);
    Leaf upper(mid, leaf->end());
    leaf->erase(mid, leaf->end());
    leaves_.insert(leaves_.begin() + static_cast<std::ptrdiff_t>(li + 1),
                   std::move(upper));
    if (i > kHalf) {
      ++li;
      i -= kHalf;
    }
    leaf = &leaves_[li];
  }
  leaf->insert(leaf->begin() + static_cast<std::ptrdiff_t>(i), e);
  assert(leaf->size() <= kLeafExtents);
  ++count_;
  hint_ = {li, i};
}

ExtentMap::const_iterator ExtentMap::last_at_or_before(FileBlock b) const {
  if (leaves_.empty()) return end();
  const Pos at = find(b.v);
  return {&leaves_[at.leaf], at.i};
}

std::optional<Extent> ExtentMap::lookup(FileBlock b) const {
  auto it = last_at_or_before(b);
  if (it != end() && it->covers(b)) return *it;
  return std::nullopt;
}

u64 ExtentMap::next_mapped(FileBlock b, u64 limit) const {
  auto it = last_at_or_before(b);
  if (it != end() && it->file_off.v <= b.v) ++it;
  return it == end() ? limit : std::min(limit, it->file_off.v);
}

void ExtentMap::mark_written(FileBlock b, u64 len) {
  const u64 end = b.v + len;
  std::vector<Extent> rebuilt;
  rebuilt.reserve(count_ + 2);
  // Appending in file order merges exactly as insert() would.
  auto append = [&rebuilt](const Extent& e) {
    if (!rebuilt.empty() && mergeable(rebuilt.back(), e)) {
      rebuilt.back().length += e.length;
    } else {
      rebuilt.push_back(e);
    }
  };
  for (const Extent& e : *this) {
    const u64 lo = std::max(b.v, e.file_off.v);
    const u64 hi = std::min(end, e.file_end());
    if (lo >= hi || !(e.flags & kExtentUnwritten)) {
      append(e);
      continue;
    }
    // Split into up-to-three pieces; the middle one becomes written.
    if (e.file_off.v < lo) {
      append(Extent{e.file_off, e.disk_off, lo - e.file_off.v, e.flags});
    }
    append(Extent{FileBlock{lo}, DiskBlock{e.disk_off.v + (lo - e.file_off.v)},
                  hi - lo, e.flags & ~kExtentUnwritten});
    if (hi < e.file_end()) {
      append(Extent{FileBlock{hi},
                    DiskBlock{e.disk_off.v + (hi - e.file_off.v)},
                    e.file_end() - hi, e.flags});
    }
  }
  // Refill the leaves in order, reusing their buffers.
  std::size_t li = 0;
  for (std::size_t at = 0; at < rebuilt.size(); at += kLeafExtents, ++li) {
    const auto first = rebuilt.begin() + static_cast<std::ptrdiff_t>(at);
    const auto last = first + static_cast<std::ptrdiff_t>(
                                  std::min(kLeafExtents, rebuilt.size() - at));
    if (li == leaves_.size()) leaves_.emplace_back();
    leaves_[li].assign(first, last);
  }
  leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(li),
                leaves_.end());
  count_ = rebuilt.size();
}

u64 ExtentMap::logical_end() const {
  return leaves_.empty() ? 0 : back().file_end();
}

u64 ExtentMap::mapped_blocks() const {
  u64 n = 0;
  for (const Extent& e : *this) n += e.length;
  return n;
}

}  // namespace mif::block
