#include "mfs/name_index.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

namespace mif::mfs {

u64 name_hash(std::string_view name) {
  u64 h = 0xcbf29ce484222325ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

u32 NameIndex::cell_hash(std::string_view name) {
  // std::hash mixes every bit into the low ones the table masks with (FNV-1a
  // leaves names that differ in their last byte clustered there).
  return static_cast<u32>(std::hash<std::string_view>{}(name));
}

std::size_t NameIndex::locate(std::string_view name, u32 h) const {
  if (cells_.empty()) return kNone;
  const std::size_t mask = cells_.size() - 1;
  // The load bound keeps an empty cell in the table, so the run ends.
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Cell c = cells_[i];
    if (c.ordinal == kEmpty) return kNone;
    if (c.hash == h && names_[c.ordinal] == name) return i;
  }
}

void NameIndex::place(Cell c) {
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = c.hash & mask;
  while (cells_[i].ordinal != kEmpty) i = (i + 1) & mask;
  cells_[i] = c;
}

void NameIndex::grow() {
  const std::vector<Cell> old = std::move(cells_);
  cells_.assign(old.empty() ? kInitialCells : old.size() * 2, Cell{});
  for (const Cell& c : old) {
    if (c.ordinal != kEmpty) place(c);
  }
}

bool NameIndex::insert(std::string_view name, u64 ordinal) {
  assert(ordinal < kEmpty && "name-index ordinals must fit in 32 bits");
  const u32 h = cell_hash(name);
  if (locate(name, h) != kNone) return false;
  if ((size_ + 1) * kMaxLoadDen > cells_.size() * kMaxLoadNum) grow();
  place(Cell{h, static_cast<u32>(ordinal)});
  if (names_.size() <= ordinal) names_.resize(ordinal + 1);
  names_[ordinal].assign(name);
  ++size_;
  return true;
}

std::optional<u64> NameIndex::find(std::string_view name) const {
  const std::size_t i = locate(name, cell_hash(name));
  if (i == kNone) return std::nullopt;
  return cells_[i].ordinal;
}

bool NameIndex::erase(std::string_view name) {
  std::size_t hole = locate(name, cell_hash(name));
  if (hole == kNone) return false;
  names_[cells_[hole].ordinal].clear();
  // Backward-shift deletion: pull each later cell of the run into the hole
  // unless its home cell lies cyclically after the hole (moving it there
  // would put it before its home, out of its own probe run).
  const std::size_t mask = cells_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; cells_[j].ordinal != kEmpty;
       j = (j + 1) & mask) {
    const std::size_t home = cells_[j].hash & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      cells_[hole] = cells_[j];
      hole = j;
    }
  }
  cells_[hole] = Cell{};
  --size_;
  return true;
}

u64 NameIndex::lookup_block_cost(LookupDiscipline d, u64 blocks,
                                 u64 found_in) {
  if (blocks == 0) return 0;
  switch (d) {
    case LookupDiscipline::kLinearScan:
      // Scans from the first dirent block up to and including the hit.
      return std::min(found_in + 1, blocks);
    case LookupDiscipline::kHtree:
      // Htree root is resident with the directory inode; one leaf probe.
      return 1;
  }
  return 1;
}

}  // namespace mif::mfs
