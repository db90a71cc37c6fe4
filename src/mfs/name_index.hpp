// Per-directory name index.
//
// §IV-C: scalable parallel file systems keep a fast in-memory index (Htree /
// Btree over name hashes) per metadata server; MiF's embedded layout is
// orthogonal to it.  We model two lookup disciplines because the aging
// experiment (Fig. 9) contrasts them: Lustre's ext4 MDS has Htree lookup
// (O(1) dirent-block probes), Redbud's ext3 MDS does a linear dirent scan.
// The index returns which *entry ordinal* a name maps to; the directory
// layout translates that to blocks, and the discipline decides how many
// blocks a cold lookup must touch.
//
// The in-memory structure is a flat open-addressing table: 8-byte cells of
// (32-bit name hash, ordinal), linear probing, and backward-shift deletion,
// so a churned directory (half its names unlinked, new ones created) keeps
// no tombstones and its probe runs stay as short as a fresh table's.  The
// index owns each bound name in an ordinal-indexed store, which is all the
// layouts keep of a name.  A find costs one cell probe run and, on a hash
// match, one name compare; nothing is allocated per lookup.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace mif::mfs {

enum class LookupDiscipline {
  kLinearScan,  // ext3: read dirent blocks in order until the name is found
  kHtree,       // ext4/Lustre: hash straight to the right block
};

/// FNV-1a, stable across runs — also used by the MDS cluster to partition
/// giant directories (§IV-C).
u64 name_hash(std::string_view name);

class NameIndex {
 public:
  /// Insert a name → ordinal binding.  Fails (returns false) on duplicates.
  /// `ordinal` must be unbound and below 2^32 - 1.
  bool insert(std::string_view name, u64 ordinal);

  std::optional<u64> find(std::string_view name) const;

  bool erase(std::string_view name);

  std::size_t size() const { return size_; }

  /// The name bound to `ordinal`, which must be bound.  The view lasts
  /// until the next insert or erase.
  std::string_view name_at(u64 ordinal) const { return names_[ordinal]; }

  /// Cells in the table: 0 until the first insert, then a power of two.  A
  /// name's probe run starts at cell `cell_hash(name) & (capacity() - 1)`.
  std::size_t capacity() const { return cells_.size(); }
  static u32 cell_hash(std::string_view name);

  /// Number of dirent blocks a cold lookup touches under the given
  /// discipline, for a directory whose entries span `blocks` dirent blocks
  /// and where the name sits in block `found_in` (0-based).
  static u64 lookup_block_cost(LookupDiscipline d, u64 blocks, u64 found_in);

 private:
  struct Cell {
    u32 hash{0};
    u32 ordinal{kEmpty};
  };
  static constexpr u32 kEmpty = ~u32{0};
  static constexpr std::size_t kNone = ~std::size_t{0};
  /// First table size, and the load (kMaxLoadNum / kMaxLoadDen) past which
  /// the table doubles.  BM_NameIndexChurn (bench/micro_ops.cpp) times
  /// bounds from 1/2 to 7/8 alike on a 5 000-name directory; 3/4 keeps
  /// half the cells 1/2 would there.
  static constexpr std::size_t kInitialCells = 16;
  static constexpr std::size_t kMaxLoadNum = 3;
  static constexpr std::size_t kMaxLoadDen = 4;

  /// Cell binding `name` (whose cell hash is `h`), or kNone.
  std::size_t locate(std::string_view name, u32 h) const;
  /// Put `c` in the first empty cell of its probe run.
  void place(Cell c);
  void grow();

  std::vector<Cell> cells_;
  std::vector<std::string> names_;  // ordinal-indexed
  std::size_t size_{0};
};

}  // namespace mif::mfs
