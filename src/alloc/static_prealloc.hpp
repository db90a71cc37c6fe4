// Static allocator: fallocate-style whole-file persistent preallocation (§I).
//
// "Recent efforts in file systems provide the fallocate syscall which
// persistently allocates all blocks for the file.  Nevertheless, it requires
// an application to have sufficient foreknowledge of how much space the file
// will need."  This is the paper's upper bound in Fig. 6: data is perfectly
// contiguous, but only because the benchmark told the FS the final size.
// Writes beyond (or without) a preallocation degrade to reservation
// behaviour.
#pragma once

#include "alloc/reservation.hpp"

namespace mif::alloc {

class StaticAllocator final : public FileAllocator {
 public:
  explicit StaticAllocator(block::FreeSpace& space);

  AllocatorMode mode() const override { return AllocatorMode::kStatic; }

  /// fallocate: map [0, total_blocks) as one (or as few as possible)
  /// unwritten extents.  Idempotent for already-mapped prefixes.
  Status preallocate(InodeNo inode, block::ExtentMap& map,
                     u64 total_blocks) override;

  void close_file(InodeNo inode, block::ExtentMap& map) override;

  /// Includes the fallback reservation allocator's counters (its windows
  /// hold real blocks that space accounting must see).
  AllocatorStats stats() const override;

 protected:
  Status allocate_fresh(const AllocContext& ctx, FileBlock logical, u64 count,
                        block::ExtentMap& map) override;

 private:
  ReservationAllocator fallback_;
};

}  // namespace mif::alloc
