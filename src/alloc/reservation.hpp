// Reservation allocator: the ext4/GPFS-style per-INODE window (§I, §II-B).
//
// "For every file that is being extended, the allocator reserves a range of
// on-disk blocks near the last non-hole block of the file.  Blocks needed by
// subsequent write operations for that inode are allocated from that range."
//
// The deliberate flaw the paper attacks: the window belongs to the *inode*,
// so when many streams extend one shared file, their blocks are carved from
// the same window in ARRIVAL order — inter-file fragmentation is fixed,
// intra-file fragmentation is not (Fig. 1(a)).
#pragma once

#include <unordered_map>

#include "alloc/allocator.hpp"

namespace mif::alloc {

class ReservationAllocator final : public FileAllocator {
 public:
  /// Blocks per inode window refill: 256 KiB, near the ext4 default window.
  static constexpr u64 kWindowBlocks = 64;

  explicit ReservationAllocator(block::FreeSpace& space);
  ~ReservationAllocator() override;

  AllocatorMode mode() const override { return AllocatorMode::kReservation; }
  void close_file(InodeNo inode, block::ExtentMap& map) override;

 protected:
  Status allocate_fresh(const AllocContext& ctx, FileBlock logical, u64 count,
                        block::ExtentMap& map) override;

 private:
  struct Window {
    DiskBlock next{};   // next free block inside the reservation
    u64 remaining{0};   // blocks left
  };

  /// Discard the remainder of an inode's window (blocks go back to free
  /// space — reservations are NOT persistent, unlike on-demand's current
  /// window).
  void discard_window(Window& w);

  std::unordered_map<InodeNo, Window> windows_;  // guarded by mu_
};

}  // namespace mif::alloc
