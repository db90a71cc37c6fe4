// On-demand preallocation — the paper's primary contribution (§III).
//
// The allocator tracks every (file, stream) pair extending a shared file and
// keeps the paper's two windows per stream, each a (disk block, file logic
// block, length) triple:
//
//   current window    — blocks persistently preallocated to the stream.
//                       Writes that land inside it are served straight from
//                       the window ("neither layout_miss nor
//                       pre_alloc_layout", Fig. 3 T3).  Its unused remainder
//                       is persisted into the file map as unwritten extents
//                       when the window is replaced or the file closes —
//                       "preallocated blocks in the current window are
//                       persistent across system reboot" (§III-C).
//   sequential window — blocks temporarily reserved in the free-space bitmap
//                       only; other streams cannot allocate them, but they
//                       belong to no file yet.
//
// Triggers (Fig. 2):
//   layout_miss       — write outside both windows, or the stream's first
//                       extend.  Allocates the write, re-seeds a sequential
//                       window, and counts a miss; at `miss_threshold` the
//                       stream is classified random and preallocation is
//                       switched off for it ("turned off immediately").
//   pre_alloc_layout  — write lands inside the sequential window with the
//                       stream still in good standing.  The sequential
//                       window is promoted to current window and a new one
//                       `scale`× larger (capped) is reserved just past it.
//
// Window sizing (§III-C): first window = write_size × scale (scale ∈ {2,4}),
// then exponential ramp, clamped to max_preallocation_blocks.
#pragma once

#include <unordered_map>

#include "alloc/allocator.hpp"

namespace mif::alloc {

class OnDemandAllocator final : public FileAllocator {
 public:
  OnDemandAllocator(block::FreeSpace& space, AllocatorTuning tuning);
  ~OnDemandAllocator() override;

  AllocatorMode mode() const override { return AllocatorMode::kOnDemand; }

  void close_file(InodeNo inode, block::ExtentMap& map) override;

  /// True if the given stream has been demoted to no-preallocation (its
  /// workload was classified random).  Test/diagnostic hook.
  bool prealloc_disabled(InodeNo inode, StreamId stream) const;

  /// Current sequential-window length in blocks for a stream (0 = none).
  u64 sequential_window_blocks(InodeNo inode, StreamId stream) const;

  /// Current-window length in blocks for a stream (0 = none).
  u64 current_window_blocks(InodeNo inode, StreamId stream) const;

 protected:
  Status allocate_fresh(const AllocContext& ctx, FileBlock logical, u64 count,
                        block::ExtentMap& map) override;

 private:
  struct Window {
    DiskBlock disk{};
    FileBlock file{};
    u64 len{0};
    bool valid() const { return len > 0; }
    bool covers(FileBlock b, u64 n) const {
      return valid() && b.v >= file.v && b.v + n <= file.v + len;
    }
    DiskBlock map_block(FileBlock b) const {
      return DiskBlock{disk.v + (b.v - file.v)};
    }
  };

  struct StreamState {
    Window current{};
    Window sequential{};
    u32 misses{0};
    bool prealloc_on{true};
    u64 next_window_blocks{0};  // size of the next sequential window
  };

  struct Key {
    u64 inode;
    u64 stream;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<u64>{}(k.inode * 0x9e3779b97f4a7c15ULL ^ k.stream);
    }
  };

  /// Insert a written extent for [logical, logical+count) served from the
  /// window's reservation.
  void serve_from(const Window& w, FileBlock logical, u64 count,
                  block::ExtentMap& map);

  /// Persist a retiring current window: its still-unmapped file ranges
  /// become unwritten extents; ranges another stream claimed meanwhile have
  /// their reserved disk blocks freed.
  void persist_window(Window& w, block::ExtentMap& map);

  void release_sequential(StreamState& st);

  /// Reserve a sequential window of ~`want` blocks starting at logical
  /// `file_pos`, physically as close to `goal` as possible.
  void reserve_sequential(StreamState& st, DiskBlock goal, FileBlock file_pos,
                          u64 want);

  /// Map-and-write the (possibly partially mapped, post-persist) range.
  /// Returns the disk block just past the last allocation, for window goals.
  Result<DiskBlock> fill_range(const AllocContext& ctx, FileBlock logical,
                               u64 count, block::ExtentMap& map);

  AllocatorTuning tuning_;
  std::unordered_map<Key, StreamState, KeyHash> streams_;  // guarded by mu_
};

}  // namespace mif::alloc
