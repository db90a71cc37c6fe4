// File striping across storage targets.
//
// Redbud stripes file data over shared disks ("we configured all data to be
// striped on five disks", §V-C) in fixed stripe units, round-robin.  This
// header maps a file-global logical block range onto per-target slices and
// back.
#pragma once

#include <algorithm>
#include <cassert>

#include "util/types.hpp"

namespace mif::osd {

struct StripeLayout {
  /// Stripe unit: 16 blocks = 64 KiB, on every mount.
  static constexpr u64 kUnitBlocks = 16;
  u32 width{1};  // number of targets
};

struct StripeSlice {
  u32 target{0};
  FileBlock local_start{};  // logical block within the target-local subfile
  u64 count{0};
  FileBlock global_start{}; // where this slice begins in the file
  bool operator==(const StripeSlice&) const = default;
};

/// Target-local logical block for a file-global block.
FileBlock to_local(const StripeLayout& layout, FileBlock global);

/// Owning target of a file-global block.
u32 target_of(const StripeLayout& layout, FileBlock global);

/// Decompose the file-global range [start, start+count) into per-target
/// slices, handing each to `visit(const StripeSlice&)` in global order.
/// Inline, so the walk folds into its caller with the visitor.
template <typename Visit>
inline void slices_for(const StripeLayout& layout, FileBlock start, u64 count,
                       Visit&& visit) {
  assert(layout.width >= 1);
  constexpr u64 kUnit = StripeLayout::kUnitBlocks;
  StripeSlice slice{};
  const u64 end = start.v + count;
  for (u64 pos = start.v; pos < end;) {
    const u64 take = std::min(end, (pos / kUnit + 1) * kUnit) - pos;
    const FileBlock g{pos};
    const StripeSlice s{target_of(layout, g), to_local(layout, g), take, g};
    // Merge with the previous slice when it continues the same target-local
    // run (width==1, or count smaller than a unit).
    if (slice.count > 0 && slice.target == s.target &&
        slice.local_start.v + slice.count == s.local_start.v) {
      slice.count += take;
    } else {
      if (slice.count > 0) visit(slice);
      slice = s;
    }
    pos += take;
  }
  if (slice.count > 0) visit(slice);
}

/// Owning target of redundancy copy `copy` (1-based: copy 0 is the primary
/// itself) of a stripe unit whose primary lives on `primary_target`:
/// copies rotate right, so each target backs its left neighbours and a
/// single-target loss always leaves `copy` surviving replicas elsewhere.
/// The copies keep the primary's local block addresses — see
/// redundancy/redundancy.hpp for why that makes degraded routing a pure
/// (target, ino) swap.
u32 replica_target(const StripeLayout& layout, u32 primary_target, u32 copy);

}  // namespace mif::osd
