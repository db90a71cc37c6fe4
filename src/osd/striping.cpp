#include "osd/striping.hpp"

#include <algorithm>
#include <cassert>

namespace mif::osd {

namespace {
constexpr u64 kUnit = StripeLayout::kUnitBlocks;
}  // namespace

u32 target_of(const StripeLayout& layout, FileBlock global) {
  return static_cast<u32>((global.v / kUnit) % layout.width);
}

u32 replica_target(const StripeLayout& layout, u32 primary_target, u32 copy) {
  assert(copy < layout.width);
  return (primary_target + copy) % layout.width;
}

FileBlock to_local(const StripeLayout& layout, FileBlock global) {
  const u64 stripe = global.v / kUnit;    // global stripe no.
  const u64 row = stripe / layout.width;  // stripe row
  const u64 within = global.v % kUnit;
  return FileBlock{row * kUnit + within};
}

std::vector<StripeSlice> slices_for(const StripeLayout& layout,
                                    FileBlock start, u64 count) {
  assert(layout.width >= 1);
  std::vector<StripeSlice> out;
  u64 pos = start.v;
  const u64 end = start.v + count;
  while (pos < end) {
    const u64 unit_end = (pos / kUnit + 1) * kUnit;
    const u64 take = std::min(end, unit_end) - pos;
    const FileBlock g{pos};
    StripeSlice s{target_of(layout, g), to_local(layout, g), take, g};
    // Merge with the previous slice when it continues the same target-local
    // run (width==1, or count smaller than a unit).
    if (!out.empty() && out.back().target == s.target &&
        out.back().local_start.v + out.back().count == s.local_start.v) {
      out.back().count += take;
    } else {
      out.push_back(s);
    }
    pos += take;
  }
  return out;
}

}  // namespace mif::osd
