#include "osd/striping.hpp"

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

}  // namespace mif::osd
