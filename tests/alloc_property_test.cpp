// Property-based tests over ALL allocator strategies: whatever the policy,
// the resulting mapping must be correct — complete, non-overlapping, inside
// the device, and space-accounted.  Parameterised across modes and stream
// mixes (TEST_P sweep).
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "alloc/allocator.hpp"
#include "util/rng.hpp"

namespace mif::alloc {
namespace {

struct Params {
  AllocatorMode mode;
  u32 streams;
  u64 max_request;  // blocks
  double random_fraction;
};

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  std::string s{to_string(info.param.mode)};
  for (auto& c : s)
    if (c == '-') c = '_';
  return s + "_s" + std::to_string(info.param.streams) + "_r" +
         std::to_string(info.param.max_request) + "_p" +
         std::to_string(static_cast<int>(info.param.random_fraction * 100));
}

class AllocatorProperty : public ::testing::TestWithParam<Params> {};

TEST_P(AllocatorProperty, MappingInvariantsHoldUnderRandomWorkload) {
  const Params p = GetParam();
  const u64 device_blocks = 512 * 1024;
  block::FreeSpace space(DiskBlock{0}, device_blocks, 8);
  auto alloc = make_allocator(p.mode, space);
  block::ExtentMap map;
  Rng rng(1234 + static_cast<u64>(p.mode) * 97 + p.streams);

  // Per-stream sequential cursors over disjoint regions, with a configurable
  // fraction of random-offset writes thrown in.
  const u64 region = 4096;
  std::vector<u64> cursor(p.streams);
  for (u32 s = 0; s < p.streams; ++s) cursor[s] = static_cast<u64>(s) * region;

  std::map<u64, u64> written;  // logical start -> len (expected written set)
  for (int op = 0; op < 3000; ++op) {
    const u32 s = static_cast<u32>(rng.uniform(0, p.streams - 1));
    const u64 len = rng.uniform(1, p.max_request);
    u64 logical;
    if (rng.chance(p.random_fraction)) {
      logical = static_cast<u64>(s) * region + rng.uniform(0, region - len);
    } else {
      logical = cursor[s];
      cursor[s] += len;
      if (cursor[s] >= (static_cast<u64>(s) + 1) * region)
        cursor[s] = static_cast<u64>(s) * region;  // wrap inside the region
    }
    ASSERT_TRUE(
        alloc->extend({InodeNo{9}, StreamId{s, 0}, FileBlock{logical}, len},
                      map)
            .ok());
    written[logical] = std::max(written[logical], len);
  }

  // Invariant 1: every written logical block is mapped and marked written.
  for (const auto& [start, len] : written) {
    for (u64 b = start; b < start + len; ++b) {
      auto e = map.lookup(FileBlock{b});
      ASSERT_TRUE(e.has_value()) << "unmapped block " << b;
      EXPECT_EQ(e->flags & block::kExtentUnwritten, 0u)
          << "unwritten block " << b;
    }
  }

  // Invariant 2: extents are sorted, non-overlapping, and inside the device.
  u64 prev_end = 0;
  u64 mapped = 0;
  for (const auto& e : map) {
    EXPECT_GE(e.file_off.v, prev_end);
    prev_end = e.file_end();
    EXPECT_LT(e.disk_end(), device_blocks + 1);
    mapped += e.length;
  }

  // Invariant 3: space accounting.  used = mapped blocks + temporary
  // reservations held by the allocator.
  const u64 used = device_blocks - space.free_blocks();
  EXPECT_EQ(used, mapped + alloc->stats().reserved_blocks);

  // Invariant 4: no two extents map the same physical block.
  std::vector<std::pair<u64, u64>> phys;
  phys.reserve(map.extent_count());
  for (const auto& e : map) phys.emplace_back(e.disk_off.v, e.length);
  std::sort(phys.begin(), phys.end());
  for (std::size_t i = 1; i < phys.size(); ++i) {
    EXPECT_GE(phys[i].first, phys[i - 1].first + phys[i - 1].second)
        << "physical overlap";
  }

  // Invariant 5: delete returns every block.
  alloc->close_file(InodeNo{9}, map);
  alloc->delete_file(InodeNo{9}, map);
  EXPECT_EQ(space.free_blocks(), device_blocks);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllocatorProperty,
    ::testing::Values(
        Params{AllocatorMode::kVanilla, 1, 4, 0.0},
        Params{AllocatorMode::kVanilla, 8, 4, 0.3},
        Params{AllocatorMode::kReservation, 1, 4, 0.0},
        Params{AllocatorMode::kReservation, 8, 4, 0.3},
        Params{AllocatorMode::kReservation, 16, 8, 0.5},
        Params{AllocatorMode::kStatic, 4, 4, 0.2},
        Params{AllocatorMode::kOnDemand, 1, 4, 0.0},
        Params{AllocatorMode::kOnDemand, 8, 4, 0.0},
        Params{AllocatorMode::kOnDemand, 8, 4, 0.3},
        Params{AllocatorMode::kOnDemand, 16, 8, 0.5},
        Params{AllocatorMode::kOnDemand, 32, 2, 0.1}),
    param_name);

// Cross-strategy ordering property: on the canonical interleaved shared-file
// workload, extent counts must order vanilla >= reservation > on-demand
// (Table I's row ordering).
TEST(AllocatorOrdering, ExtentCountsFollowTableOne) {
  auto run = [](AllocatorMode mode) {
    block::FreeSpace space(DiskBlock{0}, 256 * 1024, 8);
    auto alloc = make_allocator(mode, space);
    block::ExtentMap map;
    const u32 streams = 16;
    const u64 per_stream = 64;
    for (u64 r = 0; r < per_stream; ++r) {
      for (u32 p = 0; p < streams; ++p) {
        EXPECT_TRUE(alloc
                        ->extend({InodeNo{1}, StreamId{p, 0},
                                  FileBlock{static_cast<u64>(p) * per_stream + r},
                                  1},
                                 map)
                        .ok());
      }
    }
    return map.extent_count();
  };
  const u64 vanilla = run(AllocatorMode::kVanilla);
  const u64 reservation = run(AllocatorMode::kReservation);
  const u64 ondemand = run(AllocatorMode::kOnDemand);
  EXPECT_GE(vanilla, reservation);
  EXPECT_GT(reservation, 2 * ondemand);
  // The paper reports a 5–10× reduction from reservation to on-demand.
  EXPECT_GE(static_cast<double>(reservation) / static_cast<double>(ondemand),
            4.0);
}

}  // namespace
}  // namespace mif::alloc
