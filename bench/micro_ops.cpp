// google-benchmark micro-benchmarks of the hot library primitives: bitmap
// run search (fragmented, young and aged groups), extent-map insert/lookup,
// allocator extend per strategy (appending, and strided over thousands of
// extents), disk service and scheduler drain.  These guard the simulator's
// own performance (the figure benches replay hundreds of thousands of
// operations).  Takes google-benchmark's own flags plus the harness flags of
// obs/report.hpp.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "block/bitmap.hpp"
#include "core/pfs.hpp"
#include "obs/report.hpp"
#include "rpc/fault.hpp"
#include "sim/io_scheduler.hpp"
#include "util/rng.hpp"

namespace {

using namespace mif;

constexpr u32 kReplicatedTargets = 4;

void BM_BitmapFindRun(benchmark::State& state) {
  block::Bitmap bm(1 << 20);
  Rng rng(1);
  // Fragment: occupy every other 8-block chunk.
  for (u64 i = 0; i < (1 << 20); i += 16) bm.set_range(i, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bm.find_run(rng.uniform(0, (1 << 20) - 1), 8));
  }
}
BENCHMARK(BM_BitmapFindRun);

constexpr u64 kGroupBlocks = u64{1} << 19;  // one 512 Ki-block group

// A young group: a used prefix in front of an all-free tail.  Every search
// from a goal in the prefix lands on the tail, so this times how much of a
// long free run the search reads to place a 4-block write.
void BM_BitmapFindRunFreshGroup(benchmark::State& state) {
  constexpr u64 kPrefix = 1024;
  block::Bitmap bm(kGroupBlocks);
  bm.set_range(0, kPrefix);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bm.find_run(rng.uniform(0, kPrefix - 1), 4));
  }
}
BENCHMARK(BM_BitmapFindRunFreshGroup);

// A group aged to state.range(0) % full by seeded churn: allocations of 1-64
// blocks at random goals, with one live allocation in three freed again, so
// free space is a mix of short holes and longer runs.
void BM_BitmapFindRunAged(benchmark::State& state) {
  const u64 target = kGroupBlocks * static_cast<u64>(state.range(0)) / 100;
  block::Bitmap bm(kGroupBlocks);
  Rng rng(5);
  std::vector<std::pair<u64, u64>> live;
  while (bm.used_blocks() < target) {
    const u64 len = rng.uniform(1, 64);
    if (auto r = bm.find_run(rng.uniform(0, kGroupBlocks - 1), len)) {
      bm.set_range(*r, len);
      live.emplace_back(*r, len);
    }
    if (rng.chance(1.0 / 3) && !live.empty()) {
      const std::size_t i = rng.uniform(0, live.size() - 1);
      bm.clear_range(live[i].first, live[i].second);
      live[i] = live.back();
      live.pop_back();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bm.find_run(rng.uniform(0, kGroupBlocks - 1), rng.uniform(1, 16)));
  }
}
BENCHMARK(BM_BitmapFindRunAged)->Arg(50)->Arg(80);

void BM_BitmapSetClear(benchmark::State& state) {
  block::Bitmap bm(1 << 20);
  u64 pos = 0;
  for (auto _ : state) {
    bm.set_range(pos, 64);
    bm.clear_range(pos, 64);
    pos = (pos + 64) % ((1 << 20) - 64);
  }
}
BENCHMARK(BM_BitmapSetClear);

void BM_ExtentMapInsertFragmented(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    block::ExtentMap m;
    state.ResumeTiming();
    // Worst case: nothing merges.
    for (u64 i = 0; i < 1024; ++i) {
      m.insert({FileBlock{i * 2}, DiskBlock{i * 64 + 7}, 1,
                block::kExtentNone});
    }
    benchmark::DoNotOptimize(m.extent_count());
  }
}
BENCHMARK(BM_ExtentMapInsertFragmented);

void BM_ExtentMapLookup(benchmark::State& state) {
  block::ExtentMap m;
  for (u64 i = 0; i < 4096; ++i)
    m.insert({FileBlock{i * 2}, DiskBlock{i * 64}, 1, block::kExtentNone});
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.lookup(FileBlock{rng.uniform(0, 8191)}));
  }
}
BENCHMARK(BM_ExtentMapLookup);

void BM_AllocatorExtend(benchmark::State& state) {
  const auto mode = static_cast<alloc::AllocatorMode>(state.range(0));
  block::FreeSpace space(DiskBlock{0}, u64{8} * 1024 * 1024, 16);
  auto a = alloc::make_allocator(mode, space);
  block::ExtentMap map;
  u64 logical = 0;
  for (auto _ : state) {
    if (!a->extend({InodeNo{1}, StreamId{1, 0}, FileBlock{logical}, 4}, map)
             .ok()) {
      // Device filled mid-run: recycle the file and keep timing.
      state.PauseTiming();
      a->delete_file(InodeNo{1}, map);
      logical = 0;
      state.ResumeTiming();
      continue;
    }
    logical += 4;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AllocatorExtend)
    ->Arg(static_cast<int>(alloc::AllocatorMode::kVanilla))
    ->Arg(static_cast<int>(alloc::AllocatorMode::kReservation))
    ->Arg(static_cast<int>(alloc::AllocatorMode::kOnDemand));

// Strided one-block writes at the end of a file that already has thousands
// of extents: each write leaves a hole behind it, and each extend asks where
// the hole at the write ends (ExtentMap::next_mapped).
void BM_AllocatorExtendStrided(benchmark::State& state) {
  constexpr u64 kExtents = 4096;
  const auto mode = static_cast<alloc::AllocatorMode>(state.range(0));
  block::FreeSpace space(DiskBlock{0}, u64{8} * 1024 * 1024, 16);
  auto a = alloc::make_allocator(mode, space);
  block::ExtentMap map;
  u64 logical = 0;
  auto write = [&] {
    const bool ok =
        a->extend({InodeNo{1}, StreamId{1, 0}, FileBlock{logical}, 1}, map)
            .ok();
    logical += 2;
    return ok;
  };
  // Start over from a file of kExtents extents, so every timed write sees
  // between kExtents and twice that many.
  auto refill = [&] {
    a->delete_file(InodeNo{1}, map);
    logical = 0;
    while (map.extent_count() < kExtents) write();
  };
  refill();
  for (auto _ : state) {
    if (map.extent_count() >= 2 * kExtents) {
      state.PauseTiming();
      refill();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(write());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AllocatorExtendStrided)
    ->Arg(static_cast<int>(alloc::AllocatorMode::kVanilla))
    ->Arg(static_cast<int>(alloc::AllocatorMode::kOnDemand));

void BM_DiskServiceSequential(benchmark::State& state) {
  sim::Disk d;
  u64 pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        d.service({sim::IoKind::kWrite,
                   DiskBlock{pos % (d.geometry().capacity_blocks - 64)}, 64}));
    pos += 64;
  }
}
BENCHMARK(BM_DiskServiceSequential);

void BM_SchedulerDrain128(benchmark::State& state) {
  sim::Disk d;
  sim::IoScheduler s(d, 1 << 20);
  Rng rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 128; ++i) {
      s.submit({sim::IoKind::kRead,
                DiskBlock{rng.uniform(0, d.geometry().capacity_blocks - 8)},
                4});
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.drain());
  }
}
BENCHMARK(BM_SchedulerDrain128);

// Replicated stripe-unit writes through the whole stack (4 targets,
// --replicas-way); with --kill-osd the scheduled fault fires mid-run and the
// fan degrades around the dead target.  Registered only when --replicas >= 2
// so the default benchmark list is unchanged.
void BM_ReplicatedStripeWrite(benchmark::State& state,
                              const obs::BenchFlags& flags) {
  core::ClusterConfig cfg;
  cfg.num_targets = kReplicatedTargets;
  cfg.stripe = {4, 16};
  cfg.redundancy.replicas = flags.replicas;
  cfg.rpc.inject_faults = flags.kill_osd;
  core::ParallelFileSystem fs(cfg);
  if (flags.kill_osd) {
    fs.transport().fault()->kill_osd(flags.kill_target, flags.kill_at_ms);
  }
  auto client = fs.connect(ClientId{1});
  auto fh = client.create("replicated.dat");
  u64 off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        client.write(*fh, 0, off, 8 * kBlockSize).ok());
    off += 8 * kBlockSize;
  }
  fs.drain_data();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark takes its own flags out of argv first; the harness
  // table owns what is left, so an argument neither knows exits 2.
  benchmark::Initialize(&argc, argv);
  const mif::obs::BenchReport report("micro_ops", argc, argv);
  if (report.flags().replicas >= 2) {
    report.check_redundancy(kReplicatedTargets);
    benchmark::RegisterBenchmark("BM_ReplicatedStripeWrite",
                                 BM_ReplicatedStripeWrite, report.flags());
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
