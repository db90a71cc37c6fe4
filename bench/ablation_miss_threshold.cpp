// Ablation: the layout_miss demotion threshold (§III-B).  A mixed workload
// (sequential streams + random streams on the same shared file) is run with
// different thresholds: too low demotes sequential streams on a single
// hiccup, too high lets random streams hold reservations they never use.
#include <cstdio>

#include "alloc/ondemand.hpp"
#include "obs/report.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

struct Out {
  mif::u64 extents;
  mif::u64 released;     // blocks reserved then given back (waste)
  mif::u64 demoted;      // streams classified random
};

Out run(mif::u32 threshold) {
  using namespace mif;
  block::FreeSpace space(DiskBlock{0}, 1024 * 1024, 8);
  alloc::AllocatorTuning tuning;
  tuning.miss_threshold = threshold;
  alloc::OnDemandAllocator a(space, tuning);
  block::ExtentMap map;
  Rng rng(99);

  const u32 seq_streams = 8, rnd_streams = 8;
  const u64 per_stream = 512;
  std::vector<u64> cursor(seq_streams, 0);
  for (u64 round = 0; round < per_stream; ++round) {
    for (u32 p = 0; p < seq_streams; ++p) {
      // Sequential stream with occasional hiccups (2 %): a far jump ahead
      // that escapes even a ramped-up sequential window — a layout_miss.
      // Too low a threshold demotes these still-mostly-sequential streams.
      if (rng.chance(0.02) && cursor[p] + 64 < per_stream) cursor[p] += 64;
      if (cursor[p] >= per_stream) continue;
      const u64 logical = static_cast<u64>(p) * per_stream + cursor[p];
      ++cursor[p];
      (void)a.extend({InodeNo{1}, StreamId{p, 0}, FileBlock{logical}, 1}, map);
    }
    for (u32 q = 0; q < rnd_streams; ++q) {
      const u64 base = (seq_streams + static_cast<u64>(q)) * per_stream;
      const u64 logical = base + rng.uniform(0, per_stream - 1);
      (void)a.extend(
          {InodeNo{1}, StreamId{seq_streams + q, 0}, FileBlock{logical}, 1},
          map);
    }
  }
  // Count only the sequential region's extents: the random half fragments
  // identically under every threshold.
  u64 seq_extents = 0;
  for (const auto& e : map)
    if (e.file_off.v < u64{seq_streams} * per_stream) ++seq_extents;
  return {seq_extents, a.stats().released_blocks,
          a.stats().prealloc_disabled};
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  mif::obs::BenchReport report("ablation_miss_threshold", argc, argv);
  std::printf(
      "Ablation — miss threshold on a mixed sequential+random stream mix\n"
      "(8 sequential streams with 2%% hiccups + 8 random streams)\n\n");
  Table t({"threshold", "extents", "released (wasted) blocks",
           "streams demoted"});
  for (mif::u32 thr : {1u, 2u, 4u, 8u, 16u}) {
    const Out o = run(thr);
    t.add_row({std::to_string(thr), std::to_string(o.extents),
               std::to_string(o.released), std::to_string(o.demoted)});
    if (report.json_enabled()) {
      mif::obs::Json config;
      config["miss_threshold"] = thr;
      mif::obs::Json results;
      results["extents"] = o.extents;
      results["released_blocks"] = o.released;
      results["streams_demoted"] = o.demoted;
      report.add_run("threshold=" + std::to_string(thr), std::move(config),
                     std::move(results));
    }
  }
  t.print();
  if (!report.write()) return 1;
  std::printf(
      "\nA threshold around 4 keeps hiccuping sequential streams preallocated "
      "while random streams are cut off quickly.\n");
  return 0;
}
