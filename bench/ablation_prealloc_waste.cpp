// Ablation for §III-C's sizing claim: "in our experiment on creating files
// (linux kernel code files), using static 256KB preallocation occupied 8GB
// space, 100 times more than static 16K preallocation."  We create a
// kernel-shaped tree of small files under fixed static preallocations of
// 16 KiB and 256 KiB versus the adaptive on-demand policy, and report the
// space each policy pins.
#include <cstdio>

#include "obs/report.hpp"
#include "osd/storage_target.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

struct Out {
  mif::u64 data_blocks;   // blocks holding actual file bytes
  mif::u64 pinned_blocks; // blocks unavailable to others after create+close
};

int g_files = 8000;

Out run_static(mif::u64 prealloc_bytes) {
  using namespace mif;
  osd::TargetConfig cfg;
  cfg.allocator = alloc::AllocatorMode::kStatic;
  cfg.geometry.capacity_blocks = u64{4} * 1024 * 1024;  // 16 GiB
  osd::StorageTarget t(cfg);
  Rng rng(2630);
  u64 data = 0;
  for (int i = 0; i < g_files; ++i) {
    const InodeNo ino{static_cast<u64>(i) + 1};
    const u64 size = rng.pareto(512, 128 * 1024, 1.4);  // kernel-file sizes
    const u64 blocks = bytes_to_blocks(size);
    (void)t.preallocate(ino, bytes_to_blocks(prealloc_bytes));
    (void)t.write(ino, StreamId{1, 0}, FileBlock{0}, blocks);
    t.close_file(ino);
    data += blocks;
  }
  t.drain();
  return {data, cfg.geometry.capacity_blocks - t.space().free_blocks()};
}

Out run_ondemand() {
  using namespace mif;
  osd::TargetConfig cfg;
  cfg.allocator = alloc::AllocatorMode::kOnDemand;
  cfg.geometry.capacity_blocks = u64{4} * 1024 * 1024;
  osd::StorageTarget t(cfg);
  Rng rng(2630);
  u64 data = 0;
  for (int i = 0; i < g_files; ++i) {
    const InodeNo ino{static_cast<u64>(i) + 1};
    const u64 size = rng.pareto(512, 128 * 1024, 1.4);
    const u64 blocks = bytes_to_blocks(size);
    // Files arrive as sequential writes (untar), 16 KiB at a time.
    for (u64 b = 0; b < blocks; b += 4) {
      (void)t.write(ino, StreamId{1, 0}, FileBlock{b},
                    std::min<u64>(4, blocks - b));
    }
    t.close_file(ino);
    data += blocks;
  }
  t.drain();
  return {data, cfg.geometry.capacity_blocks - t.space().free_blocks()};
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  mif::obs::BenchReport report("ablation_prealloc_waste", argc, argv);
  if (report.quick()) g_files = 1000;
  std::printf(
      "Ablation — preallocation sizing waste on %d kernel-tree files\n"
      "(paper: static 256KB occupies ~100x the space of static 16KB)\n\n",
      g_files);
  Table t({"policy", "file data MiB", "space pinned MiB", "overhead"});
  auto row = [&](const char* name, const Out& o) {
    const double data_mib =
        static_cast<double>(mif::blocks_to_bytes(o.data_blocks)) / (1 << 20);
    const double pinned_mib =
        static_cast<double>(mif::blocks_to_bytes(o.pinned_blocks)) / (1 << 20);
    t.add_row({name, Table::num(data_mib, 1), Table::num(pinned_mib, 1),
               Table::num(pinned_mib / data_mib, 2) + "x"});
    if (report.json_enabled()) {
      mif::obs::Json config;
      config["policy"] = name;
      mif::obs::Json results;
      results["data_blocks"] = o.data_blocks;
      results["pinned_blocks"] = o.pinned_blocks;
      report.add_run(name, std::move(config), std::move(results));
    }
  };
  row("static 16 KiB", run_static(16 * 1024));
  row("static 256 KiB", run_static(256 * 1024));
  row("on-demand (adaptive)", run_ondemand());
  t.print();
  if (!report.write()) return 1;
  std::printf(
      "\nOn-demand sizes its persistent windows from observed write sizes, so "
      "small files pin little while big sequential files still stream.\n");
  return 0;
}
