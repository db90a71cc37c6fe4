// Ablation for §IV-D: how the metadata distribution policy interacts with
// embedded directories.  The paper's limitation: hash-based placement
// scatters a directory's children across servers, so the embedded layout's
// co-location cannot help; subtree delegation preserves it.  Runs on a
// 4-shard mount, so placement and routing are the mounted file system's own.
#include <cstdio>

#include "core/pfs.hpp"
#include "obs/report.hpp"
#include "util/table.hpp"

namespace {

struct Out {
  mif::u64 accesses;
  double ms;
  mif::u64 fanout;
};

/// Metadata disk accesses and elapsed time summed over every shard, and the
/// metadata sub-envelopes the router has sent so far.
Out totals(mif::core::ParallelFileSystem& fs) {
  Out o{0, 0.0, fs.transport().sharded()->stats().meta_ops};
  for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
    o.accesses += fs.mds(s).fs().disk_accesses();
    o.ms += fs.mds(s).fs().elapsed_ms();
  }
  return o;
}

Out run(mif::shard::Policy policy, mif::mfs::DirectoryMode mode, bool quick) {
  mif::core::ClusterConfig cfg;
  cfg.mds.shards = 4;
  cfg.mds.placement = policy;
  cfg.mds.mfs.mode = mode;
  cfg.mds.mfs.cache_blocks = 2048;
  mif::core::ParallelFileSystem fs(cfg);

  const int kDirs = 4, kFiles = quick ? 250 : 2500;
  for (int d = 0; d < kDirs; ++d) {
    (void)fs.rpc().mkdir("proj" + std::to_string(d));
    for (int f = 0; f < kFiles; ++f) {
      (void)fs.rpc().create("proj" + std::to_string(d) + "/f" +
                            std::to_string(f));
    }
  }
  for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
    fs.mds(s).finish();
    fs.mds(s).fs().cache().invalidate_all();
  }
  const Out before = totals(fs);
  for (int d = 0; d < kDirs; ++d) {
    (void)fs.rpc().readdir_stats("proj" + std::to_string(d));
  }
  fs.finish_mds();
  const Out after = totals(fs);
  return {after.accesses - before.accesses, after.ms - before.ms,
          after.fanout - before.fanout};
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  using mif::mfs::DirectoryMode;
  using mif::shard::Policy;
  mif::obs::BenchReport report("ablation_distribution", argc, argv);
  std::printf(
      "Ablation — §IV-D: distribution policy x directory layout\n"
      "(readdir-stat over four 2500-file directories on a 4-server MDS "
      "cluster)\n\n");
  Table t({"policy", "layout", "disk accesses", "sweep ms",
           "per-dir fan-out"});
  for (auto policy : {Policy::kSubtree, Policy::kHash}) {
    for (auto mode : {DirectoryMode::kNormal, DirectoryMode::kEmbedded}) {
      const Out o = run(policy, mode, report.quick());
      t.add_row({std::string(to_string(policy)),
                 std::string(to_string(mode)), std::to_string(o.accesses),
                 Table::num(o.ms, 1), Table::num(double(o.fanout) / 4.0, 1)});
      if (report.json_enabled()) {
        mif::obs::Json config;
        config["policy"] = to_string(policy);
        config["layout"] = to_string(mode);
        mif::obs::Json results;
        results["disk_accesses"] = o.accesses;
        results["sweep_ms"] = o.ms;
        results["fanout_requests"] = o.fanout;
        report.add_run(std::string(to_string(policy)) + " " +
                           std::string(to_string(mode)),
                       std::move(config), std::move(results));
      }
    }
  }
  t.print();
  if (!report.write()) return 1;
  std::printf(
      "\nUnder subtree delegation the embedded layout answers a listing from "
      "one server's\ncontiguous region; hash placement forces every server "
      "to sweep its shard, erasing the benefit (§IV-D).\n");
  return 0;
}
