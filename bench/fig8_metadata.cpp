// Regenerates Fig. 8: Metarates-style metadata workloads (create, utime,
// delete, readdir-stat) on an MDS with one disk and synchronous writes,
// comparing the embedded directory layout against the traditional one.
// The paper reports (a) disk-access counts dropping under embedded mode —
// least for delete — and (b) 23–170 % throughput gains; plus the
// readdir-stat gain growing with directory size (kernel prefetch window).
#include <cstdio>
#include <vector>

#include "obs/report.hpp"
#include "rpc/mds_node.hpp"
#include "util/table.hpp"
#include "workload/metarates.hpp"

namespace {

mif::mds::MdsConfig mds_cfg(mif::mfs::DirectoryMode mode) {
  mif::mds::MdsConfig cfg;
  cfg.mfs.mode = mode;
  cfg.mfs.cache_blocks = 4096;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  using mif::mfs::DirectoryMode;
  mif::obs::BenchReport report("fig8_metadata", argc, argv);

  std::printf(
      "Fig 8 — Metarates metadata workloads: 10 clients, own directory, 5000 "
      "files each\n(paper: embedded cuts disk accesses — least for delete — "
      "and lifts throughput 23-170%%)\n\n");

  mif::workload::MetaratesConfig wcfg;
  wcfg.clients = report.quick() ? 4 : 10;
  wcfg.files_per_dir = report.quick() ? 500 : 5000;

  mif::rpc::MdsNode normal(mds_cfg(DirectoryMode::kNormal));
  mif::rpc::MdsNode embedded(mds_cfg(DirectoryMode::kEmbedded));
  const auto n = mif::workload::run_metarates(normal, wcfg);
  const auto e = mif::workload::run_metarates(embedded, wcfg);

  Table t({"workload", "normal ops/s", "embedded ops/s", "speedup",
           "disk-access proportion (embedded/normal)"});
  auto row = [&](const char* name, const mif::workload::PhaseResult& np,
                 const mif::workload::PhaseResult& ep) {
    t.add_row({name, Table::num(np.ops_per_sec()),
               Table::num(ep.ops_per_sec()),
               Table::pct(ep.ops_per_sec() / np.ops_per_sec() - 1.0),
               Table::num(100.0 * static_cast<double>(ep.disk_accesses) /
                              static_cast<double>(np.disk_accesses),
                          1) +
                   "%"});
    if (report.json_enabled()) {
      mif::obs::Json config;
      config["workload"] = name;
      mif::obs::Json results;
      results["normal_ops_per_sec"] = np.ops_per_sec();
      results["embedded_ops_per_sec"] = ep.ops_per_sec();
      results["normal_disk_accesses"] = np.disk_accesses;
      results["embedded_disk_accesses"] = ep.disk_accesses;
      report.add_run(std::string("workload=") + name, std::move(config),
                     std::move(results));
    }
  };
  row("create", n.create, e.create);
  row("utime", n.utime, e.utime);
  row("readdir-stat", n.readdir_stat, e.readdir_stat);
  row("delete", n.remove, e.remove);
  t.print();

  // ---- readdir-stat proportion vs directory size --------------------------
  std::printf(
      "\nreaddir-stat disk-access proportion vs directory size\n(paper: the "
      "decrease grows with directory size as the prefetch window ramps)\n\n");
  Table t2({"files/dir", "normal accesses", "embedded accesses",
            "proportion"});
  const std::vector<mif::u32> dir_sizes =
      report.quick() ? std::vector<mif::u32>{1000u}
                     : std::vector<mif::u32>{1000u, 2000u, 5000u, 10000u};
  for (mif::u32 files : dir_sizes) {
    mif::workload::MetaratesConfig c;
    c.clients = 4;
    c.files_per_dir = files;
    mif::rpc::MdsNode nm(mds_cfg(DirectoryMode::kNormal));
    mif::rpc::MdsNode em(mds_cfg(DirectoryMode::kEmbedded));
    const auto nr = mif::workload::run_metarates(nm, c);
    const auto er = mif::workload::run_metarates(em, c);
    t2.add_row({std::to_string(files),
                std::to_string(nr.readdir_stat.disk_accesses),
                std::to_string(er.readdir_stat.disk_accesses),
                Table::num(100.0 *
                               static_cast<double>(er.readdir_stat.disk_accesses) /
                               static_cast<double>(nr.readdir_stat.disk_accesses),
                           1) +
                    "%"});
  }
  t2.print();
  if (!report.write()) return 1;
  return 0;
}
