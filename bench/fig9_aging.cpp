// Regenerates Fig. 9: impact of file-system aging on metadata throughput.
// The paper ages the MDS file system by create/delete churn to a target
// utilisation, then re-runs the metadata micro-benchmark:
//   * creation degrades badly (−43 % at 80 % capacity for embedded);
//   * deletion is barely hurt (bitmap-clearing dominates it);
//   * Lustre (ext4/Htree lookup) beats ext3 Redbud, but embedded
//     directories still lead both by >26 %.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"
#include "util/table.hpp"
#include "workload/aging.hpp"

namespace {

mif::mds::MdsConfig cfg_for(mif::mfs::DirectoryMode mode,
                            mif::mfs::LookupDiscipline disc) {
  mif::mds::MdsConfig cfg;
  cfg.mfs.mode = mode;
  cfg.mfs.discipline = disc;
  cfg.mfs.geometry.capacity_blocks = 128 * 1024;  // 512 MiB metadata volume
  cfg.mfs.journal_area_blocks = 4096;
  // Small MDS cache relative to the aged working set: lookups hit disk,
  // which is where the Htree-vs-linear-scan and embedded differences live.
  cfg.mfs.cache_blocks = 512;
  cfg.mfs.alloc_groups = 4;  // groups large enough for a full inode table
  return cfg;
}

mif::workload::AgingResult age(mif::mfs::DirectoryMode mode,
                               mif::mfs::LookupDiscipline disc, double target,
                               mif::obs::Timeline* tl = nullptr,
                               mif::obs::Json* metrics_out = nullptr) {
  mif::mds::Mds mds(cfg_for(mode, disc));
  if (tl) mds.set_timeline(tl);
  mif::workload::AgingConfig acfg;
  acfg.target_utilisation = target;
  acfg.files_per_round = 10000;  // large aged directories
  acfg.measure_files = 1000;
  acfg.measure_dirs = 4;
  const auto r = mif::workload::run_aging(mds, acfg);
  if (tl) {
    // Final epoch refreshes the fragmentation lens, so the series' last
    // sample and the exported end-of-run gauges are the SAME snapshot —
    // the invariant scripts/gates.py asserts.
    tl->mark_epoch("end");
    if (metrics_out) {
      mif::obs::MetricsRegistry reg;
      mds.export_metrics(reg, "mds");
      mds.frag_lens()->export_metrics(reg, "frag");
      *metrics_out = reg.to_json();
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  using mif::mfs::DirectoryMode;
  using mif::mfs::LookupDiscipline;
  mif::obs::BenchReport report("fig9_aging", argc, argv,
                               {.timeseries = true});

  std::printf(
      "Fig 9 — metadata throughput after aging the MDS file system\n"
      "(paper: create suffers most — -43%% at 80%% for embedded; delete "
      "barely; embedded stays >26%% ahead)\n\n");

  Table t({"utilisation", "layout", "create ops/s", "delete ops/s"});
  const struct {
    const char* name;
    DirectoryMode mode;
    LookupDiscipline disc;
  } systems[] = {
      {"Redbud ext3 (normal)", DirectoryMode::kNormal,
       LookupDiscipline::kLinearScan},
      {"Lustre ext4 (htree)", DirectoryMode::kNormal,
       LookupDiscipline::kHtree},
      {"Redbud embedded (MiF)", DirectoryMode::kEmbedded,
       LookupDiscipline::kLinearScan},
  };
  const std::vector<double> targets =
      report.quick() ? std::vector<double>{0.1} : std::vector<double>{0.1, 0.4, 0.6, 0.8};
  for (double target : targets) {
    for (const auto& s : systems) {
      const std::string run_name =
          std::string(s.name) + " @" + std::to_string(target);
      std::unique_ptr<mif::obs::Timeline> tl;
      if (report.flags().timeseries) {
        tl = std::make_unique<mif::obs::Timeline>(report.flags().timeline);
        tl->set_label(run_name);
      }
      mif::obs::Json metrics;
      const auto r = age(s.mode, s.disc, target, tl.get(),
                         report.json_enabled() ? &metrics : nullptr);
      t.add_row({Table::num(100.0 * r.utilisation_reached, 0) + "%", s.name,
                 Table::num(r.create_ops_per_sec, 0),
                 Table::num(r.delete_ops_per_sec, 0)});
      if (report.json_enabled()) {
        mif::obs::Json config;
        config["target_utilisation"] = target;
        config["layout"] = s.name;
        mif::obs::Json results;
        results["utilisation_reached"] = r.utilisation_reached;
        results["create_ops_per_sec"] = r.create_ops_per_sec;
        results["delete_ops_per_sec"] = r.delete_ops_per_sec;
        report.add_run(run_name, std::move(config), std::move(results),
                       tl ? std::move(metrics) : mif::obs::Json{},
                       tl ? tl->to_json() : mif::obs::Json{});
      }
    }
  }
  t.print();
  if (!report.write()) return 1;
  return 0;
}
