// Regenerates Fig. 10: PostMark plus three source-tree applications (untar,
// make, make-clean) under the two directory-placement algorithms, reported
// as execution-time proportions.  The paper: 4–13 % reduction for the
// file-intensive programs, only ~4 % for CPU-bound make.
//
// Scale note: the paper runs PostMark with 100 K files / 500 K transactions
// on real hardware; we run a proportionally smaller configuration (same
// transaction mix) — the comparison is between layouts at identical
// configuration, so the proportion is what carries over.
#include <cstdio>

#include "obs/report.hpp"
#include "util/table.hpp"
#include "workload/filetree.hpp"
#include "workload/postmark.hpp"

namespace {

mif::core::ClusterConfig cluster(mif::mfs::DirectoryMode mode) {
  mif::core::ClusterConfig cfg;
  cfg.num_targets = 4;
  cfg.target.allocator = mif::alloc::AllocatorMode::kOnDemand;
  cfg.mds.mfs.mode = mode;
  cfg.mds.mfs.cache_blocks = 4096;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  using mif::mfs::DirectoryMode;
  mif::obs::BenchReport report("fig10_postmark_apps", argc, argv);

  std::printf(
      "Fig 10 — PostMark and applications, execution-time proportion\n"
      "(normal directory = 100%%; paper: 4-13%% reduction, make only ~4%% — "
      "CPU-bound)\n\n");

  Table t({"program", "normal ms", "embedded ms", "proportion",
           "reduction"});

  // ---- PostMark -----------------------------------------------------------
  {
    mif::workload::PostmarkConfig pcfg;
    pcfg.base_files = report.quick() ? 1000 : 10000;
    pcfg.transactions = report.quick() ? 5000 : 50000;
    mif::core::ParallelFileSystem nfs(cluster(DirectoryMode::kNormal));
    mif::core::ParallelFileSystem efs(cluster(DirectoryMode::kEmbedded));
    const auto n = mif::workload::run_postmark(nfs, pcfg);
    const auto e = mif::workload::run_postmark(efs, pcfg);
    t.add_row({"PostMark", Table::num(n.elapsed_ms, 0),
               Table::num(e.elapsed_ms, 0),
               Table::num(100.0 * e.elapsed_ms / n.elapsed_ms, 1) + "%",
               Table::pct(1.0 - e.elapsed_ms / n.elapsed_ms)});
    if (report.json_enabled()) {
      mif::obs::Json config;
      config["program"] = "postmark";
      mif::obs::Json results;
      results["normal_ms"] = n.elapsed_ms;
      results["embedded_ms"] = e.elapsed_ms;
      report.add_run("postmark", std::move(config), std::move(results));
    }
  }

  // ---- tar / make / make-clean over a kernel-shaped tree ------------------
  {
    mif::core::ParallelFileSystem nfs(cluster(DirectoryMode::kNormal));
    mif::core::ParallelFileSystem efs(cluster(DirectoryMode::kEmbedded));
    mif::workload::FileTreeConfig fcfg;  // defaults: 300 dirs, 12000 files
    mif::workload::FileTreeWorkload ntree(nfs, fcfg);
    mif::workload::FileTreeWorkload etree(efs, fcfg);

    struct Phase {
      const char* name;
      mif::workload::AppRunResult n, e;
    };
    Phase phases[] = {
        {"tar -x (untar)", ntree.untar(), etree.untar()},
        {"make", ntree.make(), etree.make()},
        {"make clean", ntree.make_clean(), etree.make_clean()},
        {"tar -c (scan)", ntree.tar_scan(), etree.tar_scan()},
    };
    for (const Phase& p : phases) {
      t.add_row({p.name, Table::num(p.n.elapsed_ms, 0),
                 Table::num(p.e.elapsed_ms, 0),
                 Table::num(100.0 * p.e.elapsed_ms / p.n.elapsed_ms, 1) + "%",
                 Table::pct(1.0 - p.e.elapsed_ms / p.n.elapsed_ms)});
      if (report.json_enabled()) {
        mif::obs::Json config;
        config["program"] = p.name;
        mif::obs::Json results;
        results["normal_ms"] = p.n.elapsed_ms;
        results["embedded_ms"] = p.e.elapsed_ms;
        report.add_run(p.name, std::move(config), std::move(results));
      }
    }
  }

  t.print();
  if (!report.write()) return 1;
  return 0;
}
