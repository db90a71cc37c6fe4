// Ablation: embedded-directory lazy-free batch size (§IV-A).  Deleting a
// directory's files one by one, the batch size controls how often the
// free-space bitmap transaction is paid.
#include <cstdio>

#include "mds/mds.hpp"
#include "obs/report.hpp"
#include "util/table.hpp"

namespace {

struct Out {
  double ops_per_sec;
  mif::u64 disk_accesses;
};

Out run(mif::u64 batch, int files) {
  using namespace mif;
  mds::MdsConfig cfg;
  cfg.mfs.mode = mfs::DirectoryMode::kEmbedded;
  cfg.mfs.embedded.lazy_free_batch = batch;
  cfg.mfs.cache_blocks = 4096;
  mds::Mds mds(cfg);

  const int kFiles = files;
  if (!mds.mkdir("d")) return {};
  for (int i = 0; i < kFiles; ++i)
    (void)mds.create("d/f" + std::to_string(i));
  mds.finish();
  mds.fs().cache().invalidate_all();

  const double t0 = mds.fs().elapsed_ms();
  const u64 a0 = mds.fs().disk_accesses();
  for (int i = 0; i < kFiles; ++i)
    (void)mds.unlink("d/f" + std::to_string(i));
  mds.finish();
  const double dt = mds.fs().elapsed_ms() - t0;
  return {kFiles / (dt * 1e-3), mds.fs().disk_accesses() - a0};
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  mif::obs::BenchReport report("ablation_lazyfree", argc, argv);
  const int files = report.quick() ? 500 : 5000;
  std::printf(
      "Ablation — lazy-free batch size vs delete throughput (%d files)\n\n",
      files);
  Table t({"batch", "delete ops/s", "disk accesses"});
  for (mif::u64 batch : {1u, 4u, 16u, 64u, 256u}) {
    const Out o = run(batch, files);
    t.add_row({std::to_string(batch), Table::num(o.ops_per_sec, 0),
               std::to_string(o.disk_accesses)});
    if (report.json_enabled()) {
      mif::obs::Json config;
      config["lazy_free_batch"] = batch;
      mif::obs::Json results;
      results["delete_ops_per_sec"] = o.ops_per_sec;
      results["disk_accesses"] = o.disk_accesses;
      report.add_run("batch=" + std::to_string(batch), std::move(config),
                     std::move(results));
    }
  }
  t.print();
  if (!report.write()) return 1;
  std::printf(
      "\nBatch=1 degenerates to eager freeing (one bitmap transaction per "
      "unlink); the paper's batching amortises it away.\n");
  return 0;
}
