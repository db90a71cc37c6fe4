// Regenerates Table I: number of extents ("Seg Counts") and average MDS CPU
// utilisation for IOR and BTIO without collective I/O, under Vanilla /
// Reservation / On-demand allocation.  The paper's rows:
//   Vanilla      IOR 2023  BTIO 1332   cpu 7% / 10%
//   Reservation  IOR 1242  BTIO  701   cpu 6% /  8%
//   On-demand    IOR  231  BTIO  106   cpu 1.1% / 1.0%
// — a 5–10× extent reduction that translates into MDS CPU savings.
#include <cstdio>

#include "obs/report.hpp"
#include "util/table.hpp"
#include "workload/btio.hpp"
#include "workload/ior.hpp"

namespace {

struct Row {
  mif::u64 extents;
  double cpu;
};

Row run_ior_mode(mif::alloc::AllocatorMode mode, bool quick) {
  mif::core::ClusterConfig cfg;
  cfg.num_targets = 8;
  cfg.target.allocator = mode;
  mif::core::ParallelFileSystem fs(cfg);
  mif::workload::IorConfig wcfg;
  wcfg.processes = quick ? 16 : 64;
  wcfg.request_bytes = 32 * 1024;
  wcfg.bytes_per_process = quick ? 512 * 1024 : 2 * 1024 * 1024;
  const auto r = mif::workload::run_ior(fs, wcfg);
  return {r.extents, r.mds_cpu};
}

Row run_btio_mode(mif::alloc::AllocatorMode mode, bool quick) {
  mif::core::ClusterConfig cfg;
  cfg.num_targets = 8;
  cfg.target.allocator = mode;
  mif::core::ParallelFileSystem fs(cfg);
  mif::workload::BtioConfig wcfg;
  wcfg.processes = quick ? 16 : 64;
  wcfg.timesteps = quick ? 4 : 10;
  wcfg.cells_per_process = 16;
  wcfg.cell_bytes = 8 * 1024;
  const auto r = mif::workload::run_btio(fs, wcfg);
  return {r.extents, r.mds_cpu};
}

}  // namespace

int main(int argc, char** argv) {
  using mif::Table;
  using mif::alloc::AllocatorMode;
  mif::obs::BenchReport report("table1_extents", argc, argv);
  std::printf(
      "Table I — extents generated and MDS CPU, non-collective runs\n"
      "(paper: vanilla 2023/1332, reservation 1242/701, on-demand 231/106;\n"
      " on-demand cuts extents 5-10x and MDS CPU accordingly)\n\n");

  Table t({"mode", "app", "seg counts", "MDS cpu"});
  const struct {
    const char* name;
    const char* key;
    AllocatorMode mode;
  } modes[] = {{"Vanilla", "vanilla", AllocatorMode::kVanilla},
               {"Reservation", "reservation", AllocatorMode::kReservation},
               {"On-demand", "ondemand", AllocatorMode::kOnDemand}};
  for (const auto& m : modes) {
    const Row ior = run_ior_mode(m.mode, report.quick());
    const Row btio = run_btio_mode(m.mode, report.quick());
    t.add_row({m.name, "IOR", std::to_string(ior.extents),
               Table::num(100.0 * ior.cpu, 1) + "%"});
    t.add_row({"", "BTIO", std::to_string(btio.extents),
               Table::num(100.0 * btio.cpu, 1) + "%"});
    if (report.json_enabled()) {
      for (const auto& app : {std::pair{"ior", ior}, std::pair{"btio", btio}}) {
        mif::obs::Json config;
        config["mode"] = m.key;
        config["app"] = app.first;
        mif::obs::Json results;
        results["extents"] = app.second.extents;
        results["mds_cpu"] = app.second.cpu;
        report.add_run(std::string("mode=") + m.key + " app=" + app.first,
                       std::move(config), std::move(results));
      }
    }
  }
  t.print();
  if (!report.write()) return 1;
  return 0;
}
