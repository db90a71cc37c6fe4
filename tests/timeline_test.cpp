// Flight-recorder tests: deterministic sampling over the simulated clock,
// the bounded downsampler, the fragmentation lens (extent-count and
// free-space-run distributions), config validation, and the p999 tail
// quantile gating.  The concurrency case mirrors tests/concurrency_test.cpp:
// metadata stays on the main thread, only the data path runs threaded.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "block/bitmap.hpp"
#include "client/client_fs.hpp"
#include "core/pfs.hpp"
#include "mds/mds.hpp"
#include "obs/config.hpp"
#include "obs/fraglens.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "util/stats.hpp"

namespace mif {
namespace {

// ---- config validation ------------------------------------------------------

TEST(ObsConfigValidate, AcceptsDefaultsRejectsNonsense) {
  obs::Config cfg;
  EXPECT_EQ(obs::validate(cfg), "");

  cfg.sample_interval_ms = 0.0;
  EXPECT_NE(obs::validate(cfg).find("sample_interval_ms"), std::string::npos);
  cfg.sample_interval_ms = -5.0;
  EXPECT_FALSE(obs::validate(cfg).empty());
  cfg.sample_interval_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(obs::validate(cfg).empty());
  cfg.sample_interval_ms = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(obs::validate(cfg).empty());

  cfg = obs::Config{};
  cfg.timeline_capacity = 1;
  EXPECT_NE(obs::validate(cfg).find("timeline_capacity"), std::string::npos);
}

// ---- core sampling ----------------------------------------------------------

obs::Config tiny_cfg(double interval_ms, std::size_t capacity) {
  obs::Config cfg;
  cfg.sample_interval_ms = interval_ms;
  cfg.timeline_capacity = capacity;
  return cfg;
}

TEST(Timeline, SamplesOnIntervalAndDecimatesDeterministically) {
  obs::Timeline tl(tiny_cfg(1.0, 4));
  double now = 0.0;
  tl.set_clock([&now] { return now; });
  tl.add_gauge("x", [&now] { return now; });

  for (int t = 1; t <= 9; ++t) {
    now = t;
    tl.tick();
  }
  // Samples at t=1..4 fill the 4-row store; t=5 decimates to [1,3] and
  // doubles the interval; t=7 appends; t=9 decimates to [1,5] and appends.
  EXPECT_EQ(tl.times(), (std::vector<double>{1.0, 5.0, 9.0}));
  EXPECT_EQ(tl.series("x"), (std::vector<double>{1.0, 5.0, 9.0}));
  EXPECT_EQ(tl.total_samples(), 7u);
  EXPECT_EQ(tl.downsamples(), 2u);
  EXPECT_EQ(tl.interval_ms(), 4.0);
  EXPECT_EQ(tl.last("x"), 9.0);

  // The newest sample always survives: a forced epoch lands as the tail row.
  now = 20.0;
  tl.mark_epoch("end");
  EXPECT_EQ(tl.times().back(), 20.0);
  EXPECT_EQ(tl.series("x").back(), 20.0);
}

TEST(Timeline, MinMaxAggregateOverAllSamplesNotRetainedRows) {
  obs::Timeline tl(tiny_cfg(1.0, 2));
  double now = 0.0;
  double v = 0.0;
  tl.set_clock([&now] { return now; });
  tl.add_gauge("g", [&v] { return v; });

  // t=1 and t=2 fill the 2-row store; t=3 decimates (dropping the t=2 row,
  // whose value -3 survives only in the aggregates) and appends.
  const double values[] = {7.0, -3.0, 100.0};
  for (int t = 0; t < 3; ++t) {
    now = t + 1;
    v = values[t];
    tl.tick();
  }
  EXPECT_EQ(tl.series("g"), (std::vector<double>{7.0, 100.0}));
  const std::string text = tl.to_json().dump(0);
  EXPECT_NE(text.find("\"min\": -3"), std::string::npos) << text;
  EXPECT_NE(text.find("\"max\": 100"), std::string::npos) << text;
  EXPECT_NE(text.find("\"count\": 3"), std::string::npos) << text;
}

TEST(Timeline, EpochWithoutClockAdvanceOverwritesLastRow) {
  obs::Timeline tl(tiny_cfg(1.0, 16));
  double now = 5.0;
  double v = 1.0;
  tl.set_clock([&now] { return now; });
  tl.add_gauge("g", [&v] { return v; });

  tl.tick();
  ASSERT_EQ(tl.sample_count(), 1u);
  v = 2.0;
  tl.mark_epoch("a");  // clock did not move: re-sample the same row
  EXPECT_EQ(tl.sample_count(), 1u);
  EXPECT_EQ(tl.last("g"), 2.0);
  now = 6.0;
  tl.mark_epoch("b");
  EXPECT_EQ(tl.sample_count(), 2u);
  EXPECT_EQ(tl.to_json()["epochs"].as_array().size(), 2u);
  // The shared time axis stays strictly increasing.
  const auto times = tl.times();
  for (std::size_t i = 1; i < times.size(); ++i)
    EXPECT_LT(times[i - 1], times[i]);
}

TEST(Timeline, LateGaugeBackfillsSharedTimeAxis) {
  obs::Timeline tl(tiny_cfg(1.0, 16));
  double now = 0.0;
  tl.set_clock([&now] { return now; });
  tl.add_gauge("early", [] { return 1.0; });
  now = 1.0;
  tl.tick();
  now = 2.0;
  tl.tick();
  tl.add_gauge("late", [] { return 9.0; });
  now = 3.0;
  tl.tick();
  EXPECT_EQ(tl.series("late"), (std::vector<double>{0.0, 0.0, 9.0}));
  EXPECT_EQ(tl.series("early").size(), tl.times().size());
}

TEST(Timeline, InvalidConfigClampsToDefaults) {
  obs::Timeline tl(tiny_cfg(-1.0, 0));
  EXPECT_EQ(tl.interval_ms(), obs::Config{}.sample_interval_ms);
  double now = 1.0;
  tl.set_clock([&now] { return now; });
  tl.tick();
  EXPECT_EQ(tl.sample_count(), 1u);
}

// ---- free-space run-length histogram on a hand-built bitmap -----------------

TEST(FragLens, BitmapFreeRunHistogram) {
  block::Bitmap bm(64);
  {
    Histogram h(40);
    EXPECT_EQ(bm.add_free_runs(h), 1u);  // pristine: one 64-block run
    EXPECT_EQ(h.bucket(6), 1u);          // 64 lands in [64, 128)
  }
  bm.set_range(0, 4);
  bm.set_range(8, 8);
  bm.set_range(32, 16);
  // Free runs now: [4,8) = 4, [16,32) = 16, [48,64) = 16.
  Histogram h(40);
  EXPECT_EQ(bm.add_free_runs(h), 3u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(2), 1u);  // 4 in [4, 8)
  EXPECT_EQ(h.bucket(4), 2u);  // 16 in [16, 32), twice
  EXPECT_EQ(bm.free_blocks(), 4u + 16u + 16u);
}

TEST(FragLens, SnapshotCountsLaidOutFilesOnly) {
  obs::FragSnapshot s;
  s.add_file(0);  // created but never synced: no layout yet
  s.add_file(4);
  s.add_file(8);
  EXPECT_EQ(s.files, 3u);
  EXPECT_EQ(s.laid_out_files, 2u);
  EXPECT_EQ(s.extents_total, 12u);
  EXPECT_EQ(s.extent_count_mean(), 6.0);
  s.add_dir(3.0, 2);
  s.add_dir(5.0, 1);
  s.add_dir(99.0, 0);  // empty directory: no degree contribution
  EXPECT_EQ(s.dirs, 2u);
  EXPECT_EQ(s.degree_mean(), 4.0);
  EXPECT_EQ(s.degree_max, 5.0);
}

// ---- extent-count distribution through a real MDS ---------------------------

TEST(FragLens, MdsExtentDistributionMatchesReports) {
  mds::Mds mds;
  obs::Timeline tl(tiny_cfg(0.01, 1024));
  mds.set_timeline(&tl);

  ASSERT_TRUE(mds.mkdir("dir"));
  auto f0 = mds.create("dir/f0");
  auto f1 = mds.create("dir/f1");
  auto f2 = mds.create("dir/f2");
  ASSERT_TRUE(f0 && f1 && f2);
  ASSERT_TRUE(mds.report_extents(*f0, 4).ok());
  ASSERT_TRUE(mds.report_extents(*f1, 8).ok());
  // f2 stays layout-less: counted as a file, excluded from the mean.
  tl.mark_epoch("end");

  ASSERT_NE(mds.frag_lens(), nullptr);
  const obs::FragSnapshot& s = mds.frag_lens()->last();
  EXPECT_EQ(s.files, 3u);
  EXPECT_EQ(s.laid_out_files, 2u);
  EXPECT_EQ(s.extents_total, 12u);
  EXPECT_EQ(s.extent_count_mean(), 6.0);
  EXPECT_GE(s.free_run_count, 1u);
  EXPECT_GT(s.free_blocks, 0u);

  // Timeline series and registry export are the SAME snapshot: the CI gate
  // in scripts/gates.py relies on exact equality.
  EXPECT_EQ(tl.last("frag.extent_count"), 6.0);
  obs::MetricsRegistry reg;
  mds.frag_lens()->export_metrics(reg, "frag");
  EXPECT_EQ(reg.gauge("frag.extent_count").value(),
            tl.last("frag.extent_count"));
  EXPECT_EQ(reg.gauge("frag.free_blocks").value(), tl.last("frag.free_blocks"));
  EXPECT_EQ(reg.histogram("frag.extent_counts").count(), 2u);
}

// ---- determinism: identical runs → byte-identical timeseries JSON -----------

std::string run_recorded_workload() {
  mds::Mds mds;
  obs::Timeline tl(tiny_cfg(0.05, 256));
  tl.set_label("determinism");
  mds.set_timeline(&tl);
  tl.mark_epoch("churn");
  for (int d = 0; d < 3; ++d) {
    const std::string dir = "d" + std::to_string(d);
    EXPECT_TRUE(mds.mkdir(dir));
    for (int f = 0; f < 40; ++f) {
      auto ino = mds.create(dir + "/f" + std::to_string(f));
      EXPECT_TRUE(ino);
      if (!ino) continue;
      EXPECT_TRUE(mds.report_extents(*ino, 1 + (f % 7)).ok());
      if (f % 3 == 0) {
        EXPECT_TRUE(mds.unlink(dir + "/f" + std::to_string(f)).ok());
      }
    }
  }
  mds.finish();
  tl.mark_epoch("end");
  return tl.to_json().dump(2);
}

TEST(Timeline, IdenticalRunsProduceByteIdenticalJson) {
  const std::string a = run_recorded_workload();
  const std::string b = run_recorded_workload();
  EXPECT_GT(a.size(), 100u);
  EXPECT_EQ(a, b);
}

// ---- whole-cluster wiring ----------------------------------------------------

TEST(Timeline, ClusterGaugesAndLensOnParallelFileSystem) {
  core::ClusterConfig cfg;
  cfg.num_targets = 2;
  cfg.target.allocator = alloc::AllocatorMode::kOnDemand;
  core::ParallelFileSystem fs(cfg);
  obs::Timeline tl(tiny_cfg(0.01, 1024));
  fs.set_timeline(&tl);

  auto client = fs.connect(ClientId{1});
  auto fh = client.create("/data");
  ASSERT_TRUE(fh);
  for (u64 b = 0; b < 200; ++b) {
    ASSERT_TRUE(client.write(*fh, 0, b * kBlockSize, kBlockSize).ok());
    fs.tick_timeline();
  }
  fs.drain_data();
  ASSERT_TRUE(client.close(*fh).ok());
  tl.mark_epoch("end");

  EXPECT_GE(tl.sample_count(), 2u);
  const auto times = tl.times();
  for (std::size_t i = 1; i < times.size(); ++i)
    EXPECT_LT(times[i - 1], times[i]);
  // Per-OSD, journal and lens series all share the time axis.
  EXPECT_EQ(tl.series("osd.0.queue_depth").size(), times.size());
  EXPECT_EQ(tl.series("osd.1.busy_frac").size(), times.size());
  EXPECT_EQ(tl.series("mds.journal.backlog_blocks").size(), times.size());
  EXPECT_EQ(tl.series("frag.extent_count").size(), times.size());
  EXPECT_GT(tl.last("frag.extent_count"), 0.0);
  EXPECT_GT(tl.last("osd.0.head_block"), 0.0);

  ASSERT_NE(fs.frag_lens(), nullptr);
  EXPECT_EQ(tl.last("frag.extent_count"),
            fs.frag_lens()->last().extent_count_mean());
  obs::MetricsRegistry reg;
  fs.export_metrics(reg);
  EXPECT_EQ(reg.gauge("frag.extent_count").value(),
            tl.last("frag.extent_count"));
}

// TSan coverage: threaded writers on the data path while the main thread
// ticks the recorder.  Metadata stays on the main thread (below the 64-write
// layout-report threshold, as in concurrency_test.cpp); the OSD gauge
// accessors and the lens scan take the same locks as the writers.
TEST(TimelineConcurrency, TicksRaceOnlyWithDataPathLocks) {
  core::ClusterConfig cfg;
  cfg.num_targets = 4;
  cfg.target.allocator = alloc::AllocatorMode::kOnDemand;
  core::ParallelFileSystem fs(cfg);
  obs::Timeline tl(tiny_cfg(0.01, 512));
  fs.set_timeline(&tl);

  constexpr int kThreads = 4;
  constexpr u64 kWrites = 63;
  std::vector<client::ClientFs> clients;
  std::vector<client::FileHandle> fhs;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(fs.connect(ClientId{static_cast<u32>(t) + 1}));
    auto fh = clients.back().create("/tl-" + std::to_string(t));
    ASSERT_TRUE(fh);
    fhs.push_back(*fh);
  }

  std::atomic<int> done{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (u64 b = 0; b < kWrites; ++b) {
        if (!clients[t].write(fhs[t], 0, b * kBlockSize, kBlockSize).ok())
          ++failures;
      }
      ++done;
    });
  }
  while (done.load() < kThreads) fs.tick_timeline();
  for (auto& th : threads) th.join();
  fs.drain_data();
  for (int t = 0; t < kThreads; ++t)
    ASSERT_TRUE(clients[t].close(fhs[t]).ok());
  tl.mark_epoch("end");

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(tl.sample_count(), 1u);
  EXPECT_EQ(tl.series("osd.0.queue_depth").size(), tl.times().size());
}

// ---- quantile tables / p999 gating -------------------------------------------

TEST(Quantiles, TailQuantilesAreOptIn) {
  obs::MetricsRegistry reg;
  obs::Histo& h = reg.histogram("lat");
  for (u64 v = 1; v <= 1000; ++v) h.add(v);
  std::string text = reg.to_json().dump(0);
  EXPECT_NE(text.find("\"p50\""), std::string::npos);
  EXPECT_NE(text.find("\"p99\""), std::string::npos);
  EXPECT_EQ(text.find("\"p999\""), std::string::npos)
      << "default reports must stay byte-identical";

  h.enable_tail_quantiles();
  text = reg.to_json().dump(0);
  EXPECT_NE(text.find("\"p999\""), std::string::npos);
}

TEST(Quantiles, SpanExportCarriesTail) {
  obs::SpanCollector spans;
  { obs::ScopedSpan s(&spans, "unit.op"); }
  obs::MetricsRegistry reg;
  spans.export_metrics(reg);
  EXPECT_TRUE(reg.histogram("span.unit.op").tail_quantiles());
  const std::string text = reg.to_json().dump(0);
  EXPECT_NE(text.find("\"p999\""), std::string::npos);
}

}  // namespace
}  // namespace mif
