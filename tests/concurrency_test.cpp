// Thread-safety tests: the allocator strategies and storage targets accept
// concurrent streams from real threads (the simulation normally drives
// deterministic interleavings; these tests hammer the locks).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/pfs.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "osd/storage_target.hpp"

namespace mif {
namespace {

class AllocatorConcurrency
    : public ::testing::TestWithParam<alloc::AllocatorMode> {};

TEST_P(AllocatorConcurrency, ParallelStreamsOnDistinctFiles) {
  block::FreeSpace space(DiskBlock{0}, 1024 * 1024, 16);
  auto a = alloc::make_allocator(GetParam(), space);
  constexpr int kThreads = 4;
  constexpr u64 kBlocks = 2000;
  std::vector<block::ExtentMap> maps(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (u64 b = 0; b < kBlocks; ++b) {
        const Status s = a->extend({InodeNo{static_cast<u64>(t) + 1},
                                    StreamId{static_cast<u32>(t), 0},
                                    FileBlock{b}, 1},
                                   maps[t]);
        if (!s.ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // No physical block may be owned by two files.
  std::vector<std::pair<u64, u64>> phys;
  for (const auto& m : maps) {
    // Mapped ≥ written: on-demand leaves persistent unwritten window tails.
    EXPECT_GE(m.mapped_blocks(), kBlocks);
    for (const auto& e : m) phys.emplace_back(e.disk_off.v, e.length);
  }
  std::sort(phys.begin(), phys.end());
  for (std::size_t i = 1; i < phys.size(); ++i) {
    ASSERT_GE(phys[i].first, phys[i - 1].first + phys[i - 1].second);
  }
}

TEST_P(AllocatorConcurrency, ParallelStreamsOnOneSharedFile) {
  block::FreeSpace space(DiskBlock{0}, 1024 * 1024, 16);
  auto a = alloc::make_allocator(GetParam(), space);
  constexpr int kThreads = 4;
  constexpr u64 kRegion = 1000;
  block::ExtentMap map;
  std::mutex map_mu;  // the OSD serialises per-file map access; so do we
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (u64 b = 0; b < kRegion; ++b) {
        std::lock_guard lock(map_mu);
        const Status s =
            a->extend({InodeNo{1}, StreamId{static_cast<u32>(t), 0},
                       FileBlock{static_cast<u64>(t) * kRegion + b}, 1},
                      map);
        if (!s.ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(map.mapped_blocks(), kThreads * kRegion);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, AllocatorConcurrency,
    ::testing::Values(alloc::AllocatorMode::kVanilla,
                      alloc::AllocatorMode::kReservation,
                      alloc::AllocatorMode::kOnDemand),
    [](const auto& info) {
      std::string s{alloc::to_string(info.param)};
      for (auto& c : s)
        if (c == '-') c = '_';
      return s;
    });

TEST(StorageTargetConcurrency, ParallelClientsWriteDisjointFiles) {
  osd::TargetConfig cfg;
  cfg.allocator = alloc::AllocatorMode::kOnDemand;
  osd::StorageTarget target(cfg);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (u64 b = 0; b < 500; ++b) {
        if (!target
                 .write(InodeNo{static_cast<u64>(t) + 1},
                        StreamId{static_cast<u32>(t), 0}, FileBlock{b}, 1)
                 .ok())
          ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  target.drain();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    u64 mapped = 0;
    for (const auto& e : target.extents(InodeNo{static_cast<u64>(t) + 1}))
      mapped += e.length;
    EXPECT_GE(mapped, 500u);
  }
}

// The span collector takes concurrent recorders: each thread opens nested
// spans against ONE collector while the spans feed the ring, the per-phase
// stats and the slow log under the collector mutex.  Trace ids must stay
// distinct per root and every thread's spans must land.
TEST(SpanCollectorConcurrency, ParallelRecordersShareOneCollector) {
  obs::SpanCollector collector;
  constexpr int kThreads = 4;
  constexpr int kTraces = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kTraces; ++i) {
        obs::ScopedSpan root(&collector, "client.write",
                             static_cast<u64>(t));
        obs::ScopedSpan child(&collector, "osd.stripe_unit");
        collector.record_sim("disk.transfer", static_cast<u32>(t), i, 0.5,
                             collector.ambient());
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr u64 kExpected = u64{kThreads} * kTraces * 3;
  EXPECT_EQ(collector.total_spans(), kExpected);
  EXPECT_EQ(collector.size() + collector.dropped(), kExpected);

  // Every root got its own trace id; children stayed in their root's trace.
  std::set<u64> root_traces;
  for (const obs::SpanRecord& s : collector.spans()) {
    if (s.parent_id == 0 && s.clock == obs::SpanClock::kHost)
      root_traces.insert(s.trace_id);
  }
  const auto stats = collector.phase_stats();
  ASSERT_TRUE(stats.count("client.write"));
  EXPECT_EQ(stats.at("client.write").hist_ns.count(), u64{kThreads} * kTraces);
  EXPECT_EQ(collector.slow_traces().size(), obs::SpanCollector::kSlowK);

  // Export under load is a consistent snapshot.
  obs::MetricsRegistry reg;
  collector.export_metrics(reg);
  EXPECT_EQ(reg.counter("span.total").value(), kExpected);
}

// Whole-stack version: parallel clients of one ParallelFileSystem with a
// collector attached — the configuration the benches run under `--trace`.
// Metadata ops (create/close) stay on the main thread — the MDS, like a
// real one, serialises its namespace; the data path is what runs threaded.
TEST(SpanCollectorConcurrency, ParallelClientsOnOneFilesystem) {
  core::ClusterConfig cfg;
  cfg.num_targets = 4;
  cfg.target.allocator = alloc::AllocatorMode::kOnDemand;
  core::ParallelFileSystem fs(cfg);
  obs::SpanCollector spans;
  fs.set_spans(&spans);

  constexpr int kThreads = 4;
  // Below the 64-write layout-report threshold, so threaded writes never
  // call into the (unlocked) MDS.
  constexpr u64 kWrites = 63;
  std::vector<client::ClientFs> clients;
  std::vector<client::FileHandle> fhs;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(fs.connect(ClientId{static_cast<u32>(t) + 1}));
    auto fh = clients.back().create("/spans-" + std::to_string(t));
    ASSERT_TRUE(fh);
    fhs.push_back(*fh);
  }

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (u64 b = 0; b < kWrites; ++b) {
        if (!clients[t].write(fhs[t], 0, b * kBlockSize, kBlockSize).ok())
          ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  fs.drain_data();
  for (int t = 0; t < kThreads; ++t)
    ASSERT_TRUE(clients[t].close(fhs[t]).ok());

  EXPECT_EQ(failures.load(), 0);
  const auto stats = spans.phase_stats();
  ASSERT_TRUE(stats.count("client.write"));
  EXPECT_EQ(stats.at("client.write").us.count(), u64{kThreads} * kWrites);
  ASSERT_TRUE(stats.count("alloc.decide"));
  EXPECT_EQ(spans.slow_traces().size(),
            std::min<std::size_t>(obs::SpanCollector::kSlowK,
                                  kThreads * kWrites));
}

TEST(StorageTargetConcurrency, MixedReadWriteDeleteSurvives) {
  osd::TargetConfig cfg;
  cfg.allocator = alloc::AllocatorMode::kReservation;
  osd::StorageTarget target(cfg);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      const InodeNo ino{static_cast<u64>(t) + 1};
      for (int round = 0; round < 50; ++round) {
        for (u64 b = 0; b < 20; ++b) {
          if (!target.write(ino, StreamId{static_cast<u32>(t), 0},
                            FileBlock{b}, 1)
                   .ok())
            ++failures;
        }
        if (!target.read(ino, FileBlock{0}, 20).ok()) ++failures;
        target.close_file(ino);
        target.delete_file(ino);
      }
    });
  }
  for (auto& th : threads) th.join();
  target.drain();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace mif
