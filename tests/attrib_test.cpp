// Cost-attribution tests: the conservation invariant (per-principal sums
// equal the global counters the stack already keeps), the propagation
// mechanics (ambient stack, frame principals, formation pro-rata, async
// stall, cross-shard rename), Jain's fairness, and the critical-path
// profiler built on the attribution cost spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/pfs.hpp"
#include "obs/attrib.hpp"
#include "obs/critpath.hpp"
#include "obs/span.hpp"
#include "shard/transport.hpp"

namespace mif {
namespace {

/// Conservation tolerance: per-principal buckets accumulate in a different
/// order than the global counters, so sums agree only to FP re-association.
void ExpectConserved(double attributed, double global) {
  const double tol =
      1e-9 * std::max({1.0, std::fabs(attributed), std::fabs(global)});
  EXPECT_NEAR(attributed, global, tol);
}

/// The independent cluster-wide totals every ledger category must sum to.
struct GlobalCosts {
  double disk_ms{0.0};
  double net_ms{0.0};
  double mds_cpu_ms{0.0};
  u64 net_bytes{0};
};

GlobalCosts global_costs(core::ParallelFileSystem& fs) {
  GlobalCosts g;
  g.disk_ms = fs.data_stats().busy_ms();
  for (std::size_t i = 0; i < fs.mds_shards(); ++i) {
    g.disk_ms += fs.mds(i).fs().disk().stats().busy_ms();
    g.mds_cpu_ms += fs.mds(i).stats().cpu_ms;
  }
  const sim::NetworkStats& mn = fs.transport().meta_network().stats();
  const sim::NetworkStats& dn = fs.transport().data_network().stats();
  g.net_ms = mn.time_ms + dn.time_ms;
  g.net_bytes = mn.bytes + dn.bytes;
  return g;
}

void expect_conservation(core::ParallelFileSystem& fs,
                         obs::Attribution& attrib) {
  const obs::CostAccount total = attrib.total();
  const GlobalCosts g = global_costs(fs);
  ExpectConserved(total.disk_ms(), g.disk_ms);
  ExpectConserved(total.net_ms, g.net_ms);
  ExpectConserved(total.mds_cpu_ms, g.mds_cpu_ms);
  EXPECT_EQ(total.net_bytes, g.net_bytes);
}

core::ClusterConfig small_cluster() {
  core::ClusterConfig cfg;
  cfg.num_targets = 4;
  cfg.target.allocator = alloc::AllocatorMode::kOnDemand;
  return cfg;
}

// --- principal & ambient mechanics ------------------------------------------

TEST(Principal, KeyRoundTripAndLabels) {
  const obs::Principal p{42, obs::OpClass::kData};
  EXPECT_EQ(obs::Principal::from_key(p.key()), p);
  EXPECT_EQ(p.label(), "client42.data");
  EXPECT_EQ((obs::Principal{7, obs::OpClass::kMeta}.label()), "client7.meta");
  EXPECT_TRUE(obs::Principal{}.system());
  EXPECT_EQ(obs::Principal{}.label(), "system");
  EXPECT_FALSE(p.system());
}

TEST(Principal, AmbientStackIsLifo) {
  EXPECT_TRUE(obs::ambient_principal().system());
  {
    obs::ScopedPrincipal outer({1, obs::OpClass::kData});
    EXPECT_EQ(obs::ambient_principal(),
              (obs::Principal{1, obs::OpClass::kData}));
    {
      obs::ScopedPrincipal inner({2, obs::OpClass::kMeta});
      EXPECT_EQ(obs::ambient_principal(),
                (obs::Principal{2, obs::OpClass::kMeta}));
    }
    EXPECT_EQ(obs::ambient_principal(),
              (obs::Principal{1, obs::OpClass::kData}));
  }
  EXPECT_TRUE(obs::ambient_principal().system());
}

TEST(Principal, FramePrincipalsNestAndRestore) {
  EXPECT_EQ(obs::frame_principals().first, nullptr);
  const obs::Principal outer[2] = {{1, obs::OpClass::kData},
                                   {2, obs::OpClass::kData}};
  const obs::Principal inner[1] = {{3, obs::OpClass::kMeta}};
  {
    obs::ScopedFramePrincipals a(outer, 2);
    EXPECT_EQ(obs::frame_principals().first, outer);
    EXPECT_EQ(obs::frame_principals().second, 2u);
    {
      obs::ScopedFramePrincipals b(inner, 1);
      EXPECT_EQ(obs::frame_principals().first, inner);
      EXPECT_EQ(obs::frame_principals().second, 1u);
    }
    EXPECT_EQ(obs::frame_principals().first, outer);
  }
  EXPECT_EQ(obs::frame_principals().first, nullptr);
  EXPECT_EQ(obs::frame_principals().second, 0u);
}

TEST(CostAccount, AddAndTotals) {
  obs::CostAccount a;
  a.disk_seek_ms = 1.0;
  a.disk_transfer_ms = 2.0;
  a.queue_wait_ms = 3.0;
  a.net_ms = 4.0;
  obs::CostAccount b;
  b.disk_rotation_ms = 0.5;
  b.mds_cpu_ms = 0.25;
  b.net_bytes = 100;
  b.rpcs = 2;
  a.add(b);
  EXPECT_DOUBLE_EQ(a.disk_ms(), 3.5);
  EXPECT_DOUBLE_EQ(a.total_ms(), 3.5 + 3.0 + 4.0 + 0.25);
  EXPECT_EQ(a.net_bytes, 100u);
  EXPECT_EQ(a.rpcs, 2u);
}

TEST(Fairness, JainIndexUnit) {
  EXPECT_DOUBLE_EQ(obs::Attribution::jain_fairness({}), 1.0);
  EXPECT_DOUBLE_EQ(obs::Attribution::jain_fairness({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(obs::Attribution::jain_fairness({3.0, 3.0, 3.0, 3.0}),
                   1.0);
  // One client hogging everything: index → 1/n.
  const double skew = obs::Attribution::jain_fairness({100.0, 0.0, 0.0, 0.0});
  EXPECT_NEAR(skew, 0.25, 1e-12);
  // Mild skew sits strictly between 1/n and 1.
  const double mild = obs::Attribution::jain_fairness({2.0, 1.0, 1.0, 1.0});
  EXPECT_GT(mild, 0.25);
  EXPECT_LT(mild, 1.0);
}

// --- whole-stack conservation ------------------------------------------------

TEST(Attribution, ConservesAcrossTwoClients) {
  core::ParallelFileSystem fs(small_cluster());
  obs::Attribution attrib;
  fs.set_attribution(&attrib);
  auto c1 = fs.connect(ClientId{1});
  auto c2 = fs.connect(ClientId{2});
  auto f1 = c1.create("a");
  auto f2 = c2.create("b");
  ASSERT_TRUE(f1);
  ASSERT_TRUE(f2);
  ASSERT_TRUE(c1.write(*f1, 0, 0, 4 << 20).ok());
  ASSERT_TRUE(c2.write(*f2, 0, 0, 1 << 20).ok());
  ASSERT_TRUE(c1.read(*f1, 0, 4 << 20).ok());
  ASSERT_TRUE(c1.close(*f1).ok());
  ASSERT_TRUE(c2.close(*f2).ok());
  fs.finish_mds();
  fs.drain_data();

  expect_conservation(fs, attrib);

  // Both clients hold accounts, and the 4x writer paid more transfer.
  const auto accounts = attrib.accounts();
  const auto a1 =
      accounts.find(obs::Principal{1, obs::OpClass::kData}.key());
  const auto a2 =
      accounts.find(obs::Principal{2, obs::OpClass::kData}.key());
  ASSERT_NE(a1, accounts.end());
  ASSERT_NE(a2, accounts.end());
  EXPECT_GT(a1->second.disk_transfer_ms, a2->second.disk_transfer_ms);
  EXPECT_GT(a1->second.net_bytes, a2->second.net_bytes);
  EXPECT_GT(a1->second.rpcs, 0u);
  // Meta principals carry the create/close MDS work.
  EXPECT_NE(accounts.find(obs::Principal{1, obs::OpClass::kMeta}.key()),
            accounts.end());
}

TEST(Attribution, UntaggedWorkLandsOnSystemPrincipal) {
  core::ParallelFileSystem fs(small_cluster());
  obs::Attribution attrib;
  fs.set_attribution(&attrib);
  // Straight through the RPC stub, no client session → no ambient tag.
  ASSERT_TRUE(fs.rpc().mkdir("dir"));
  ASSERT_TRUE(fs.rpc().create("dir/f"));
  fs.finish_mds();

  const auto accounts = attrib.accounts();
  const auto sys = accounts.find(obs::Principal{}.key());
  ASSERT_NE(sys, accounts.end());
  EXPECT_GT(sys->second.rpcs, 0u);
  EXPECT_GT(sys->second.mds_cpu_ms, 0.0);
  expect_conservation(fs, attrib);
}

TEST(Attribution, QueueWaitChargedToContributors) {
  core::ParallelFileSystem fs(small_cluster());
  obs::Attribution attrib;
  fs.set_attribution(&attrib);
  auto c1 = fs.connect(ClientId{1});
  auto c2 = fs.connect(ClientId{2});
  auto f1 = c1.create("a");
  auto f2 = c2.create("b");
  ASSERT_TRUE(f1);
  ASSERT_TRUE(f2);
  // Interleave un-drained writes so the writeback queues coalesce work from
  // both clients into shared dispatches.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(c1.write(*f1, 0, u64{64} * 1024 * i, 64 * 1024).ok());
    ASSERT_TRUE(c2.write(*f2, 0, u64{64} * 1024 * i, 64 * 1024).ok());
  }
  fs.drain_data();

  const obs::CostAccount total = attrib.total();
  EXPECT_GT(total.queue_wait_ms, 0.0);
  EXPECT_GT(total.disk_requests, 0u);
  // The wait belongs to the data principals, not the system bucket.
  const auto accounts = attrib.accounts();
  const auto sys = accounts.find(obs::Principal{}.key());
  if (sys != accounts.end()) {
    EXPECT_DOUBLE_EQ(sys->second.queue_wait_ms, 0.0);
  }
  expect_conservation(fs, attrib);
}

TEST(Attribution, FormationSplitsFrameCostProRata) {
  core::ClusterConfig cfg = small_cluster();
  cfg.rpc.kind = rpc::TransportOptions::Kind::kFormation;
  core::ParallelFileSystem fs(cfg);
  obs::Attribution attrib;
  fs.set_attribution(&attrib);
  auto c1 = fs.connect(ClientId{1});
  auto c2 = fs.connect(ClientId{2});
  auto f1 = c1.create("a");
  auto f2 = c2.create("b");
  ASSERT_TRUE(f1);
  ASSERT_TRUE(f2);
  // Interleaved small writes on the SAME stream keys coalesce into shared
  // frames; client 1 contributes 3x the bytes of client 2.
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(c1.write(*f1, 0, u64{48} * 1024 * i, 48 * 1024).ok());
    ASSERT_TRUE(c2.write(*f2, 0, u64{16} * 1024 * i, 16 * 1024).ok());
  }
  ASSERT_TRUE(c1.close(*f1).ok());
  ASSERT_TRUE(c2.close(*f2).ok());
  fs.finish_mds();
  fs.drain_data();

  // Pro-rata by bytes with last-gets-remainder: conservation is exact even
  // though frames were split across contributors.
  expect_conservation(fs, attrib);

  const auto accounts = attrib.accounts();
  const auto a1 =
      accounts.find(obs::Principal{1, obs::OpClass::kData}.key());
  const auto a2 =
      accounts.find(obs::Principal{2, obs::OpClass::kData}.key());
  ASSERT_NE(a1, accounts.end());
  ASSERT_NE(a2, accounts.end());
  // Byte-weighted split: the 3x contributor pays about 3x the wire cost
  // (headers shift it slightly; allow a generous band).
  const double ratio = a1->second.net_ms / a2->second.net_ms;
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.5);
}

TEST(Attribution, AsyncStallMatchesPipelineReport) {
  core::ClusterConfig cfg = small_cluster();
  cfg.rpc.pipeline_depth = 8;
  core::ParallelFileSystem fs(cfg);
  obs::Attribution attrib;
  fs.set_attribution(&attrib);
  auto c1 = fs.connect(ClientId{1});
  auto f1 = c1.create("a");
  ASSERT_TRUE(f1);
  ASSERT_TRUE(c1.write(*f1, 0, 0, 8 << 20).ok());
  ASSERT_TRUE(c1.close(*f1).ok());
  fs.drain_data();

  const rpc::AsyncTransport* async = fs.transport().async();
  ASSERT_NE(async, nullptr);
  const double pipeline_stall = async->report().stall_ms;
  ASSERT_GT(pipeline_stall, 0.0) << "workload too small to fill the window";
  ExpectConserved(attrib.total().stall_ms, pipeline_stall);
  expect_conservation(fs, attrib);
}

TEST(Attribution, CrossShardRenameStaysAttributed) {
  core::ClusterConfig cfg = small_cluster();
  cfg.mds.shards = 2;
  cfg.mds.placement = shard::Policy::kSubtree;
  core::ParallelFileSystem fs(cfg);
  obs::Attribution attrib;
  fs.set_attribution(&attrib);
  auto c1 = fs.connect(ClientId{1});
  // Round-robin subtree delegation: consecutive top-level mkdirs land on
  // different shards.
  ASSERT_TRUE(fs.rpc().mkdir("a"));
  ASSERT_TRUE(fs.rpc().mkdir("b"));
  auto fh = c1.create("a/f");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c1.write(*fh, 0, 0, 256 * 1024).ok());
  ASSERT_TRUE(c1.close(*fh).ok());
  auto renamed = c1.rename("a/f", "b/f");
  ASSERT_TRUE(renamed);
  fs.finish_mds();
  fs.drain_data();

  ASSERT_NE(fs.transport().sharded(), nullptr);
  EXPECT_GE(fs.transport().sharded()->stats().renames_cross, 1u);
  // Both phases of the two-phase rename were charged under the caller.
  const auto accounts = attrib.accounts();
  const auto meta =
      accounts.find(obs::Principal{1, obs::OpClass::kMeta}.key());
  ASSERT_NE(meta, accounts.end());
  EXPECT_GT(meta->second.rpcs, 0u);
  expect_conservation(fs, attrib);
}

TEST(Attribution, ConcurrentClientsConserve) {
  core::ParallelFileSystem fs(small_cluster());
  obs::Attribution attrib;
  fs.set_attribution(&attrib);

  constexpr int kThreads = 4;
  // Below the 64-write layout-report threshold, so threaded writes never
  // call into the (unlocked) MDS (same bound as concurrency_test).
  constexpr u64 kWrites = 63;
  std::vector<client::ClientFs> clients;
  std::vector<client::FileHandle> fhs;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(fs.connect(ClientId{static_cast<u32>(t) + 1}));
    auto fh = clients.back().create("f" + std::to_string(t));
    ASSERT_TRUE(fh);
    fhs.push_back(*fh);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (u64 w = 0; w < kWrites; ++w) {
        (void)clients[t].write(fhs[t], 0, w * 16 * 1024, 16 * 1024);
      }
    });
  }
  for (auto& th : threads) th.join();
  fs.drain_data();

  expect_conservation(fs, attrib);
  const auto accounts = attrib.accounts();
  for (int t = 0; t < kThreads; ++t) {
    const auto it = accounts.find(
        obs::Principal{static_cast<u32>(t) + 1, obs::OpClass::kData}.key());
    ASSERT_NE(it, accounts.end()) << "client " << t + 1;
    EXPECT_GT(it->second.net_bytes, 0u);
  }
}

TEST(Attribution, JsonShape) {
  core::ParallelFileSystem fs(small_cluster());
  obs::Attribution attrib;
  fs.set_attribution(&attrib);
  auto c1 = fs.connect(ClientId{1});
  auto f1 = c1.create("a");
  ASSERT_TRUE(f1);
  ASSERT_TRUE(c1.write(*f1, 0, 0, 1 << 20).ok());
  ASSERT_TRUE(c1.close(*f1).ok());
  fs.finish_mds();
  fs.drain_data();

  const obs::Json j = fs.attribution_json();
  ASSERT_TRUE(j.is_object());
  ASSERT_TRUE(j.at("principals").is_object());
  ASSERT_TRUE(j.at("global").is_object());
  EXPECT_TRUE(j.at("global").at("disk_ms").is_number());
  EXPECT_TRUE(j.at("global").at("net_bytes").is_number());
  EXPECT_TRUE(j.at("fairness").is_number());
  const obs::Json& p = j.at("principals").at("client1.data");
  ASSERT_TRUE(p.is_object());
  for (const char* k :
       {"disk_seek_ms", "disk_rotation_ms", "disk_skip_ms",
        "disk_transfer_ms", "queue_wait_ms", "stall_ms", "net_ms",
        "mds_cpu_ms", "fault_delay_ms", "net_bytes", "rpcs",
        "disk_requests", "total_ms"}) {
    EXPECT_TRUE(p.at(k).is_number()) << k;
  }
  // Detached ledger → null section (the byte-identity guarantee).
  fs.set_attribution(nullptr);
  EXPECT_TRUE(fs.attribution_json().is_null());
}

// --- spans against the ledger ------------------------------------------------

/// Sim-clock span milliseconds summed per ledger cost family.
struct SpanFamilies {
  double queue_wait_ms{0.0};
  double net_ms{0.0};
  double disk_ms{0.0};
  double mds_cpu_ms{0.0};
  double stall_ms{0.0};
};

SpanFamilies span_families(const obs::SpanCollector& spans) {
  SpanFamilies f;
  for (const obs::SpanRecord& s : spans.spans()) {
    const double ms = s.dur_us / 1000.0;
    if (s.name == "io.queue_wait") f.queue_wait_ms += ms;
    if (s.name == "net.exchange") f.net_ms += ms;
    if (s.name.starts_with("disk.")) f.disk_ms += ms;
    if (s.name == "mds.cpu") f.mds_cpu_ms += ms;
    if (s.name == "rpc.stall") f.stall_ms += ms;
  }
  return f;
}

// Every recorder that charges the ledger records the matching sim span into
// the same attachment, so on every mount shape each cost family's spans sum
// to the ledger's total for it; a recorder left out of the attachment
// breaks its family's pair.
TEST(Attribution, SpanFamiliesMatchLedgerOnEveryMountShape) {
  std::vector<std::pair<const char*, core::ClusterConfig>> shapes;
  core::ClusterConfig base = small_cluster();
  base.mds.mfs.cache_blocks = 64;  // metadata misses queue on the MDS disk
  shapes.emplace_back("plain", base);
  shapes.emplace_back("pipelined", base);
  shapes.back().second.rpc.pipeline_depth = 4;
  shapes.emplace_back("formation", base);
  shapes.back().second.rpc.kind = rpc::TransportOptions::Kind::kFormation;
  shapes.emplace_back("qos", base);
  shapes.back().second.rpc.qos.rate_bytes_per_ms = 4000.0;
  shapes.emplace_back("hash shards", base);
  shapes.back().second.mds.shards = 3;
  shapes.back().second.mds.placement = shard::Policy::kHash;
  shapes.emplace_back("replicas", base);
  shapes.back().second.redundancy.replicas = 2;

  for (const auto& [name, cfg] : shapes) {
    SCOPED_TRACE(name);
    obs::Config big;
    big.span_capacity = std::size_t{1} << 17;
    obs::SpanCollector spans(big);
    obs::Attribution attrib;
    core::ParallelFileSystem fs(cfg);
    fs.set_spans(&spans);
    fs.set_attribution(&attrib);
    constexpr int kFiles = 120;
    {
      // One large write fills a pipelined window (rpc.stall).
      auto c = fs.connect(ClientId{1});
      auto fh = c.create("big");
      ASSERT_TRUE(fh);
      ASSERT_TRUE(c.write(*fh, 0, 0, 8 << 20).ok());
      ASSERT_TRUE(c.close(*fh).ok());
    }
    for (int i = 0; i < kFiles; ++i) {
      auto c = fs.connect(ClientId{static_cast<u32>(1 + i % 2)});
      auto fh = c.create("f" + std::to_string(i));
      ASSERT_TRUE(fh);
      ASSERT_TRUE(c.write(*fh, 0, 0, 64 * 1024).ok());
      ASSERT_TRUE(c.close(*fh).ok());
    }
    for (int i = 0; i < kFiles; ++i) {
      obs::ScopedPrincipal sp({3, obs::OpClass::kMeta});
      ASSERT_TRUE(fs.rpc().stat("f" + std::to_string(i)).ok());
    }
    fs.finish_mds();
    fs.drain_data();

    ASSERT_EQ(spans.dropped(), 0u);
    const SpanFamilies f = span_families(spans);
    const obs::CostAccount total = attrib.total();
    EXPECT_GT(total.queue_wait_ms, 0.0);
    EXPECT_GT(total.mds_cpu_ms, 0.0);
    if (cfg.rpc.pipeline_depth >= 2) {
      EXPECT_GT(total.stall_ms, 0.0);
    }
    auto expect_family = [](const char* family, double spans_ms,
                            double ledger_ms) {
      SCOPED_TRACE(family);
      ExpectConserved(spans_ms, ledger_ms);
    };
    expect_family("io.queue_wait", f.queue_wait_ms, total.queue_wait_ms);
    expect_family("net.exchange", f.net_ms, total.net_ms);
    expect_family("disk.*", f.disk_ms, total.disk_ms());
    expect_family("mds.cpu", f.mds_cpu_ms, total.mds_cpu_ms);
    expect_family("rpc.stall", f.stall_ms, total.stall_ms);
  }
}

// --- critical path -----------------------------------------------------------

/// One deterministic mixed workload against a fresh cluster + collector +
/// ledger; returns the critical-path report.
obs::Json critpath_run(std::size_t top_k) {
  core::ParallelFileSystem fs(small_cluster());
  obs::SpanCollector spans;
  obs::Attribution attrib;
  fs.set_spans(&spans);
  fs.set_attribution(&attrib);
  auto c1 = fs.connect(ClientId{1});
  auto c2 = fs.connect(ClientId{2});
  auto f1 = c1.create("a");
  auto f2 = c2.create("b");
  EXPECT_TRUE(f1 && f2);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(c1.write(*f1, 0, u64{256} * 1024 * i, 256 * 1024).ok());
    EXPECT_TRUE(c2.write(*f2, 0, u64{64} * 1024 * i, 64 * 1024).ok());
  }
  EXPECT_TRUE(c1.read(*f1, 0, 2 << 20).ok());
  EXPECT_TRUE(c1.close(*f1).ok());
  EXPECT_TRUE(c2.close(*f2).ok());
  fs.finish_mds();
  fs.drain_data();
  return obs::analyze_critical_path(spans, top_k);
}

TEST(CriticalPath, SegmentNameMapping) {
  EXPECT_EQ(obs::segment_of("io.queue_wait"), obs::Segment::kQueue);
  EXPECT_EQ(obs::segment_of("net.exchange"), obs::Segment::kNetwork);
  EXPECT_EQ(obs::segment_of("disk.seek"), obs::Segment::kDisk);
  EXPECT_EQ(obs::segment_of("disk.skip"), obs::Segment::kDisk);
  EXPECT_EQ(obs::segment_of("disk.transfer"), obs::Segment::kDisk);
  EXPECT_EQ(obs::segment_of("mds.cpu"), obs::Segment::kMds);
  EXPECT_EQ(obs::segment_of("rpc.stall"), obs::Segment::kStall);
  EXPECT_EQ(obs::segment_of("fault.delay"), obs::Segment::kFault);
  EXPECT_EQ(obs::segment_of("client.write"), obs::Segment::kNone);
  EXPECT_EQ(obs::to_string(obs::Segment::kQueue), "queue");
}

TEST(CriticalPath, DecompositionSumsToTotal) {
  const obs::Json j = critpath_run(16);
  const auto& reqs = j.at("requests").as_array();
  ASSERT_FALSE(reqs.empty());
  for (const obs::Json& r : reqs) {
    const obs::Json& seg = r.at("segments");
    const double sum =
        seg.at("queue_ms").as_double() + seg.at("network_ms").as_double() +
        seg.at("disk_ms").as_double() + seg.at("mds_ms").as_double() +
        seg.at("stall_ms").as_double() + seg.at("fault_ms").as_double();
    const double total = r.at("total_ms").as_double();
    EXPECT_NEAR(sum, total, 1e-9 * std::max(1.0, total));
    EXPECT_FALSE(r.at("root").as_string().empty());
    EXPECT_NE(r.at("dominant").as_string(), "none");
  }
  // Slowest-first ordering.
  for (std::size_t i = 1; i < reqs.size(); ++i) {
    EXPECT_GE(reqs[i - 1].at("total_ms").as_double(),
              reqs[i].at("total_ms").as_double());
  }
  EXPECT_GT(j.at("traced_requests").as_u64(), 0u);
}

TEST(CriticalPath, TopKSelectionIsDeterministic) {
  // Two identical runs against fresh collectors: trace ids restart at 1 and
  // every cost is sim-clock driven, so the reports must match byte-for-byte.
  EXPECT_EQ(critpath_run(8).dump(), critpath_run(8).dump());
  // A tighter k keeps the slowest prefix of the wider report.
  const obs::Json wide = critpath_run(8);
  const obs::Json narrow = critpath_run(3);
  const auto& w = wide.at("requests").as_array();
  const auto& n = narrow.at("requests").as_array();
  ASSERT_LE(n.size(), 3u);
  for (std::size_t i = 0; i < n.size(); ++i) {
    EXPECT_EQ(n[i].dump(), w[i].dump());
  }
}

}  // namespace
}  // namespace mif
