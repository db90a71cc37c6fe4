// Token-bucket QoS transport tests: deterministic bucket refill properties,
// admission vs parking, rate-paced release on the injected clock, per-client
// FIFO, round-robin sharing, ino-scoped barriers (with the
// kGetExtents advisory exemption), sticky deferred errors, owner-principal
// attribution of released envelopes, and a multi-threaded hammering case for
// the sanitizer suites.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "mds/mds.hpp"
#include "obs/attrib.hpp"
#include "obs/span.hpp"
#include "osd/storage_target.hpp"
#include "rpc/fault.hpp"
#include "rpc/inproc.hpp"
#include "rpc/qos.hpp"

namespace mif::rpc {
namespace {

/// Wire size of a one-run block write: header + body (8+8+4+16) + data.
constexpr u64 write_wire(u64 blocks) {
  return kHeaderBytes + 36 + blocks * kBlockSize;
}
constexpr u64 kOneBlockWire = write_wire(1);
constexpr u64 kBurst = QosTransport::kBurstBytes;
/// The largest write a full bucket admits: it leaves too few tokens for a
/// one-block write, so the next envelope of its lane parks.
constexpr u64 kDrainBlocks = (kBurst - write_wire(0)) / kBlockSize;
static_assert(write_wire(kDrainBlocks) <= kBurst);
static_assert(kBurst - write_wire(kDrainBlocks) < kOneBlockWire);

BlockWriteRequest write_req(u64 ino, u64 start, u64 count) {
  BlockWriteRequest req;
  req.ino = InodeNo{ino};
  req.stream = StreamId{1, 1};
  req.runs.push_back(BlockRun{FileBlock{start}, count});
  return req;
}

struct OsdPair {
  osd::StorageTarget a{};
  osd::StorageTarget b{};
  Endpoints eps() { return Endpoints{{}, {&a, &b}}; }
};

// --- TokenBucket ------------------------------------------------------------

TEST(TokenBucket, StartsFullAndConsumesExactly) {
  TokenBucket b(100.0, 1000);
  EXPECT_DOUBLE_EQ(b.tokens(), 1000.0);
  EXPECT_TRUE(b.try_consume(600));
  EXPECT_DOUBLE_EQ(b.tokens(), 400.0);
  // Insufficient tokens: refused with no partial deduction.
  EXPECT_FALSE(b.try_consume(500));
  EXPECT_DOUBLE_EQ(b.tokens(), 400.0);
}

TEST(TokenBucket, RefillIsRateTimesElapsedCappedAtBurst) {
  TokenBucket b(100.0, 1000);
  ASSERT_TRUE(b.try_consume(1000));
  b.refill(2.0);
  EXPECT_DOUBLE_EQ(b.tokens(), 200.0);  // 100 bytes/ms * 2 ms
  b.refill(2.0);  // clock did not advance: no credit
  EXPECT_DOUBLE_EQ(b.tokens(), 200.0);
  b.refill(1.0);  // clock went backwards: no credit
  EXPECT_DOUBLE_EQ(b.tokens(), 200.0);
  b.refill(1000.0);  // long idle: capped at the burst, not rate * elapsed
  EXPECT_DOUBLE_EQ(b.tokens(), 1000.0);
}

// --- config validation ------------------------------------------------------

TEST(QosConfigValidate, RejectsUnmountableConfigs) {
  QosConfig cfg;  // rate 0: the layer is never built
  EXPECT_FALSE(cfg.enabled());
  EXPECT_EQ(validate(cfg), "");
  cfg.rate_bytes_per_ms = 1000.0;
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(validate(cfg), "");
  cfg.rate_bytes_per_ms = -1.0;
  EXPECT_NE(validate(cfg), "");
  cfg.rate_bytes_per_ms = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(validate(cfg), "");
}

// --- admission --------------------------------------------------------------

QosConfig at_rate(double rate_bytes_per_ms) {
  QosConfig cfg;
  cfg.rate_bytes_per_ms = rate_bytes_per_ms;
  return cfg;
}

TEST(QosTransport, AdmitsWithinBurstParksBeyond) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  QosTransport qos(inner, at_rate(1000.0));
  // Quarter-MiB writes: a full bucket covers three of them, not four.
  constexpr u64 kBlocks = 64;
  static_assert(3 * write_wire(kBlocks) <= kBurst);
  static_assert(4 * write_wire(kBlocks) > kBurst);
  obs::ScopedPrincipal sp({1, obs::OpClass::kData});
  for (u64 i = 0; i < 3; ++i)
    ASSERT_TRUE(qos.call(osd_at(0), write_req(1, i * kBlocks, kBlocks)).ok());
  EXPECT_EQ(inner.op_counters(Op::kBlockWrite).count, 3u);
  EXPECT_EQ(qos.backlog(), 0u);
  // Fourth write exceeds the bucket: parked, but acked like a batched write.
  auto r = qos.call(osd_at(0), write_req(1, 3 * kBlocks, kBlocks));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::holds_alternative<VoidResponse>(*r));
  EXPECT_EQ(inner.op_counters(Op::kBlockWrite).count, 3u);  // not dispatched
  EXPECT_EQ(qos.backlog(), 1u);
  EXPECT_EQ(qos.backlog_bytes(), write_wire(kBlocks));
  const QosStats s = qos.stats();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.throttled, 1u);
  EXPECT_EQ(s.backlog_peak, 1u);
}

TEST(QosTransport, UnmeteredWorkPassesThrough) {
  OsdPair osds;
  mds::Mds mds;
  InprocTransport inner(Endpoints{{&mds}, {&osds.a, &osds.b}});
  // A bucket that barely refills: if these ops were metered, the second
  // write would park behind the first.
  QosTransport qos(inner, at_rate(0.001));
  {
    // Deferrable metadata (extent reports) is never throttled.
    obs::ScopedPrincipal sp({1, obs::OpClass::kData});
    ReportExtentsRequest rep;
    rep.ino = InodeNo{1};
    rep.extent_count = 4;
    ASSERT_TRUE(qos.call(mds_at(0), Request{rep}).ok());
  }
  // System-principal data (no ScopedPrincipal open) is never throttled.
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, 0, kDrainBlocks)).ok());
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, kDrainBlocks, 1)).ok());
  EXPECT_EQ(qos.backlog(), 0u);
  const QosStats s = qos.stats();
  EXPECT_EQ(s.admitted, 0u);
  EXPECT_EQ(s.throttled, 0u);
  EXPECT_EQ(inner.op_counters(Op::kBlockWrite).count, 2u);
}

TEST(QosTransport, UnsetClockNeverRefills) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  QosTransport qos(inner, at_rate(1e9));
  obs::ScopedPrincipal sp({1, obs::OpClass::kData});
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, 0, kDrainBlocks)).ok());
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, kDrainBlocks, 1)).ok());
  EXPECT_EQ(qos.backlog(), 1u);  // the second write parked
  // Without set_clock the bucket can never earn tokens back, no matter the
  // rate — exactly what a standalone unit test wants.
  qos.pump();
  qos.pump();
  EXPECT_EQ(qos.backlog(), 1u);
  // flush() is still a full release.
  ASSERT_TRUE(qos.flush().ok());
  EXPECT_EQ(qos.backlog(), 0u);
  EXPECT_EQ(inner.op_counters(Op::kBlockWrite).count, 2u);
  EXPECT_EQ(qos.stats().forced, 1u);
}

// --- rate-paced release -----------------------------------------------------

TEST(QosTransport, RefillReleasesAtTheConfiguredRate) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  QosTransport qos(inner, at_rate(1000.0));
  double now = 0.0;
  qos.set_clock([&now] { return now; });
  obs::ScopedPrincipal sp({1, obs::OpClass::kData});
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, 0, kDrainBlocks)).ok());
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, kDrainBlocks, 1)).ok());
  EXPECT_EQ(qos.backlog(), 1u);  // the second write parked
  // The bucket is this many tokens short of the parked envelope.
  constexpr double kShort =
      static_cast<double>(kOneBlockWire - (kBurst - write_wire(kDrainBlocks)));
  // Half of them earned: not enough.
  now = 0.5 * kShort / 1000.0;
  qos.pump();
  EXPECT_EQ(qos.backlog(), 1u);
  // Enough: the parked envelope releases on the simulated clock, unforced.
  now = 1.5 * kShort / 1000.0;
  qos.pump();
  EXPECT_EQ(qos.backlog(), 0u);
  EXPECT_EQ(inner.op_counters(Op::kBlockWrite).count, 2u);
  const QosStats s = qos.stats();
  EXPECT_EQ(s.released, 1u);
  EXPECT_EQ(s.forced, 0u);
}

TEST(QosTransport, PerClientFifoHoldsTheLine) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  QosTransport qos(inner, at_rate(1000.0));
  double now = 0.0;
  qos.set_clock([&now] { return now; });
  // The first write leaves tokens for a one-block write, not a two-block one.
  constexpr u64 kFirst = kDrainBlocks - 1;
  static_assert(kBurst - write_wire(kFirst) >= write_wire(1));
  static_assert(kBurst - write_wire(kFirst) + 10 < write_wire(2));
  obs::ScopedPrincipal sp({1, obs::OpClass::kData});
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, 0, kFirst)).ok());
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, kFirst, 2)).ok());  // big
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, kFirst + 2, 1)).ok());  // small
  EXPECT_EQ(qos.backlog(), 2u);
  // Leftover tokens cover the SMALL envelope but not the big one at the head
  // of the lane: per-client FIFO must hold — nothing may jump the line.
  now = 0.01;
  qos.pump();
  EXPECT_EQ(qos.backlog(), 2u);
  // Refilled to the full burst: both release, in issue order.
  now = 100.0;
  qos.pump();
  EXPECT_EQ(qos.backlog(), 0u);
  EXPECT_EQ(qos.stats().released, 2u);
}

TEST(QosTransport, OversizeEnvelopesNeverWedgeTheLane) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  QosTransport qos(inner, at_rate(1000.0));
  double now = 0.0;
  qos.set_clock([&now] { return now; });
  // One block more than the whole bucket.
  constexpr u64 kOversize = kBurst / kBlockSize + 1;
  obs::ScopedPrincipal sp({1, obs::OpClass::kData});
  // An envelope larger than the whole bucket, empty backlog: admitted (it
  // could never earn enough tokens).
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, 0, kOversize)).ok());
  EXPECT_EQ(qos.backlog(), 0u);
  EXPECT_EQ(qos.stats().admitted, 1u);
  // Drain the bucket, then park a normal write and an oversize one behind it.
  u64 at = kOversize;
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, at, kDrainBlocks)).ok());
  at += kDrainBlocks;
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, at, 1)).ok());  // parks
  at += 1;
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, at, kOversize)).ok());  // parks
  EXPECT_EQ(qos.backlog(), 2u);
  // One envelope's worth of tokens: the normal write releases on tokens, the
  // oversize one is let through rather than wedging the lane forever.
  now = static_cast<double>(kOneBlockWire + 200) / 1000.0;
  qos.pump();
  EXPECT_EQ(qos.backlog(), 0u);
  EXPECT_EQ(qos.stats().released, 2u);
  EXPECT_EQ(inner.op_counters(Op::kBlockWrite).count, 4u);
}

// --- round-robin ------------------------------------------------------------

/// Inner transport that records the ambient principal of every call — the
/// release order and the identity each released envelope dispatches under.
struct RecordingTransport final : Transport {
  RecordingTransport() : Transport(obs::Sinks::none(), queue) {}
  CompletionQueue queue;
  std::vector<u32> clients;
  Result<Response> call(const Address&, const Request&) override {
    clients.push_back(obs::ambient_principal().client);
    return Response{VoidResponse{}};
  }
};

TEST(QosTransport, RoundRobinSharesReleases) {
  RecordingTransport inner;
  // One refill covers a whole lane's backlog (the refill credit is capped
  // at the burst), so release order is pure RR.
  QosTransport qos(inner, at_rate(1e9));
  double now = 0.0;
  qos.set_clock([&now] { return now; });
  // The first write leaves tokens for exactly one more one-block write.
  constexpr u64 kFirst = kDrainBlocks - 1;
  static_assert(kBurst - write_wire(kFirst) < 2 * kOneBlockWire);
  {
    obs::ScopedPrincipal sp({1, obs::OpClass::kData});
    // The first two writes are admitted, then two 1-block writes park.
    ASSERT_TRUE(qos.call(osd_at(0), write_req(1, 0, kFirst)).ok());
    ASSERT_TRUE(qos.call(osd_at(0), write_req(1, kFirst, 1)).ok());
    for (u64 i = 0; i < 2; ++i)
      ASSERT_TRUE(qos.call(osd_at(0), write_req(1, kFirst + 1 + i, 1)).ok());
  }
  {
    obs::ScopedPrincipal sp({2, obs::OpClass::kData});
    ASSERT_TRUE(qos.call(osd_at(1), write_req(2, 0, kFirst)).ok());
    ASSERT_TRUE(qos.call(osd_at(1), write_req(2, kFirst, 1)).ok());
    for (u64 i = 0; i < 4; ++i)
      ASSERT_TRUE(qos.call(osd_at(1), write_req(2, kFirst + 1 + i, 1)).ok());
  }
  ASSERT_EQ(qos.backlog(), 6u);
  now = 1.0;  // every lane refills to its full burst: tokens gate nothing
  qos.pump();
  EXPECT_EQ(qos.backlog(), 0u);
  // Four admissions, then RR cycles: each visit releases one envelope, and
  // client 2's longer backlog finishes alone once client 1's is empty —
  // every released envelope dispatched under its OWNER's principal, not the
  // pumping thread's.
  const std::vector<u32> want{1, 1, 2, 2, /*rr:*/ 1, 2, 1, 2, 2, 2};
  EXPECT_EQ(inner.clients, want);
}

// --- barriers ---------------------------------------------------------------

TEST(QosTransport, BarrierReleasesOnlyItsOwnInode) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  QosTransport qos(inner, at_rate(0.001));
  {
    obs::ScopedPrincipal sp({1, obs::OpClass::kData});
    ASSERT_TRUE(qos.call(osd_at(0), write_req(10, 0, kDrainBlocks)).ok());
    ASSERT_TRUE(qos.call(osd_at(0), write_req(10, kDrainBlocks, 1)).ok());
  }
  {
    obs::ScopedPrincipal sp({2, obs::OpClass::kData});
    ASSERT_TRUE(qos.call(osd_at(1), write_req(20, 0, kDrainBlocks)).ok());
    ASSERT_TRUE(qos.call(osd_at(1), write_req(20, kDrainBlocks, 1)).ok());
  }
  ASSERT_EQ(qos.backlog(), 2u);
  // A read of ino 10 must observe ino 10's queued write — and ONLY that
  // inode's: client 2's backlog must not ride out on someone else's barrier.
  BlockReadRequest read;
  read.ino = InodeNo{10};
  read.runs.push_back(BlockRun{FileBlock{0}, 1});
  ASSERT_TRUE(qos.call(osd_at(0), Request{read}).ok());
  EXPECT_EQ(qos.backlog(), 1u);
  const QosStats s = qos.stats();
  EXPECT_EQ(s.barriers, 1u);
  EXPECT_EQ(s.forced, 1u);
  EXPECT_EQ(inner.op_counters(Op::kBlockWrite).count, 3u);
}

TEST(QosTransport, GetExtentsIsAdvisoryNotABarrier) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  QosTransport qos(inner, at_rate(0.001));
  obs::ScopedPrincipal sp({1, obs::OpClass::kData});
  ASSERT_TRUE(qos.call(osd_at(0), write_req(10, 0, kDrainBlocks)).ok());
  ASSERT_TRUE(qos.call(osd_at(0), write_req(10, kDrainBlocks, 1)).ok());
  ASSERT_EQ(qos.backlog(), 1u);
  // The client's periodic extent poll is an advisory statistics read, not a
  // data dependency — a streamer must not earn a backlog bypass just by
  // polling its own layout on the report cadence.
  GetExtentsRequest ge;
  ge.ino = InodeNo{10};
  ASSERT_TRUE(qos.call(osd_at(0), Request{ge}).ok());
  EXPECT_EQ(qos.backlog(), 1u);
  const QosStats s = qos.stats();
  EXPECT_EQ(s.barriers, 0u);
  EXPECT_EQ(s.forced, 0u);
}

// --- sticky errors ----------------------------------------------------------

TEST(QosTransport, DeferredReleaseErrorSurfacesAtFlush) {
  OsdPair osds;
  InprocTransport inproc(osds.eps());
  FaultTransport fault(inproc);
  QosTransport qos(fault, at_rate(0.001));
  obs::ScopedPrincipal sp({1, obs::OpClass::kData});
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, 0, kDrainBlocks)).ok());
  ASSERT_TRUE(qos.call(osd_at(0), write_req(1, kDrainBlocks, 1)).ok());
  // The parked envelope was already acked; its release will fail — the
  // error must go sticky and surface at the flush, batching semantics.
  fault.arm({.drop_after = 0, .drop_count = 1});
  const Status s = qos.flush();
  EXPECT_EQ(s.error(), Errc::kIo);
  EXPECT_EQ(qos.stats().deferred_errors, 1u);
  // Sticky consumed: the next flush is clean.
  EXPECT_TRUE(qos.flush().ok());
}

TEST(QosTransport, DestructorDropIsObservable) {
  obs::SpanCollector spans;  // outlives the transport, like the timeline's
  obs::Sinks sinks;
  sinks.spans = &spans;
  OsdPair osds;
  InprocTransport inproc(osds.eps(), sinks);
  FaultTransport fault(inproc);
  {
    QosTransport qos(fault, at_rate(0.001));
    obs::ScopedPrincipal sp({1, obs::OpClass::kData});
    ASSERT_TRUE(qos.call(osd_at(0), write_req(1, 0, kDrainBlocks)).ok());
    ASSERT_TRUE(qos.call(osd_at(0), write_req(1, kDrainBlocks, 1)).ok());
    fault.arm({.drop_after = 0, .drop_count = 1});
    // Destroyed with a parked envelope whose release will fail: the error
    // has nowhere to surface — it must be dropped OBSERVABLY.
  }
  bool saw_drop = false;
  for (const obs::SpanRecord& r : spans.spans())
    if (r.name == "qos.dropped_error") saw_drop = true;
  EXPECT_TRUE(saw_drop);
}

// --- attribution ------------------------------------------------------------

TEST(QosTransport, ReleasedEnvelopesChargeTheirOwner) {
  OsdPair osds;
  obs::Attribution attrib;
  obs::Sinks sinks;
  sinks.attrib = &attrib;
  InprocTransport inner(osds.eps(), sinks);
  QosTransport qos(inner, at_rate(1e9));
  double now = 0.0;
  qos.set_clock([&now] { return now; });
  {
    obs::ScopedPrincipal sp({7, obs::OpClass::kData});
    ASSERT_TRUE(qos.call(osd_at(0), write_req(1, 0, kDrainBlocks)).ok());
    ASSERT_TRUE(qos.call(osd_at(0), write_req(1, kDrainBlocks, 1)).ok());
  }
  // Released from a pump with NO principal open: the charge must still land
  // on client 7, the owner — not on the system principal.
  now = 1.0;
  qos.pump();
  ASSERT_EQ(qos.backlog(), 0u);
  const auto accounts = attrib.accounts();
  const obs::Principal owner{7, obs::OpClass::kData};
  auto it = accounts.find(owner.key());
  ASSERT_NE(it, accounts.end());
  EXPECT_EQ(it->second.net_bytes, write_wire(kDrainBlocks) + kOneBlockWire);
  auto sys = accounts.find(obs::Principal{}.key());
  if (sys != accounts.end()) {
    EXPECT_EQ(sys->second.net_bytes, 0u);
  }
}

// --- sanitizer hammering ----------------------------------------------------

TEST(QosTransportConcurrency, ParallelClientsShareOneScheduler) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  QosTransport qos(inner, at_rate(64.0 * 1024.0));
  std::atomic<double> clock{0.0};
  qos.set_clock([&clock] { return clock.load(std::memory_order_relaxed); });
  constexpr int kThreads = 4;
  constexpr u64 kWritesPerThread = 64;
  // Quarter-MiB writes: every lane outruns its bucket and parks.
  constexpr u64 kBlocks = 64;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::ScopedPrincipal sp(
          {static_cast<u32>(t) + 1, obs::OpClass::kData});
      for (u64 i = 0; i < kWritesPerThread; ++i) {
        const auto r = qos.call(osd_at(static_cast<u32>(t) % 2),
                                write_req(static_cast<u64>(t) + 1,
                                          i * kBlocks, kBlocks));
        if (!r.ok()) ++failures;
        clock.store(clock.load(std::memory_order_relaxed) + 0.25,
                    std::memory_order_relaxed);
        if (i % 16 == 0) qos.pump();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(qos.flush().ok());
  EXPECT_EQ(qos.backlog(), 0u);
  const QosStats s = qos.stats();
  EXPECT_EQ(s.admitted + s.released + s.forced, kThreads * kWritesPerThread);
  EXPECT_EQ(inner.op_counters(Op::kBlockWrite).count,
            kThreads * kWritesPerThread);
}

}  // namespace
}  // namespace mif::rpc
