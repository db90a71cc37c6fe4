// Async completion-queue transport tests: ticket lifecycle, completion
// ordering (FIFO per destination, out-of-order across destinations), error
// tickets, pipeline overlap math, drain-on-unmount, and sync/async figure
// equivalence (depth 1 == the blocking chain; depth N leaves placement and
// disk figures untouched).
#include <gtest/gtest.h>

#include <vector>

#include "core/pfs.hpp"
#include "mds/mds.hpp"
#include "osd/storage_target.hpp"
#include "rpc/async.hpp"
#include "rpc/fault.hpp"
#include "rpc/inproc.hpp"
#include "rpc/stack.hpp"
#include "sim/pipeline.hpp"

namespace mif::rpc {
namespace {

BlockWriteRequest write_req(u64 ino, u64 start, u64 count) {
  BlockWriteRequest req;
  req.ino = InodeNo{ino};
  req.stream = StreamId{1, 1};
  req.runs.push_back(BlockRun{FileBlock{start}, count});
  return req;
}

// --- sim::Pipeline ----------------------------------------------------------

TEST(Pipeline, DepthOneDegeneratesToSerialSum) {
  sim::Pipeline p(1);
  p.submit(0, 2.0);
  p.submit(1, 3.0);
  p.submit(2, 4.0);
  EXPECT_DOUBLE_EQ(p.elapsed_ms(), 9.0);
  EXPECT_DOUBLE_EQ(p.stats().serial_ms, 9.0);
  EXPECT_EQ(p.stats().stalls, 2u);  // every issue after the first waited
  EXPECT_EQ(p.stats().max_inflight, 1u);
}

TEST(Pipeline, DistinctChannelsCompleteInMaxNotSum) {
  sim::Pipeline p(3);
  p.submit(0, 2.0);
  p.submit(1, 3.0);
  p.submit(2, 4.0);
  EXPECT_DOUBLE_EQ(p.elapsed_ms(), 4.0);       // max(), not 9.0
  EXPECT_DOUBLE_EQ(p.stats().serial_ms, 9.0);  // the depth-1 cost
  EXPECT_EQ(p.stats().stalls, 0u);
  EXPECT_EQ(p.stats().max_inflight, 3u);
}

TEST(Pipeline, OneChannelServesFifo) {
  sim::Pipeline p(4);
  const auto a = p.submit(0, 5.0);
  const auto b = p.submit(0, 1.0);  // same destination: serialises behind a
  EXPECT_DOUBLE_EQ(a.done_ms, 5.0);
  EXPECT_DOUBLE_EQ(b.start_ms, 5.0);
  EXPECT_DOUBLE_EQ(b.done_ms, 6.0);
  EXPECT_DOUBLE_EQ(p.elapsed_ms(), 6.0);
}

TEST(Pipeline, WindowBackpressureStallsTheIssueClock) {
  sim::Pipeline p(2);
  p.submit(0, 4.0);
  p.submit(1, 4.0);
  // Window full: this issue waits for the oldest in-flight completion.
  const auto c = p.submit(2, 1.0);
  EXPECT_DOUBLE_EQ(c.issue_ms, 4.0);
  EXPECT_EQ(p.stats().stalls, 1u);
  EXPECT_DOUBLE_EQ(p.stats().stall_ms, 4.0);
}

// --- CompletionQueue --------------------------------------------------------

TEST(CompletionQueue, SyncTicketsRetireInAdmissionOrder) {
  CompletionQueue cq;
  // Completed at issue: claimable at clock 0.
  const Ticket a = cq.admit(mds_at(0), Op::kMkdir, Response{VoidResponse{}});
  const Ticket b = cq.admit(mds_at(0), Op::kCreate, Response{VoidResponse{}});
  ASSERT_TRUE(a.valid());
  ASSERT_NE(a.id, b.id);
  auto ra = cq.try_take(a);
  ASSERT_TRUE(ra.has_value());
  EXPECT_TRUE(ra->ok());
  EXPECT_TRUE(cq.try_take(b).has_value());
  EXPECT_EQ(cq.in_flight(), 0u);
  // Between tickets completed at issue, admission decides: the first
  // admitted failure is the one wait_all reports, whichever error it is.
  cq.admit(mds_at(0), Op::kMkdir, Errc::kNotFound);
  cq.admit(mds_at(0), Op::kCreate, Errc::kIo);
  EXPECT_EQ(cq.wait_all().error(), Errc::kNotFound);
  cq.admit(mds_at(0), Op::kMkdir, Errc::kIo);
  cq.admit(mds_at(0), Op::kCreate, Errc::kNotFound);
  EXPECT_EQ(cq.wait_all().error(), Errc::kIo);
}

TEST(CompletionQueue, TakeIsBoundedByTheClock) {
  CompletionQueue cq;
  const Ticket t =
      cq.admit(osd_at(0), Op::kBlockWrite, Response{VoidResponse{}}, 5.0);
  EXPECT_FALSE(cq.try_take(t).has_value());  // still in flight at clock 0
  cq.set_clock(4.999);
  EXPECT_FALSE(cq.try_take(t).has_value());  // ticket stays
  EXPECT_EQ(cq.in_flight(), 1u);
  cq.set_clock(5.0);
  auto r = cq.try_take(t);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ok());
  EXPECT_EQ(cq.in_flight(), 0u);
}

TEST(CompletionQueue, RetirementFollowsModeledCompletionOrder) {
  CompletionQueue cq;
  const Ticket slow = cq.admit(osd_at(0), Op::kBlockWrite, Errc::kIo, 9.0);
  const Ticket fast =
      cq.admit(osd_at(1), Op::kBlockWrite, Errc::kNotFound, 2.0);
  // Stepped clocks: the later issue completes first.
  cq.set_clock(2.0);
  EXPECT_FALSE(cq.try_take(slow).has_value());
  auto first = cq.try_take(fast);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->error(), Errc::kNotFound);
  cq.set_clock(9.0);
  auto second = cq.try_take(slow);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->error(), Errc::kIo);
  // Drained together, the earlier completion's error is the one reported.
  cq.admit(osd_at(0), Op::kBlockWrite, Errc::kIo, 19.0);
  cq.admit(osd_at(1), Op::kBlockWrite, Errc::kNotFound, 12.0);
  EXPECT_EQ(cq.wait_all().error(), Errc::kNotFound);
}

TEST(CompletionQueue, WaitAdvancesTheTimeline) {
  CompletionQueue cq;
  const Ticket late =
      cq.admit(osd_at(0), Op::kBlockWrite, Response{VoidResponse{}}, 7.0);
  const Ticket early =
      cq.admit(osd_at(1), Op::kBlockWrite, Response{VoidResponse{}}, 3.0);
  const Ticket later =
      cq.admit(osd_at(2), Op::kBlockWrite, Response{VoidResponse{}}, 8.0);
  // Blocking on the late ticket moves the clock to 7.0, so the earlier
  // completion becomes claimable without a set_clock, and the later one
  // does not.
  EXPECT_TRUE(cq.wait(late).ok());
  EXPECT_TRUE(cq.try_take(early).has_value());
  EXPECT_FALSE(cq.try_take(later).has_value());
  // An already-claimed (unknown) ticket is an invalid wait.
  EXPECT_EQ(cq.wait(late).error(), Errc::kInvalid);
}

TEST(CompletionQueue, WaitAllReturnsFirstErrorInCompletionOrder) {
  CompletionQueue cq;
  cq.admit(osd_at(0), Op::kBlockWrite, Response{VoidResponse{}}, 8.0);
  cq.admit(osd_at(1), Op::kBlockWrite, Errc::kIo, 2.0);
  cq.admit(osd_at(2), Op::kBlockWrite, Errc::kNotFound, 5.0);
  const Status s = cq.wait_all();
  EXPECT_EQ(s.error(), Errc::kIo);  // earliest completion's error wins
  EXPECT_EQ(cq.in_flight(), 0u);
}

// --- sync fallback ----------------------------------------------------------

TEST(SyncFallback, InprocCompletesTicketsAtIssue) {
  mds::Mds mds;
  InprocTransport t(Endpoints{{&mds}, {}});
  const Ticket tk = t.call_async(mds_at(0), MkdirRequest{"d"});
  ASSERT_TRUE(tk.valid());
  EXPECT_EQ(tk.op, Op::kMkdir);
  auto r = t.completions().try_take(tk);
  ASSERT_TRUE(r.has_value());  // already complete: synchronous semantics
  ASSERT_TRUE(r->ok());
  EXPECT_TRUE(std::holds_alternative<InodeResponse>(**r));
  EXPECT_EQ(t.completions().in_flight(), 0u);
}

// --- AsyncTransport ---------------------------------------------------------

struct OsdPair {
  osd::StorageTarget a{};
  osd::StorageTarget b{};
  Endpoints eps() { return Endpoints{{}, {&a, &b}}; }
};

TEST(AsyncTransport, DefersCompletionAgainstThePipelinedTimeline) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  AsyncConfig cfg;
  cfg.depth = 4;
  AsyncTransport t(inner, cfg);
  const Ticket tk = t.call_async(osd_at(0), write_req(1, 0, 64));
  ASSERT_TRUE(tk.valid());
  // Not claimable yet: the issue clock has not reached its completion.
  EXPECT_FALSE(t.completions().try_take(tk).has_value());
  EXPECT_EQ(t.completions().in_flight(), 1u);
  auto r = t.completions().wait(tk);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(t.completions().in_flight(), 0u);
}

TEST(AsyncTransport, OutOfOrderAcrossOsdsFifoPerOsd) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  AsyncConfig cfg;
  cfg.depth = 8;
  AsyncTransport t(inner, cfg);
  // Two large writes to OSD 0, then one tiny write to OSD 1.  The tiny
  // exchange overtakes both big ones (distinct destination), while the two
  // OSD-0 writes must retire in issue order (FIFO per destination).
  const Ticket big1 = t.call_async(osd_at(0), write_req(1, 0, 4096));
  const Ticket big2 = t.call_async(osd_at(0), write_req(1, 4096, 4096));
  const Ticket tiny = t.call_async(osd_at(1), write_req(2, 0, 1));
  CompletionQueue& cq = t.completions();
  // Waiting on a ticket moves the clock to its completion: whatever is
  // still unclaimable then completes strictly later.
  ASSERT_TRUE(cq.wait(tiny).ok());
  EXPECT_FALSE(cq.try_take(big1).has_value());  // tiny overtook both
  EXPECT_FALSE(cq.try_take(big2).has_value());
  ASSERT_TRUE(cq.wait(big1).ok());
  EXPECT_FALSE(cq.try_take(big2).has_value());  // FIFO behind big1
  ASSERT_TRUE(cq.wait(big2).ok());
  EXPECT_EQ(cq.in_flight(), 0u);
}

TEST(AsyncTransport, OverlapBeatsTheSerialSum) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  AsyncConfig cfg;
  cfg.depth = 4;
  AsyncTransport t(inner, cfg);
  // Balanced load over two destinations: the pipelined elapsed must come in
  // well under the serial (depth-1) sum.
  for (u64 i = 0; i < 8; ++i)
    (void)t.call_async(osd_at(i % 2), write_req(1 + i % 2, i * 64, 64));
  ASSERT_TRUE(t.completions().wait_all().ok());
  const AsyncReport rep = t.report();
  EXPECT_EQ(rep.issued, 8u);
  EXPECT_GT(rep.serial_ms, rep.elapsed_ms);
  EXPECT_GE(rep.max_inflight, 2u);
}

TEST(AsyncTransport, MetadataCallsStaySynchronous) {
  mds::Mds mds;
  InprocTransport inner(Endpoints{{&mds}, {}});
  AsyncConfig cfg;
  cfg.depth = 4;
  AsyncTransport t(inner, cfg);
  // call() bypasses the pipeline entirely.
  ASSERT_TRUE(t.call(mds_at(0), MkdirRequest{"d"}).ok());
  EXPECT_EQ(t.report().issued, 0u);
  EXPECT_EQ(t.completions().in_flight(), 0u);
}

// --- adaptive depth ---------------------------------------------------------

TEST(AdaptiveDepth, GrowsWhileDevicesAreStarved) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  AsyncConfig cfg;
  cfg.depth = 2;
  cfg.depth_max = 16;
  AsyncTransport t(inner, cfg);
  // Empty device queues at every probe: the spindles are starved for
  // overlap, so the controller doubles the window each adaptation period.
  t.set_queue_probe([](u32) { return 0.0; });
  for (u64 i = 0; i < 24; ++i)
    (void)t.call_async(osd_at(i % 2), write_req(1 + i % 2, i * 8, 8));
  ASSERT_TRUE(t.completions().wait_all().ok());
  const AsyncReport rep = t.report();
  EXPECT_TRUE(rep.adaptive);
  EXPECT_EQ(rep.depth, 16u);  // 2 -> 4 -> 8 -> 16 over three periods
  EXPECT_EQ(rep.depth_changes, 3u);
  EXPECT_EQ(rep.depth_min_seen, 2u);
  EXPECT_EQ(rep.depth_max_seen, 16u);
}

TEST(AdaptiveDepth, ShrinksToTheFloorWhenQueueWaitDominates) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  AsyncConfig cfg;
  cfg.depth = 8;
  cfg.depth_max = 16;
  AsyncTransport t(inner, cfg);
  // Device queues far deeper than the window: deeper issue only lengthens
  // the line — the controller halves down to the floor and stays there.
  t.set_queue_probe([](u32) { return 1e6; });
  for (u64 i = 0; i < 24; ++i)
    (void)t.call_async(osd_at(i % 2), write_req(1 + i % 2, i * 8, 8));
  ASSERT_TRUE(t.completions().wait_all().ok());
  const AsyncReport rep = t.report();
  EXPECT_EQ(rep.depth, 2u);  // 8 -> 4 -> 2, then pinned at the floor
  EXPECT_EQ(rep.depth_changes, 2u);
  EXPECT_EQ(rep.depth_min_seen, 2u);
  EXPECT_EQ(rep.depth_max_seen, 8u);  // never grew past the start
}

TEST(AdaptiveDepth, StaticWindowIgnoresTheProbe) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  AsyncConfig cfg;
  cfg.depth = 4;  // depth_max 0: static
  AsyncTransport t(inner, cfg);
  t.set_queue_probe([](u32) { return 0.0; });
  for (u64 i = 0; i < 16; ++i)
    (void)t.call_async(osd_at(i % 2), write_req(1 + i % 2, i * 8, 8));
  ASSERT_TRUE(t.completions().wait_all().ok());
  const AsyncReport rep = t.report();
  EXPECT_FALSE(rep.adaptive);
  EXPECT_EQ(rep.depth, 4u);
  EXPECT_EQ(rep.depth_changes, 0u);
}

TEST(AdaptiveDepth, DormantWithoutAProbe) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  AsyncConfig cfg;
  cfg.depth = 2;
  cfg.depth_max = 16;
  AsyncTransport t(inner, cfg);  // armed, but no gauge wired
  for (u64 i = 0; i < 16; ++i)
    (void)t.call_async(osd_at(i % 2), write_req(1 + i % 2, i * 8, 8));
  ASSERT_TRUE(t.completions().wait_all().ok());
  const AsyncReport rep = t.report();
  EXPECT_TRUE(rep.adaptive);
  EXPECT_EQ(rep.depth, 2u);
  EXPECT_EQ(rep.depth_changes, 0u);
}

// --- error tickets ----------------------------------------------------------

TEST(FaultTransport, DropSurfacesAsIoOnTheRightTicket) {
  OsdPair osds;
  InprocTransport inner(osds.eps());
  AsyncConfig acfg;
  acfg.depth = 4;
  AsyncTransport async(inner, acfg);
  FaultTransport fault(async);
  fault.arm({.drop_after = 1, .drop_count = 1});
  const Ticket ok1 = fault.call_async(osd_at(0), write_req(1, 0, 8));
  const Ticket bad = fault.call_async(osd_at(1), write_req(2, 0, 8));
  const Ticket ok2 = fault.call_async(osd_at(0), write_req(1, 8, 8));
  CompletionQueue& cq = fault.completions();
  EXPECT_TRUE(cq.wait(ok1).ok());
  EXPECT_EQ(cq.wait(bad).error(), Errc::kIo);
  EXPECT_TRUE(cq.wait(ok2).ok());
  EXPECT_EQ(cq.in_flight(), 0u);
  // The dropped envelope never reached the servers.
  EXPECT_EQ(inner.op_counters(Op::kBlockWrite).count, 2u);
}

// --- whole-stack behaviour --------------------------------------------------

core::ClusterConfig small_cluster(u32 pipeline_depth) {
  core::ClusterConfig cfg;
  cfg.num_targets = 4;
  cfg.rpc.pipeline_depth = pipeline_depth;
  return cfg;
}

TEST(AsyncStack, DrainOnUnmountRetiresEveryTicket) {
  core::ParallelFileSystem fs(small_cluster(8));
  ASSERT_NE(fs.transport().async(), nullptr);
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("f.odb");
  ASSERT_TRUE(fh);
  for (u64 i = 0; i < 32; ++i)
    ASSERT_TRUE(c.write(*fh, 0, i << 16, u64{1} << 16).ok());
  fs.drain_data();
  EXPECT_EQ(fs.transport().top().completions().in_flight(), 0u);
  const AsyncReport rep = fs.transport().async()->report();
  EXPECT_GT(rep.issued, 0u);
  EXPECT_GT(rep.serial_ms, rep.elapsed_ms);  // striping actually overlapped
}

TEST(AsyncStack, DepthDoesNotChangePlacementOrDiskFigures) {
  auto run = [](u32 depth) {
    core::ParallelFileSystem fs(small_cluster(depth));
    auto c = fs.connect(ClientId{1});
    auto fh = c.create("same.odb");
    EXPECT_TRUE(fh.ok());
    for (u64 i = 0; i < 64; ++i)
      EXPECT_TRUE(c.write(*fh, 0, i << 14, u64{1} << 14).ok());
    EXPECT_TRUE(c.read(*fh, 0, u64{1} << 18).ok());
    fs.drain_data();
    EXPECT_TRUE(c.close(*fh).ok());
    struct Out {
      u64 extents;
      double elapsed;
      sim::DiskStats disk;
    };
    InodeNo ino = fh ? fh->ino : InodeNo{};
    return Out{fs.file_extents(ino), fs.data_elapsed_ms(), fs.data_stats()};
  };
  const auto sync = run(1);   // depth 1: no AsyncTransport is even built
  const auto deep = run(16);
  EXPECT_EQ(sync.extents, deep.extents);
  EXPECT_DOUBLE_EQ(sync.elapsed, deep.elapsed);
  EXPECT_EQ(sync.disk.requests, deep.disk.requests);
  EXPECT_EQ(sync.disk.positionings, deep.disk.positionings);
  EXPECT_EQ(sync.disk.blocks_written, deep.disk.blocks_written);
  EXPECT_DOUBLE_EQ(sync.disk.transfer_ms, deep.disk.transfer_ms);
}

TEST(AsyncStack, AdaptiveMountKeepsPlacementAndDiskFiguresStatic) {
  auto run = [](u32 adaptive_max) {
    core::ClusterConfig cfg = small_cluster(adaptive_max >= 2 ? 1 : 8);
    cfg.rpc.adaptive_depth_max = adaptive_max;
    core::ParallelFileSystem fs(cfg);
    auto c = fs.connect(ClientId{1});
    auto fh = c.create("adaptive.odb");
    EXPECT_TRUE(fh.ok());
    // Drain after every write so the device queues stay at one entry: the
    // controller (whose probe sees the queue including the write it just
    // dispatched) must find starved spindles to deepen the window.
    for (u64 i = 0; i < 64; ++i) {
      EXPECT_TRUE(c.write(*fh, 0, i << 14, u64{1} << 14).ok());
      fs.drain_data();
    }
    EXPECT_TRUE(c.close(*fh).ok());
    struct Out {
      u64 extents;
      sim::DiskStats disk;
      AsyncReport rep;
    };
    InodeNo ino = fh ? fh->ino : InodeNo{};
    return Out{fs.file_extents(ino), fs.data_stats(),
               fs.transport().async()->report()};
  };
  const auto fixed = run(0);
  const auto adaptive = run(8);
  // The controller is live (wired to the real target queue gauges) and the
  // window actually moved off its floor...
  EXPECT_FALSE(fixed.rep.adaptive);
  EXPECT_TRUE(adaptive.rep.adaptive);
  EXPECT_GT(adaptive.rep.depth_max_seen, adaptive.rep.depth_min_seen);
  // ...while placement and disk service stay identical: adapting the window
  // changes only the modeled completion timeline, never server-side effects.
  EXPECT_EQ(fixed.extents, adaptive.extents);
  EXPECT_EQ(fixed.disk.requests, adaptive.disk.requests);
  EXPECT_EQ(fixed.disk.blocks_written, adaptive.disk.blocks_written);
  EXPECT_DOUBLE_EQ(fixed.disk.transfer_ms, adaptive.disk.transfer_ms);
}

TEST(AsyncStack, DepthOneBuildsNoAsyncDecorator) {
  core::ParallelFileSystem fs(small_cluster(1));
  EXPECT_EQ(fs.transport().async(), nullptr);
  // The sync fallback still hands out tickets that complete at issue.
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("f");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, u64{1} << 16).ok());
  EXPECT_EQ(fs.transport().top().completions().in_flight(), 0u);
}

}  // namespace
}  // namespace mif::rpc
