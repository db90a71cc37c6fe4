// Frame-formation engine tests: every packed frame respects kMaxFrameBytes
// (oversize singletons excepted and counted), metadata frames leave before
// data, coalescing and list folding survive the packer, watermark/queue-depth
// backpressure, barrier ordering, deferred-error stickiness and the
// destructor's observable-drop contract.
#include <gtest/gtest.h>

#include <vector>

#include "obs/span.hpp"
#include "osd/storage_target.hpp"
#include "rpc/fault.hpp"
#include "rpc/formation.hpp"
#include "rpc/inproc.hpp"

namespace mif::rpc {
namespace {

/// Wire size of a one-run block write: header + body (8+8+4+16) + data.
constexpr u64 write_wire(u64 blocks) {
  return kHeaderBytes + 36 + blocks * kBlockSize;
}
constexpr u64 kFrame = FormationTransport::kMaxFrameBytes;
constexpr u64 kWatermark = FormationTransport::kWatermarkBytes;

BlockWriteRequest write_req(u64 ino, u64 start, u64 count) {
  BlockWriteRequest req;
  req.ino = InodeNo{ino};
  req.stream = StreamId{1, 1};
  req.runs.push_back(BlockRun{FileBlock{start}, count});
  return req;
}

/// Inner transport that records every wire message the formation layer
/// ships: packed frames (call_batch) and passed-through singles (call), in
/// arrival order.  Its queue takes the tickets of the chain above it.
struct ProbeTransport final : Transport {
  ProbeTransport() : Transport(obs::Sinks::none(), queue) {}
  CompletionQueue queue;
  struct Frame {
    Address to;
    std::vector<Request> reqs;
    /// What InprocTransport::call_batch would charge for this frame.
    u64 wire() const {
      u64 bytes = kHeaderBytes;
      for (const Request& r : reqs) bytes += wire_bytes(r) - kHeaderBytes;
      return bytes;
    }
  };
  std::vector<Frame> frames;
  std::vector<std::pair<Address, Op>> singles;
  /// Wire-message arrival order: 'b' = batch frame, 's' = single call.
  std::string order;

  Result<Response> call(const Address& to, const Request& req) override {
    singles.emplace_back(to, op_of(req));
    order.push_back('s');
    return Response{VoidResponse{}};
  }
  Status call_batch(const Address& to, std::vector<Request> reqs) override {
    frames.push_back(Frame{to, std::move(reqs)});
    order.push_back('b');
    return {};
  }
};

// --- frame packing ----------------------------------------------------------

TEST(Formation, PacksQueueIntoBoundedFrames) {
  ProbeTransport probe;
  FormationTransport f(probe);
  // 64 KiB writes: a frame has room for 15 of them, not 16.
  constexpr u64 kBlocks = 16;
  static_assert(kHeaderBytes + 15 * (write_wire(kBlocks) - kHeaderBytes) <=
                kFrame);
  static_assert(kHeaderBytes + 16 * (write_wire(kBlocks) - kHeaderBytes) >
                kFrame);
  // Distinct inodes so nothing coalesces: forty envelopes stay forty, and
  // they stay below the watermark, so only the flush ships them.
  constexpr u64 kWrites = 40;
  static_assert(kWrites * write_wire(kBlocks) < kWatermark);
  for (u64 i = 0; i < kWrites; ++i)
    ASSERT_TRUE(f.call(osd_at(0), write_req(100 + i, 0, kBlocks)).ok());
  EXPECT_EQ(f.pending_bytes(), kWrites * write_wire(kBlocks));
  ASSERT_TRUE(f.flush().ok());
  // 40 envelopes at 15 per frame: 3 frames (15+15+10), every one within
  // bound.
  ASSERT_EQ(probe.frames.size(), 3u);
  for (const auto& fr : probe.frames) {
    EXPECT_LE(fr.wire(), kFrame);
    EXPECT_EQ(fr.to, osd_at(0));
  }
  EXPECT_EQ(probe.frames[0].reqs.size(), 15u);
  EXPECT_EQ(probe.frames[2].reqs.size(), 10u);
  const FormationStats s = f.stats();
  EXPECT_EQ(s.queued, kWrites);
  EXPECT_EQ(s.frames, 3u);
  EXPECT_EQ(s.oversize_frames, 0u);
}

TEST(Formation, OversizeEnvelopeShipsAloneAndIsCounted) {
  ProbeTransport probe;
  FormationTransport f(probe);
  // One block more than a frame's worth of data cannot fit.
  constexpr u64 kOversize = kFrame / kBlockSize + 1;
  ASSERT_TRUE(f.call(osd_at(0), write_req(1, 0, kOversize)).ok());
  ASSERT_TRUE(f.call(osd_at(0), write_req(2, 0, 1)).ok());
  ASSERT_TRUE(f.flush().ok());
  // The oversize envelope ships as its own frame rather than wedging the
  // queue; the frame that follows is back within bounds.
  ASSERT_EQ(probe.frames.size(), 2u);
  EXPECT_GT(probe.frames[0].wire(), kFrame);
  EXPECT_EQ(probe.frames[0].reqs.size(), 1u);
  EXPECT_LE(probe.frames[1].wire(), kFrame);
  const FormationStats s = f.stats();
  EXPECT_EQ(s.frames, 2u);
  EXPECT_EQ(s.oversize_frames, 1u);
}

TEST(Formation, MetadataFramesLeaveBeforeData) {
  ProbeTransport probe;
  FormationTransport f(probe);
  // Data queued FIRST, metadata second — the flush must still put the MDS
  // frame on the wire ahead of the bulk data it describes.
  ASSERT_TRUE(f.call(osd_at(1), write_req(1, 0, 2)).ok());
  UtimeRequest ut;
  ut.path = "/a/b";
  ASSERT_TRUE(f.call(mds_at(0), Request{ut}).ok());
  ASSERT_TRUE(f.flush().ok());
  ASSERT_EQ(probe.frames.size(), 2u);
  EXPECT_EQ(probe.frames[0].to.kind, Address::Kind::kMds);
  EXPECT_EQ(probe.frames[1].to.kind, Address::Kind::kOsd);
}

TEST(Formation, UrgentFirstReordersAMixedQueue) {
  // A single destination queue holding both classes is synthetic (MDS and
  // OSD ops normally land in different queues), but it is exactly the case
  // order_urgent_locked exists for — drive it directly through the seam.
  ProbeTransport probe;
  FormationTransport f(probe);
  ASSERT_TRUE(f.call(mds_at(0), write_req(1, 0, 1)).ok());  // data first
  UtimeRequest ut;
  ut.path = "/f";
  ASSERT_TRUE(f.call(mds_at(0), Request{ut}).ok());  // metadata second
  ASSERT_TRUE(f.flush().ok());
  ASSERT_EQ(probe.frames.size(), 1u);
  ASSERT_EQ(probe.frames[0].reqs.size(), 2u);
  // Metadata packed ahead of data despite arriving later.
  EXPECT_TRUE(std::holds_alternative<UtimeRequest>(probe.frames[0].reqs[0]));
  EXPECT_TRUE(
      std::holds_alternative<BlockWriteRequest>(probe.frames[0].reqs[1]));
  EXPECT_EQ(f.stats().urgent_reorders, 1u);
}

// --- coalescing and folding -------------------------------------------------

TEST(Formation, CoalescesRunsAndFoldsMultiRunWritesIntoLists) {
  ProbeTransport probe;
  FormationTransport f(probe);
  ASSERT_TRUE(f.call(osd_at(0), write_req(1, 0, 1)).ok());
  ASSERT_TRUE(f.call(osd_at(0), write_req(1, 1, 1)).ok());  // extends run 0-1
  ASSERT_TRUE(f.call(osd_at(0), write_req(1, 5, 1)).ok());  // new run at 5
  ASSERT_TRUE(f.flush().ok());
  // One envelope on the wire: the noncontiguous run set folded into a list.
  ASSERT_EQ(probe.frames.size(), 1u);
  ASSERT_EQ(probe.frames[0].reqs.size(), 1u);
  const auto* l = std::get_if<WriteListRequest>(&probe.frames[0].reqs[0]);
  ASSERT_NE(l, nullptr);
  ASSERT_EQ(l->runs.size(), 2u);
  EXPECT_EQ(l->runs[0].start.v, 0u);
  EXPECT_EQ(l->runs[0].count, 2u);
  EXPECT_EQ(l->runs[1].start.v, 5u);
  EXPECT_EQ(l->runs[1].count, 1u);
  const FormationStats s = f.stats();
  EXPECT_EQ(s.queued, 3u);
  EXPECT_EQ(s.coalesced_runs, 1u);
  EXPECT_EQ(s.folded_lists, 1u);
}

TEST(Formation, SingleRunWritesStayBlockWrites) {
  ProbeTransport probe;
  FormationTransport f(probe);
  ASSERT_TRUE(f.call(osd_at(0), write_req(1, 0, 1)).ok());
  ASSERT_TRUE(f.call(osd_at(0), write_req(1, 1, 1)).ok());  // stays one run
  ASSERT_TRUE(f.flush().ok());
  ASSERT_EQ(probe.frames.size(), 1u);
  ASSERT_EQ(probe.frames[0].reqs.size(), 1u);
  EXPECT_TRUE(
      std::holds_alternative<BlockWriteRequest>(probe.frames[0].reqs[0]));
  EXPECT_EQ(f.stats().folded_lists, 0u);
}

// --- backpressure and barriers ----------------------------------------------

TEST(Formation, WatermarkAndQueueDepthForceFlushes) {
  ProbeTransport probe;
  FormationTransport f(probe);
  // 512 KiB writes to distinct inodes: seven stay below the watermark, the
  // eighth reaches it.
  constexpr u64 kBlocks = 128;
  static_assert(7 * write_wire(kBlocks) < kWatermark);
  static_assert(8 * write_wire(kBlocks) >= kWatermark);
  for (u64 i = 0; i < 7; ++i)
    ASSERT_TRUE(f.call(osd_at(0), write_req(1 + i, 0, kBlocks)).ok());
  EXPECT_TRUE(probe.frames.empty());
  ASSERT_TRUE(f.call(osd_at(0), write_req(8, 0, kBlocks)).ok());
  EXPECT_FALSE(probe.frames.empty());
  EXPECT_EQ(f.pending_bytes(), 0u);
  EXPECT_EQ(f.stats().watermark_flushes, 1u);

  // One-block writes to distinct inodes: the queue-depth bound trips long
  // before their bytes reach the watermark.
  constexpr u64 kDepth = FormationTransport::kMaxQueueMsgs;
  static_assert(kDepth * write_wire(1) < kWatermark);
  ProbeTransport probe2;
  FormationTransport f2(probe2);
  for (u64 i = 0; i + 1 < kDepth; ++i)
    ASSERT_TRUE(f2.call(osd_at(0), write_req(10 + i, 0, 1)).ok());
  EXPECT_TRUE(probe2.frames.empty());
  ASSERT_TRUE(f2.call(osd_at(0), write_req(10 + kDepth, 0, 1)).ok());
  EXPECT_FALSE(probe2.frames.empty());
  EXPECT_EQ(f2.pending_bytes(), 0u);
  EXPECT_EQ(f2.stats().watermark_flushes, 1u);
}

TEST(Formation, BarrierFlushesStagedWorkFirst) {
  ProbeTransport probe;
  FormationTransport f(probe);
  ASSERT_TRUE(f.call(osd_at(0), write_req(1, 0, 1)).ok());
  // A read is non-deferrable: everything staged must hit the wire before it.
  BlockReadRequest read;
  read.ino = InodeNo{1};
  read.runs.push_back(BlockRun{FileBlock{0}, 1});
  ASSERT_TRUE(f.call(osd_at(0), Request{read}).ok());
  EXPECT_EQ(probe.order, "bs");  // frame first, then the barrier op itself
  ASSERT_EQ(probe.singles.size(), 1u);
  EXPECT_EQ(probe.singles[0].second, Op::kBlockRead);
  EXPECT_EQ(f.stats().barrier_flushes, 1u);
}

// --- deferred errors --------------------------------------------------------

struct OsdPair {
  osd::StorageTarget a{};
  osd::StorageTarget b{};
  Endpoints eps() { return Endpoints{{}, {&a, &b}}; }
};

TEST(Formation, DeferredErrorGoesStickyAndSurfacesAtTheBarrier) {
  OsdPair osds;
  InprocTransport inproc(osds.eps());
  FaultTransport fault(inproc);
  FormationTransport f(fault);
  ASSERT_TRUE(f.call(osd_at(0), write_req(1, 0, 1)).ok());  // early ack
  fault.arm({.drop_after = 0, .drop_count = 1});  // the frame will be lost
  BlockReadRequest read;
  read.ino = InodeNo{1};
  read.runs.push_back(BlockRun{FileBlock{0}, 1});
  // The already-acked write's failure surfaces on the next barrier.
  EXPECT_EQ(f.call(osd_at(0), Request{read}).error(), Errc::kIo);
  EXPECT_EQ(f.stats().deferred_errors, 1u);
  // Sticky was consumed; a later flush is clean.
  EXPECT_TRUE(f.flush().ok());
}

TEST(Formation, DestructorDropIsObservable) {
  obs::SpanCollector spans;  // outlives the transport, like the timeline's
  obs::Sinks sinks;
  sinks.spans = &spans;
  OsdPair osds;
  InprocTransport inproc(osds.eps(), sinks);
  FaultTransport fault(inproc);
  {
    FormationTransport f(fault);
    ASSERT_TRUE(f.call(osd_at(0), write_req(1, 0, 1)).ok());
    fault.arm({.drop_after = 0, .drop_count = 1});
    // Destroyed with a staged envelope whose flush will fail: the sticky
    // error has nowhere to surface — it must be dropped OBSERVABLY.
  }
  bool saw_drop = false;
  for (const obs::SpanRecord& r : spans.spans())
    if (r.name == "formation.dropped_error") saw_drop = true;
  EXPECT_TRUE(saw_drop);
}

}  // namespace
}  // namespace mif::rpc
