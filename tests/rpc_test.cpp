// RPC layer tests: every op's wire size and the envelope traits (and what
// the transports make of the direction column), InprocTransport equivalence
// with the pre-RPC direct-call semantics, frame formation on a mounted
// cluster (coalescing, backpressure, deferred errors, list folding), and the
// fault-injecting transport decorator.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/pfs.hpp"
#include "mds/mds.hpp"
#include "obs/metrics.hpp"
#include "rpc/async.hpp"
#include "rpc/envelope.hpp"
#include "rpc/fault.hpp"
#include "rpc/mds_node.hpp"
#include "rpc/stack.hpp"
#include "sim/network.hpp"

namespace mif::rpc {
namespace {

std::vector<Request> every_request() {
  return {
      MkdirRequest{"dir"},
      CreateRequest{"dir/file"},
      StatRequest{"dir/file"},
      UtimeRequest{"dir/file"},
      UnlinkRequest{"dir/file"},
      RenameRequest{"dir/file", "dir/other"},
      ResolveRequest{"dir/other"},
      OpenGetLayoutRequest{"dir/other"},
      ReaddirRequest{"dir"},
      ReaddirPlusRequest{"dir"},
      ReportExtentsRequest{InodeNo{42}, 17},
      BlockWriteRequest{InodeNo{42},
                        StreamId{3, 9},
                        {BlockRun{FileBlock{0}, 8}, BlockRun{FileBlock{16}, 4}}},
      BlockReadRequest{InodeNo{42}, {BlockRun{FileBlock{0}, 8}}},
      GetExtentsRequest{InodeNo{42}},
      PreallocateRequest{InodeNo{42}, 1024},
      CloseFileRequest{InodeNo{42}},
      DeleteFileRequest{InodeNo{42}},
      WriteListRequest{InodeNo{42},
                       StreamId{3, 9},
                       {BlockRun{FileBlock{0}, 8}, BlockRun{FileBlock{64}, 2},
                        BlockRun{FileBlock{80}, 1}}},
      ReadListRequest{InodeNo{42},
                      {BlockRun{FileBlock{8}, 4}, BlockRun{FileBlock{32}, 4}}},
      WriteStridedRequest{InodeNo{42}, StreamId{3, 9}, FileBlock{16}, 7, 32, 4},
      ReadStridedRequest{InodeNo{42}, FileBlock{0}, 5, 16, 2},
  };
}

// Every op's wire size, worked out by hand from the field sizes body_bytes()
// documents: a 24-byte header, a 4-byte length before each string, 8 bytes
// per inode, stream, block or count field, 4 for a run count, 16 per run,
// and the data payload (blocks × 4096) riding with a write.
TEST(Envelope, WireBytesPinnedPerOp) {
  static_assert(kHeaderBytes == 24 && kBlockSize == 4096);
  const std::vector<u64> expected = {
      24 + 4 + 3,                            // mkdir "dir"
      24 + 4 + 8,                            // create "dir/file"
      24 + 4 + 8,                            // stat
      24 + 4 + 8,                            // utime
      24 + 4 + 8,                            // unlink
      24 + (4 + 8) + (4 + 9),                // rename "dir/file" → "dir/other"
      24 + 4 + 9,                            // resolve "dir/other"
      24 + 4 + 9,                            // open_getlayout
      24 + 4 + 3,                            // readdir "dir"
      24 + 4 + 3,                            // readdirplus
      24 + 8 + 8,                            // report_extents: ino, count
      24 + 8 + 8 + 4 + 2 * 16 + 12 * 4096,   // block_write: 2 runs, 12 blocks
      24 + 8 + 4 + 1 * 16,                   // block_read: 1 run
      24 + 8,                                // get_extents
      24 + 8 + 8,                            // preallocate: ino, total
      24 + 8,                                // close_file
      24 + 8,                                // delete_file
      24 + 8 + 8 + 4 + 3 * 16 + 11 * 4096,   // list.write: 3 runs, 11 blocks
      24 + 8 + 4 + 2 * 16,                   // list.read: 2 runs
      24 + 6 * 8 + 7 * 4 * 4096,             // list.write_strided: 7 × 4
      24 + 5 * 8,                            // list.read_strided
  };
  const std::vector<Request> reqs = every_request();
  ASSERT_EQ(reqs.size(), kOpCount);
  ASSERT_EQ(expected.size(), kOpCount);
  for (std::size_t i = 0; i < kOpCount; ++i) {
    EXPECT_EQ(op_of(reqs[i]), static_cast<Op>(i));
    EXPECT_EQ(wire_bytes(reqs[i]), expected[i]) << to_string(op_of(reqs[i]));
  }
}

TEST(Envelope, BulkBytesScaleWithContent) {
  // Fixed-size responses piggyback on the request exchange.
  EXPECT_EQ(bulk_bytes(Response{VoidResponse{}}), 0u);
  EXPECT_EQ(bulk_bytes(Response{InodeResponse{InodeNo{1}}}), 0u);
  // Layouts ship one descriptor per extent.
  EXPECT_EQ(bulk_bytes(Response{OpenGetLayoutResponse{InodeNo{1}, 9}}),
            9 * kExtentWireBytes);
  // readdirplus carries inode attributes per entry; plain readdir does not.
  ReaddirResponse dir;
  for (int i = 0; i < 10; ++i)
    dir.entries.push_back({"file" + std::to_string(i), InodeNo{u64(i + 1)},
                           mfs::FileType::kFile});
  const u64 plain = bulk_bytes(Response{ReaddirResponse{dir.entries, false}});
  const u64 plus = bulk_bytes(Response{ReaddirResponse{dir.entries, true}});
  EXPECT_GT(plain, 0u);
  EXPECT_EQ(plus, plain + 10 * kInodeAttrBytes);
  EXPECT_EQ(bulk_bytes(Response{BlockDataResponse{3}}), 3 * kBlockSize);
}

TEST(Envelope, TraitsClassifyOps) {
  EXPECT_TRUE(traits(Op::kMkdir).meta);
  EXPECT_FALSE(traits(Op::kBlockWrite).meta);
  // The cached-handle revalidation is the only free op.
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_EQ(traits(op).free, op == Op::kResolve) << to_string(op);
  }
  // Deferrable = safe to stage in the formation layer.
  EXPECT_TRUE(traits(Op::kUtime).deferrable);
  EXPECT_TRUE(traits(Op::kReportExtents).deferrable);
  EXPECT_TRUE(traits(Op::kBlockWrite).deferrable);
  EXPECT_FALSE(traits(Op::kCreate).deferrable);
  EXPECT_FALSE(traits(Op::kBlockRead).deferrable);
  EXPECT_EQ(to_string(Op::kOpenGetLayout), "open_getlayout");
  // List/datatype envelopes arrive pre-coalesced: the formation layer
  // passes them through (non-deferrable barrier) rather than re-queueing.
  for (Op op : {Op::kWriteList, Op::kReadList, Op::kWriteStrided,
                Op::kReadStrided}) {
    EXPECT_FALSE(traits(op).meta) << to_string(op);
    EXPECT_FALSE(traits(op).deferrable) << to_string(op);
  }
  EXPECT_EQ(to_string(Op::kWriteList), "list.write");
  EXPECT_EQ(to_string(Op::kReadStrided), "list.read_strided");
  // Which way each op's file data moves, in enum order.
  using enum Direction;
  const std::vector<Direction> direction = {
      kNone,  kNone, kNone,  kNone, kNone, kNone, kNone,  // mkdir … resolve
      kNone,  kNone, kNone,  kNone,  // open_getlayout … report_extents
      kWrite,                        // block_write
      kRead,                         // block_read
      kRead,  // get_extents: a count, but only a live target can give it
      kNone,  kNone, kNone,          // preallocate, close_file, delete_file
      kWrite, kRead, kWrite, kRead,  // list.write … list.read_strided
  };
  ASSERT_EQ(direction.size(), kOpCount);
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_EQ(traits(op).direction, direction[i]) << to_string(op);
  }
}

/// Answers every envelope with an empty response (no reply payload), so a
/// decorator above it is measured alone.
struct NullTransport final : Transport {
  NullTransport() : Transport(obs::Sinks::none(), queue) {}
  CompletionQueue queue;
  Result<Response> call(const Address&, const Request&) override {
    return Response{VoidResponse{}};
  }
};

// What the transports make of the direction column, op by op: the payload
// wire_bytes adds, the envelopes a dead target refuses, and the envelopes
// the async pipeline prices a spindle floor for.
TEST(Envelope, DirectionDrivesPayloadRefusalAndSpindleFloor) {
  const std::vector<Op> writes = {Op::kBlockWrite, Op::kWriteList,
                                  Op::kWriteStrided};
  const std::vector<Op> refused = {Op::kBlockRead, Op::kReadList,
                                   Op::kReadStrided, Op::kGetExtents};
  const std::vector<Op> moves_blocks = {
      Op::kBlockWrite, Op::kBlockRead,    Op::kWriteList,
      Op::kReadList,   Op::kWriteStrided, Op::kReadStrided};
  const auto in = [](const std::vector<Op>& set, Op op) {
    return std::find(set.begin(), set.end(), op) != set.end();
  };
  for (const Request& req : every_request()) {
    const Op op = op_of(req);
    const OpTraits& tr = traits(op);
    const Address to = tr.meta ? mds_at(0) : osd_at(0);

    // wire_bytes: header + body, plus blocks × kBlockSize for a write.
    const u64 body = std::visit([](const auto& r) { return r.body_bytes(); },
                                req);
    const u64 payload = wire_bytes(req) - kHeaderBytes - body;
    if (in(writes, op)) {
      EXPECT_GT(data_blocks(req), 0u) << to_string(op);
      EXPECT_EQ(payload, data_blocks(req) * kBlockSize) << to_string(op);
    } else {
      EXPECT_EQ(payload, 0u) << to_string(op);
    }
    EXPECT_EQ(data_blocks(req) > 0, in(moves_blocks, op)) << to_string(op);

    // A target the dead probe marks dead serves none of its reads.
    NullTransport null;
    FaultTransport fault(null);
    fault.set_dead_probe([](u32) { return true; });
    const Result<Response> r = fault.call(to, req);
    EXPECT_EQ(fault.stats().dead_reads, in(refused, op) ? 1u : 0u)
        << to_string(op);
    EXPECT_EQ(r.error(), in(refused, op) ? Errc::kIo : Errc::kOk)
        << to_string(op);

    // The pipeline prices the network exchange, plus a spindle floor for
    // exactly the envelopes that move blocks.
    AsyncConfig cfg;
    cfg.depth = 2;
    AsyncTransport async(null, cfg);
    (void)async.call_async(to, req);
    const double network =
        tr.free ? 0.0 : sim::Network::cost(wire_bytes(req));
    const double floor = async.report().serial_ms - network;
    if (in(moves_blocks, op)) {
      EXPECT_GT(floor, 0.0) << to_string(op);
    } else {
      EXPECT_EQ(floor, 0.0) << to_string(op);
    }
  }
}

// Zero-length runs and zero-count patterns are legal list payloads
// (rejection is the server's business, not the wire's); their sizes follow
// the same rules as any other run list or pattern.
TEST(Envelope, ListSizeEdgeCases) {
  WriteListRequest empty_run;
  empty_run.ino = InodeNo{7};
  empty_run.stream = StreamId{1, 2};
  empty_run.runs = {BlockRun{FileBlock{4}, 0}, BlockRun{FileBlock{4}, 3}};
  EXPECT_EQ(empty_run.blocks(), 3u);
  WriteStridedRequest zero_count{
      InodeNo{7}, StreamId{1, 2}, FileBlock{0}, 0, 8, 4};
  EXPECT_EQ(zero_count.blocks(), 0u);
  EXPECT_EQ(wire_bytes(Request{zero_count}), kHeaderBytes + 48);
}

// The transport must preserve the direct-call semantics exactly: same
// figures (disk accesses, simulated time), same RPC accounting as the seed.
TEST(InprocTransport, EquivalentToDirectServerCalls) {
  mds::MdsConfig cfg;
  cfg.mfs.mode = mfs::DirectoryMode::kEmbedded;

  mds::Mds direct(cfg);
  ASSERT_TRUE(direct.mkdir("d"));
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(direct.create("d/f" + std::to_string(i)));
  ASSERT_TRUE(direct.readdir_stats("d"));
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(direct.unlink("d/f" + std::to_string(i)).ok());
  direct.finish();

  MdsNode node(cfg);
  ASSERT_TRUE(node.client().mkdir("d"));
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(node.client().create("d/f" + std::to_string(i)));
  ASSERT_TRUE(node.client().readdir_stats("d"));
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(node.client().unlink("d/f" + std::to_string(i)).ok());
  node.mds().finish();

  EXPECT_EQ(node.mds().fs().disk_accesses(), direct.fs().disk_accesses());
  EXPECT_DOUBLE_EQ(node.mds().fs().elapsed_ms(), direct.fs().elapsed_ms());
  // One RPC per delivered op — 402 metadata ops above.
  EXPECT_EQ(node.mds().stats().rpcs, 402u);
  EXPECT_EQ(node.transport().meta_network().stats().rpcs, 403u);  // +1 bulk
}

TEST(InprocTransport, CountsAndChargesPerOp) {
  MdsNode node;
  ASSERT_TRUE(node.client().mkdir("d"));
  ASSERT_TRUE(node.client().create("d/f"));
  EXPECT_TRUE(node.client().stat("d/f").ok());
  EXPECT_EQ(node.client().stat("d/missing").error(), Errc::kNotFound);

  EXPECT_EQ(node.transport().op_counters(Op::kMkdir).count, 1u);
  EXPECT_EQ(node.transport().op_counters(Op::kCreate).count, 1u);
  const auto stat = node.transport().op_counters(Op::kStat);
  EXPECT_EQ(stat.count, 2u);
  EXPECT_EQ(stat.errors, 1u);
  EXPECT_GT(stat.bytes, 2 * kHeaderBytes);
  // Errors still consumed a wire exchange and an MDS rpc.
  EXPECT_EQ(node.mds().stats().rpcs, 4u);
  EXPECT_EQ(node.transport().meta_network().stats().rpcs, 4u);
}

TEST(InprocTransport, ResolveIsFree) {
  MdsNode node;
  ASSERT_TRUE(node.client().create("f"));
  const u64 rpcs = node.mds().stats().rpcs;
  const u64 wire = node.transport().meta_network().stats().rpcs;
  ASSERT_TRUE(node.client().resolve("f"));
  EXPECT_EQ(node.mds().stats().rpcs, rpcs);  // no server rpc charged
  EXPECT_EQ(node.transport().meta_network().stats().rpcs, wire);
  EXPECT_EQ(node.transport().op_counters(Op::kResolve).count, 1u);
}

TEST(InprocTransport, RejectsMisroutedEnvelopes) {
  MdsNode node;
  // A data op addressed to a metadata server is a routing bug.
  auto r = node.transport().call(mds_at(0), GetExtentsRequest{InodeNo{1}});
  EXPECT_EQ(r.error(), Errc::kInvalid);
  // Out-of-range server index.
  auto r2 = node.transport().call(mds_at(9), MkdirRequest{"d"});
  EXPECT_EQ(r2.error(), Errc::kInvalid);
  // This MdsNode has no storage targets at all.
  auto r3 = node.transport().call(osd_at(0), GetExtentsRequest{InodeNo{1}});
  EXPECT_EQ(r3.error(), Errc::kInvalid);
}

// Satellite check: the client ↔ OSD data path is charged on the data
// network and exported as rpc.data.* metrics.
TEST(Pfs, DataPathChargedOnDataNetwork) {
  core::ClusterConfig cfg;
  cfg.num_targets = 3;
  core::ParallelFileSystem fs(cfg);
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("big.odb");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 1 << 20).ok());
  fs.drain_data();
  ASSERT_TRUE(c.close(*fh).ok());

  const auto& data = fs.transport().wire().data_network().stats();
  EXPECT_GT(data.rpcs, 0u);
  // 256 blocks of payload crossed the wire, plus headers.
  EXPECT_GT(data.bytes, u64{1} << 20);
  EXPECT_GT(fs.transport().wire().op_counters(Op::kBlockWrite).count, 0u);

  obs::MetricsRegistry reg;
  fs.export_metrics(reg);
  EXPECT_GT(reg.counter_value("rpc.data.count"), 0u);
  EXPECT_GT(reg.counter_value("rpc.data.bytes"), u64{1} << 20);
  EXPECT_GT(reg.counter_value("rpc.meta.count"), 0u);
  EXPECT_GT(reg.counter_value("rpc.block_write.count"), 0u);
  EXPECT_GT(reg.counter_value("rpc.create.count"), 0u);
}

core::ClusterConfig one_target_cfg() {
  core::ClusterConfig cfg;
  cfg.num_targets = 1;
  return cfg;
}

core::ClusterConfig formation_cfg() {
  core::ClusterConfig cfg = one_target_cfg();
  cfg.rpc.kind = TransportOptions::Kind::kFormation;
  return cfg;
}

// A sequential writer through the formation layer collapses into one wire
// message with coalesced runs — and places blocks exactly like the
// synchronous transport does.
TEST(FormationMount, CoalescesContiguousWritesIntoOneWireMessage) {
  core::ParallelFileSystem fs(formation_cfg());
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("seq.odb");
  ASSERT_TRUE(fh);
  for (u64 i = 0; i < 32; ++i)
    ASSERT_TRUE(c.write(*fh, 0, i * 4 * kBlockSize, 4 * kBlockSize).ok());

  FormationTransport* formation = fs.transport().formation();
  ASSERT_NE(formation, nullptr);
  EXPECT_EQ(formation->stats().queued, 32u);
  EXPECT_EQ(formation->stats().coalesced_runs, 31u);
  EXPECT_GT(formation->pending_bytes(), 0u);
  // Nothing hit the wire yet.
  EXPECT_EQ(fs.transport().wire().data_network().stats().rpcs, 0u);

  ASSERT_TRUE(fs.rpc().flush().ok());
  EXPECT_EQ(formation->stats().frames, 1u);
  EXPECT_EQ(fs.transport().wire().data_network().stats().rpcs, 1u);
  EXPECT_EQ(formation->pending_bytes(), 0u);

  // Placement is identical to the synchronous transport's.
  core::ParallelFileSystem sync_fs(one_target_cfg());
  auto c2 = sync_fs.connect(ClientId{1});
  auto fh2 = c2.create("seq.odb");
  ASSERT_TRUE(fh2);
  for (u64 i = 0; i < 32; ++i)
    ASSERT_TRUE(c2.write(*fh2, 0, i * 4 * kBlockSize, 4 * kBlockSize).ok());
  sync_fs.drain_data();
  fs.drain_data();
  EXPECT_EQ(fs.file_extents(fh->ino), sync_fs.file_extents(fh2->ino));
}

TEST(FormationMount, WatermarkForcesFlush) {
  core::ParallelFileSystem fs(formation_cfg());
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("seq.odb");
  ASSERT_TRUE(fh);
  // Forty 128 KiB writes stage 5 MiB, past the watermark, well before the
  // client's 64-write layout report would flush the queue as a barrier.
  constexpr u64 kWrite = 32 * kBlockSize;
  static_assert(40 * kWrite > FormationTransport::kWatermarkBytes);
  for (u64 i = 0; i < 40; ++i)
    ASSERT_TRUE(c.write(*fh, 0, i * kWrite, kWrite).ok());
  // Backpressure shipped frames before any explicit flush or barrier.
  EXPECT_GT(fs.transport().formation()->stats().watermark_flushes, 0u);
  EXPECT_GT(fs.transport().wire().data_network().stats().rpcs, 0u);
  ASSERT_TRUE(fs.rpc().flush().ok());
}

// A frame lost below the staging layer — Formation(Fault(Inproc)), so the
// drop hits when the staged frame ships — stays deferred until the flush.
TEST(FormationStack, DeferredErrorSurfacesAtFlush) {
  osd::StorageTarget target;
  InprocTransport inproc(Endpoints{{}, {&target}});
  FaultTransport fault(inproc);
  FormationTransport formation(fault);
  const BlockWriteRequest write{
      InodeNo{1}, StreamId{1, 0}, {BlockRun{FileBlock{0}, 4}}};
  fault.arm({.drop_count = 1});
  // The write is deferrable: it is acked optimistically …
  ASSERT_TRUE(formation.call(osd_at(0), write).ok());
  EXPECT_EQ(fault.stats().dropped, 0u);
  // … and the lost frame surfaces at the synchronisation point.
  EXPECT_EQ(formation.flush().error(), Errc::kIo);
  EXPECT_EQ(fault.stats().dropped, 1u);
  EXPECT_EQ(formation.stats().deferred_errors, 1u);
  EXPECT_EQ(target.verify().mapped_blocks, 0u);
  // The error is consumed; the system recovers.
  ASSERT_TRUE(formation.call(osd_at(0), write).ok());
  EXPECT_TRUE(formation.flush().ok());
  EXPECT_EQ(target.verify().mapped_blocks, 4u);
}

// A strided pattern through a list-I/O mount lowers into one datatype/list
// envelope per target instead of one block write per piece — same placement,
// an order of magnitude fewer data envelopes.
TEST(ListIo, StridedPatternLowersToOneEnvelopePerTarget) {
  auto strided_write = [](core::ParallelFileSystem& fs) {
    auto c = fs.connect(ClientId{1});
    auto fh = c.create("strided.odb");
    ASSERT_TRUE(fh);
    // 64 pieces of 4 blocks, one full stripe round apart: every piece lands
    // on target 0 as local runs {16i, 4} — a regular strided subpattern.
    const u64 stride = 5 * 16 * kBlockSize;
    ASSERT_TRUE(
        c.write_strided(*fh, 0, 0, 4 * kBlockSize, stride, 64).ok());
    fs.drain_data();
  };

  core::ClusterConfig per_block;
  core::ParallelFileSystem a(per_block);
  strided_write(a);

  core::ClusterConfig list_cfg;
  list_cfg.list_io_max_runs = 64;
  core::ParallelFileSystem b(list_cfg);
  strided_write(b);

  const auto count = [](core::ParallelFileSystem& fs, Op op) {
    return fs.transport().wire().op_counters(op).count;
  };
  EXPECT_EQ(count(a, Op::kBlockWrite), 64u);
  EXPECT_EQ(count(a, Op::kWriteStrided), 0u);
  EXPECT_EQ(count(b, Op::kBlockWrite), 0u);
  EXPECT_EQ(count(b, Op::kWriteStrided), 1u);
  EXPECT_EQ(count(b, Op::kWriteList), 0u);
  // Same bytes crossed the wire modulo per-envelope framing, and the
  // placement is identical.
  auto ca = a.connect(ClientId{2});
  auto cb = b.connect(ClientId{2});
  auto fa = ca.open("strided.odb");
  auto fb = cb.open("strided.odb");
  ASSERT_TRUE(fa);
  ASSERT_TRUE(fb);
  EXPECT_EQ(a.file_extents(fa->ino), b.file_extents(fb->ino));
  // rpc.list.* metrics export for the new family.
  obs::MetricsRegistry reg;
  b.export_metrics(reg);
  EXPECT_EQ(reg.counter_value("rpc.list.write_strided.count"), 1u);
  EXPECT_GT(reg.counter_value("rpc.list.write_strided.bytes"), 0u);
}

// An irregular noncontiguous set (no common stride) ships as a list
// envelope, chunked at list_io_max_runs.
TEST(ListIo, IrregularRunsShipAsListEnvelopes) {
  core::ClusterConfig cfg = one_target_cfg();
  cfg.list_io_max_runs = 2;
  core::ParallelFileSystem fs(cfg);
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("list.odb");
  ASSERT_TRUE(fh);
  // Irregular gaps: runs {0,2} {5,1} {9,3} {20,1} — 4 runs, max 2 per
  // envelope → two list envelopes.
  std::vector<util::ByteRange> ranges = {
      {0 * kBlockSize, 2 * kBlockSize},
      {5 * kBlockSize, 1 * kBlockSize},
      {9 * kBlockSize, 3 * kBlockSize},
      {20 * kBlockSize, 1 * kBlockSize},
  };
  std::vector<Ticket> tickets;
  ASSERT_TRUE(c.write_ranges_async(*fh, 0, ranges, tickets).ok());
  ASSERT_TRUE(c.drain(tickets).ok());
  fs.drain_data();
  EXPECT_EQ(fs.transport().wire().op_counters(Op::kWriteList).count, 2u);
  EXPECT_EQ(fs.transport().wire().op_counters(Op::kBlockWrite).count, 0u);
  // Read them back through the same lowering.
  ASSERT_TRUE(c.read_ranges_async(*fh, ranges, tickets).ok());
  ASSERT_TRUE(c.drain(tickets).ok());
  EXPECT_EQ(fs.transport().wire().op_counters(Op::kReadList).count, 2u);
}

// Without list I/O mounted the ranged APIs refuse (the caller asked for a
// lowering the mount does not provide).
TEST(ListIo, RangedApisRequireListMount) {
  core::ParallelFileSystem fs(one_target_cfg());
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("f.odb");
  ASSERT_TRUE(fh);
  std::vector<util::ByteRange> ranges = {{0, kBlockSize}};
  std::vector<Ticket> tickets;
  EXPECT_EQ(c.write_ranges_async(*fh, 0, ranges, tickets).error(),
            Errc::kInvalid);
  EXPECT_EQ(c.read_ranges_async(*fh, ranges, tickets).error(), Errc::kInvalid);
}

// The formation layer folds a coalesced multi-run block write into ONE list
// envelope at flush (instead of a run-split dispatch), while a single-run
// write stays a plain block write.
TEST(FormationMount, FoldsNoncontiguousQueueIntoListEnvelope) {
  core::ParallelFileSystem fs(formation_cfg());
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("gaps.odb");
  ASSERT_TRUE(fh);
  // Three writes with holes between them: they queue into one envelope with
  // three runs.
  for (u64 i = 0; i < 3; ++i)
    ASSERT_TRUE(c.write(*fh, 0, i * 8 * kBlockSize, 4 * kBlockSize).ok());
  ASSERT_TRUE(fs.rpc().flush().ok());
  const FormationStats s = fs.transport().formation()->stats();
  EXPECT_EQ(s.queued, 3u);
  EXPECT_EQ(s.folded_lists, 1u);
  EXPECT_EQ(s.frames, 1u);
  EXPECT_EQ(fs.transport().wire().op_counters(Op::kWriteList).count, 1u);
  EXPECT_EQ(fs.transport().wire().op_counters(Op::kBlockWrite).count, 0u);
  fs.drain_data();

  // Placement matches the unstaged per-block mount exactly.
  core::ParallelFileSystem plain(one_target_cfg());
  auto c2 = plain.connect(ClientId{1});
  auto fh2 = c2.create("gaps.odb");
  ASSERT_TRUE(fh2);
  for (u64 i = 0; i < 3; ++i)
    ASSERT_TRUE(c2.write(*fh2, 0, i * 8 * kBlockSize, 4 * kBlockSize).ok());
  plain.drain_data();
  EXPECT_EQ(fs.file_extents(fh->ino), plain.file_extents(fh2->ino));
}

TEST(Fault, DropsSurfaceAsIoThenRecover) {
  mds::Mds mds{{}};
  InprocTransport inner(Endpoints{{&mds}, {}});
  FaultTransport faulty(inner);
  Client client(faulty);

  ASSERT_TRUE(client.mkdir("d"));
  faulty.arm({.drop_after = 1, .drop_count = 2});
  ASSERT_TRUE(client.create("d/a"));  // let through
  EXPECT_EQ(client.create("d/b").error(), Errc::kIo);
  EXPECT_EQ(client.stat("d/b").error(), Errc::kIo);
  // Window exhausted: retries succeed, servers never saw the dropped calls.
  ASSERT_TRUE(client.create("d/b"));
  EXPECT_EQ(faulty.stats().dropped, 2u);
}

// The full decorator chain — Fault(Formation(Async(Inproc))) — composes:
// every pass-through (call, call_async, completions, flush, metrics)
// reaches the right layer, and the whole chain shares ONE completion queue.
TEST(Stack, FullChainComposesAndSharesOneCompletionQueue) {
  core::ClusterConfig cfg = formation_cfg();
  cfg.num_targets = 2;
  cfg.rpc.pipeline_depth = 4;
  cfg.rpc.inject_faults = true;
  core::ParallelFileSystem fs(cfg);
  ASSERT_NE(fs.transport().async(), nullptr);
  ASSERT_NE(fs.transport().formation(), nullptr);
  ASSERT_NE(fs.transport().fault(), nullptr);
  // Every decorator above the async layer holds that layer's queue: a
  // ticket issued at the top retires from the same queue the client
  // drains.
  EXPECT_EQ(&fs.transport().top().completions(),
            &fs.transport().async()->completions());

  auto c = fs.connect(ClientId{1});
  auto fh = c.create("chain.odb");
  ASSERT_TRUE(fh);
  for (u64 i = 0; i < 16; ++i)
    ASSERT_TRUE(c.write(*fh, 0, i * 4 * kBlockSize, 4 * kBlockSize).ok());
  ASSERT_TRUE(c.read(*fh, 0, 16 * 4 * kBlockSize).ok());
  ASSERT_TRUE(fs.rpc().flush().ok());
  EXPECT_EQ(fs.transport().top().completions().in_flight(), 0u);

  // Each layer did its job: formation staged, inproc charged the wire, the
  // async layer retired tickets.
  EXPECT_GT(fs.transport().formation()->stats().queued, 0u);
  EXPECT_GT(fs.transport().wire().op_counters(Op::kBlockWrite).count, 0u);
  EXPECT_GT(fs.transport().async()->report().issued, 0u);

  // A fault armed at the top still surfaces through the chain, then clears.
  fs.transport().fault()->arm({.drop_after = 0, .drop_count = 1});
  EXPECT_EQ(c.create("dropped.odb").error(), Errc::kIo);
  fs.transport().fault()->disarm();
  ASSERT_TRUE(c.create("recovered.odb"));

  // export_metrics walks the whole chain: every layer's families show up.
  obs::MetricsRegistry reg;
  fs.transport().export_metrics(reg, "rpc");
  const std::string dump = reg.to_json().dump(0);
  EXPECT_NE(dump.find("rpc.formation"), std::string::npos);
  EXPECT_NE(dump.find("rpc.pipeline.depth"), std::string::npos);
  EXPECT_NE(dump.find("rpc.fault"), std::string::npos);
}

TEST(Fault, DelaysBelowTimeoutPassAboveFail) {
  mds::Mds mds{{}};
  InprocTransport inner(Endpoints{{&mds}, {}});
  FaultTransport faulty(inner);
  Client client(faulty);

  faulty.arm({.delay_ms = 10.0, .timeout_ms = 50.0});
  ASSERT_TRUE(client.mkdir("slow"));
  EXPECT_EQ(faulty.stats().delayed, 1u);
  EXPECT_DOUBLE_EQ(faulty.stats().delay_total_ms, 10.0);

  faulty.arm({.delay_ms = 60.0, .timeout_ms = 50.0});
  EXPECT_EQ(client.mkdir("timeout").error(), Errc::kIo);
  EXPECT_EQ(faulty.stats().dropped, 1u);

  faulty.disarm();
  ASSERT_TRUE(client.mkdir("fine"));
}

}  // namespace
}  // namespace mif::rpc
