// Unit tests for the two-phase collective I/O aggregator.
#include <gtest/gtest.h>

#include "client/collective.hpp"
#include "core/pfs.hpp"
#include "obs/span.hpp"

namespace mif::client {
namespace {

struct CollectiveFixture : ::testing::Test {
  core::ClusterConfig cfg() {
    core::ClusterConfig c;
    c.num_targets = 4;
    c.target.allocator = alloc::AllocatorMode::kReservation;
    return c;
  }
  core::ParallelFileSystem fs{cfg()};
  ClientFs client{fs.connect(ClientId{1})};
};

TEST_F(CollectiveFixture, MergesContiguousRequestsIntoOneWrite) {
  auto fh = client.create("/c");
  ASSERT_TRUE(fh);
  CollectiveWriter w(client);
  std::vector<IoRequest> reqs;
  for (u32 p = 0; p < 16; ++p) {
    reqs.push_back({p, static_cast<u64>(p) * 65536, 65536});
  }
  ASSERT_TRUE(w.write_round(*fh, reqs).ok());
  EXPECT_EQ(w.stats().requests_in, 16u);
  EXPECT_EQ(w.stats().requests_out, 1u);  // one contiguous megabyte
  EXPECT_EQ(w.stats().bytes, u64{16} * 65536);
}

TEST_F(CollectiveFixture, ChopsAtCollectiveBufferSize) {
  auto fh = client.create("/c");
  ASSERT_TRUE(fh);
  CollectiveWriter w(client);
  // Two and a half collective buffers: two full chunks and the remainder.
  constexpr u64 kCb = CollectiveWriter::kCbBytes;
  std::vector<IoRequest> reqs{{0, 0, 2 * kCb + kCb / 2}};
  ASSERT_TRUE(w.write_round(*fh, reqs).ok());
  EXPECT_EQ(w.stats().requests_out, 3u);
  EXPECT_EQ(w.stats().bytes, 2 * kCb + kCb / 2);
}

TEST_F(CollectiveFixture, DisjointRangesStaySeparate) {
  auto fh = client.create("/c");
  ASSERT_TRUE(fh);
  CollectiveWriter w(client);
  std::vector<IoRequest> reqs{{0, 0, 4096}, {1, 1 << 20, 4096}};
  ASSERT_TRUE(w.write_round(*fh, reqs).ok());
  EXPECT_EQ(w.stats().requests_out, 2u);
}

TEST_F(CollectiveFixture, OverlapsAreDeduplicated) {
  auto fh = client.create("/c");
  ASSERT_TRUE(fh);
  CollectiveWriter w(client);
  std::vector<IoRequest> reqs{{0, 0, 8192}, {1, 4096, 8192}};
  ASSERT_TRUE(w.write_round(*fh, reqs).ok());
  EXPECT_EQ(w.stats().requests_out, 1u);
  EXPECT_EQ(w.stats().bytes, 12288u);
}

TEST_F(CollectiveFixture, ZeroLengthRequestsIgnored) {
  auto fh = client.create("/c");
  ASSERT_TRUE(fh);
  CollectiveWriter w(client);
  ASSERT_TRUE(w.write_round(*fh, {{0, 0, 0}, {1, 0, 4096}}).ok());
  EXPECT_EQ(w.stats().requests_out, 1u);
}

TEST_F(CollectiveFixture, CollectivePlacementBeatsInterleavedNonCollective) {
  // The Fig. 7 contrast in miniature: the same nested-strided frame written
  // collectively produces far fewer extents than written non-collectively.
  auto run = [&](bool collective) {
    core::ParallelFileSystem f(cfg());
    auto cl = f.connect(ClientId{1});
    auto fh = cl.create("/frame");
    EXPECT_TRUE(fh.ok());
    // Process-slab layout, issued in cell-major order so arrival order
    // interleaves slabs (the Fig. 1(a) pathology).
    std::vector<IoRequest> frame;
    const u32 procs = 16, cells = 8;
    for (u32 c = 0; c < cells; ++c)
      for (u32 p = 0; p < procs; ++p)
        frame.push_back({p, (static_cast<u64>(p) * cells + c) * 8192, 8192});
    if (collective) {
      CollectiveWriter w(cl);
      EXPECT_TRUE(w.write_round(*fh, frame).ok());
    } else {
      for (const auto& r : frame)
        EXPECT_TRUE(cl.write(*fh, r.pid, r.offset, r.len).ok());
    }
    f.drain_data();
    return f.file_extents(fh->ino);
  };
  EXPECT_LT(run(true), run(false));
}

TEST_F(CollectiveFixture, TwoPhaseRoundShipsListEnvelopesAndExchangeSpans) {
  // The same gapped frame through the legacy mount and a list-I/O mount:
  // identical blocks reach the disks, but the two-phase round runs an
  // exchange phase (one collective.exchange span) and ships far fewer data
  // envelopes — the round's union stays noncontiguous (every piece is
  // followed by a hole), so the legacy path pays one envelope per piece
  // while list I/O folds each aggregator's per-target pieces together.
  auto run = [&](u64 list_runs, obs::SpanCollector* sc, u64& data_rpcs,
                 u64& blocks) {
    core::ClusterConfig c = cfg();
    c.list_io_max_runs = list_runs;
    core::ParallelFileSystem f(c);
    f.set_spans(sc);
    auto cl = f.connect(ClientId{1});
    auto fh = cl.create("/frame");
    ASSERT_TRUE(fh.ok());
    std::vector<IoRequest> frame;
    const u32 procs = 16, cells = 8;
    for (u32 cell = 0; cell < cells; ++cell)
      for (u32 p = 0; p < procs; ++p)
        frame.push_back(
            {p, (static_cast<u64>(p) * cells + cell) * 16384, 8192});
    CollectiveWriter w(cl);
    ASSERT_TRUE(w.write_round(*fh, frame).ok());
    f.drain_data();
    data_rpcs = f.transport().data_network().stats().rpcs;
    blocks = f.data_stats().blocks_written;
  };
  u64 legacy_rpcs = 0, legacy_blocks = 0, list_rpcs = 0, list_blocks = 0;
  obs::SpanCollector spans;
  run(0, nullptr, legacy_rpcs, legacy_blocks);
  run(64, &spans, list_rpcs, list_blocks);
  EXPECT_EQ(list_blocks, legacy_blocks);
  EXPECT_LT(2 * list_rpcs, legacy_rpcs);
  const auto phases = spans.phase_stats();
  const auto it = phases.find("collective.exchange");
  ASSERT_NE(it, phases.end());
  EXPECT_EQ(it->second.us.count(), 1u);  // one round, one exchange
}

TEST_F(CollectiveFixture, TwoPhaseChopsEveryAggregatorDomainAtCbBytes) {
  core::ClusterConfig c = cfg();
  c.list_io_max_runs = 64;
  core::ParallelFileSystem f(c);
  auto cl = f.connect(ClientId{1});
  auto fh = cl.create("/c");
  ASSERT_TRUE(fh.ok());
  // A round of two collective buffers per aggregator: each aggregator owns
  // a file domain of exactly two buffers and ships it as two chunks.
  constexpr u64 kRound =
      2 * CollectiveWriter::kAggregators * CollectiveWriter::kCbBytes;
  CollectiveWriter w(cl);
  ASSERT_TRUE(w.write_round(*fh, {{0, 0, kRound}}).ok());
  EXPECT_EQ(w.stats().requests_out, 2 * CollectiveWriter::kAggregators);
  EXPECT_EQ(w.stats().bytes, kRound);
}

TEST_F(CollectiveFixture, ReadRoundMirrorsWrites) {
  auto fh = client.create("/c");
  ASSERT_TRUE(fh);
  CollectiveWriter w(client);
  ASSERT_TRUE(w.write_round(*fh, {{0, 0, 1 << 20}}).ok());
  fs.drain_data();
  const u64 before = fs.data_stats().blocks_read;
  ASSERT_TRUE(w.read_round(*fh, {{0, 0, 1 << 20}}).ok());
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_read - before, (1u << 20) / kBlockSize);
}

}  // namespace
}  // namespace mif::client
