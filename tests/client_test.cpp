// Unit tests for the client file system against a small mounted cluster.
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string_view>
#include <vector>

#include "core/pfs.hpp"
#include "obs/span.hpp"
#include "rpc/envelope.hpp"

namespace mif::client {
namespace {

core::ClusterConfig small_cluster(alloc::AllocatorMode mode) {
  core::ClusterConfig cfg;
  cfg.num_targets = 3;
  cfg.target.allocator = mode;
  return cfg;
}

struct ClientFixture : ::testing::Test {
  core::ParallelFileSystem fs{small_cluster(alloc::AllocatorMode::kOnDemand)};
};

TEST_F(ClientFixture, CreateWriteReadClose) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/data");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 1 << 20).ok());
  fs.drain_data();
  ASSERT_TRUE(c.read(*fh, 0, 1 << 20).ok());
  fs.drain_data();
  ASSERT_TRUE(c.close(*fh).ok());
  const auto stats = fs.data_stats();
  EXPECT_EQ(stats.blocks_written, (1u << 20) / kBlockSize);
  EXPECT_EQ(stats.blocks_read, (1u << 20) / kBlockSize);
}

TEST_F(ClientFixture, WritesStripeAcrossAllTargets) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/striped");
  ASSERT_TRUE(fh);
  // 3 stripe units × 3 targets.
  constexpr u64 kUnit = osd::StripeLayout::kUnitBlocks;
  ASSERT_TRUE(c.write(*fh, 0, 0, 9 * kUnit * kBlockSize).ok());
  fs.drain_data();
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    EXPECT_EQ(fs.target(t).disk().stats().blocks_written, 3 * kUnit)
        << "target " << t;
  }
}

TEST_F(ClientFixture, UnalignedWritesRoundToBlocks) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/odd");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 100, 50).ok());  // inside block 0
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_written, 1u);
}

TEST_F(ClientFixture, ZeroLengthRejected) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/z");
  ASSERT_TRUE(fh);
  EXPECT_EQ(c.write(*fh, 0, 0, 0).error(), Errc::kInvalid);
  EXPECT_EQ(c.read(*fh, 0, 0).error(), Errc::kInvalid);
}

TEST_F(ClientFixture, OpenUsesLayoutCacheOnSecondOpen) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/cached");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 64 * 1024).ok());
  ASSERT_TRUE(c.close(*fh).ok());
  ASSERT_TRUE(c.open("/cached"));
  EXPECT_EQ(c.stats().layout_cache_hits, 1u);  // close primed the cache
  ASSERT_TRUE(c.open("/cached"));
  EXPECT_EQ(c.stats().layout_cache_hits, 2u);
}

TEST_F(ClientFixture, CloseReportsExtentsToMds) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/report");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 256 * 1024).ok());
  const u64 e0 = fs.mds().stats().extent_ops;
  ASSERT_TRUE(c.close(*fh).ok());
  EXPECT_GT(fs.mds().stats().extent_ops, e0);
  // And the MDS now serves the layout on open.
  auto c2 = fs.connect(ClientId{2});
  auto reopened = c2.open("/report");
  ASSERT_TRUE(reopened);
}

TEST_F(ClientFixture, OpenMissingFileFails) {
  auto c = fs.connect(ClientId{1});
  EXPECT_EQ(c.open("/missing").error(), Errc::kNotFound);
}

TEST_F(ClientFixture, StatsTrackTraffic) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/s");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 8192).ok());
  ASSERT_TRUE(c.read(*fh, 0, 4096).ok());
  EXPECT_EQ(c.stats().bytes_written, 8192u);
  EXPECT_EQ(c.stats().bytes_read, 4096u);
  EXPECT_EQ(c.stats().writes, 1u);
  EXPECT_EQ(c.stats().reads, 1u);
}

TEST_F(ClientFixture, TwoClientsShareOneFile) {
  auto c1 = fs.connect(ClientId{1});
  auto c2 = fs.connect(ClientId{2});
  auto fh = c1.create("/shared");
  ASSERT_TRUE(fh);
  auto fh2 = c2.open("/shared");
  ASSERT_TRUE(fh2);
  ASSERT_TRUE(c1.write(*fh, 0, 0, 64 * 1024).ok());
  ASSERT_TRUE(c2.write(*fh2, 0, 64 * 1024, 64 * 1024).ok());
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_written, 32u);
  EXPECT_GT(fs.file_extents(fh->ino), 0u);
}

// --- the envelope sequence of every data call --------------------------------

/// One data envelope as its `rpc.<op>` span records it: the op, the target
/// (arg0) and the request's wire bytes (arg1).
struct Envelope {
  std::string_view span;
  u64 target{0};
  u64 wire{0};
  bool operator==(const Envelope&) const = default;
};
void PrintTo(const Envelope& e, std::ostream* os) {
  *os << e.span << "@" << e.target << ":" << e.wire;
}

/// The data envelopes `spans` holds, in completion order.
std::vector<Envelope> data_envelopes(const obs::SpanCollector& spans) {
  std::vector<Envelope> out;
  for (const obs::SpanRecord& s : spans.spans()) {
    if (s.name == "rpc.block_write" || s.name == "rpc.block_read" ||
        s.name.starts_with("rpc.list."))
      out.push_back({s.name, s.arg0, s.arg1});
  }
  return out;
}

// Wire sizes: the header plus each request's body (ino, stream, run count,
// 16 bytes per run; a strided pattern is 48/40 bytes), and a write's payload.
constexpr u64 kHdr = rpc::kHeaderBytes;
Envelope block_write(u64 t, u64 blocks) {
  return {"rpc.block_write", t, kHdr + 20 + 16 + blocks * kBlockSize};
}
Envelope block_read(u64 t) { return {"rpc.block_read", t, kHdr + 12 + 16}; }
Envelope list_write(u64 t, u64 runs, u64 blocks) {
  return {"rpc.list.write", t, kHdr + 20 + 16 * runs + blocks * kBlockSize};
}
Envelope list_read(u64 t, u64 runs) {
  return {"rpc.list.read", t, kHdr + 12 + 16 * runs};
}
Envelope strided_write(u64 t, u64 blocks) {
  return {"rpc.list.write_strided", t, kHdr + 48 + blocks * kBlockSize};
}

TEST(ClientEnvelopes, EveryDataCallIssuesItsPinnedSequence) {
  constexpr u64 kB = kBlockSize;
  // Blocks [24, 115) of a 5-wide stripe (16-block units): it starts half way
  // into unit 1 (target 1), and its last 100 bytes spill into block 114, in
  // unit 7 (target 2).  In stripe order the slices are target 1 (local 8, 8
  // blocks), 2, 3, 4, 0 (16 each), 1 (local 16, 16) and 2 (local 16, 3);
  // merged per target they are one run each: 16, 24, 19, 16 and 16 blocks
  // on targets 0–4.
  const util::ByteRange region{24 * kB + 100, 90 * kB};
  const std::vector<Envelope> slice_writes{
      block_write(1, 8),  block_write(2, 16), block_write(3, 16),
      block_write(4, 16), block_write(0, 16), block_write(1, 16),
      block_write(2, 3)};
  const std::vector<Envelope> slice_reads{
      block_read(1), block_read(2), block_read(3), block_read(4),
      block_read(0), block_read(1), block_read(2)};
  const std::vector<Envelope> target_writes{
      block_write(0, 16), block_write(1, 24), block_write(2, 19),
      block_write(3, 16), block_write(4, 16)};
  const std::vector<Envelope> target_reads{block_read(0), block_read(1),
                                           block_read(2), block_read(3),
                                           block_read(4)};
  // 100 one-block pieces 8 blocks apart: two per unit, so in stripe order
  // piece i lands on target (i / 2) % 5, and each target gathers 20 runs
  // 8 local blocks apart — a regular pattern, chunked 16 + 4.
  constexpr u64 kPieces = 100;
  std::vector<Envelope> piece_writes;
  for (u64 i = 0; i < kPieces; ++i)
    piece_writes.push_back(block_write((i / 2) % 5, 1));
  std::vector<Envelope> strided_chunks;
  for (u64 t = 0; t < 5; ++t) {
    strided_chunks.push_back(strided_write(t, 16));
    strided_chunks.push_back(strided_write(t, 4));
  }
  // Blocks 0–2 and 5–6 of unit 0 and block 20 of unit 1: target 0 gathers
  // two unequal runs (a list), target 1 one run (a block op).
  const std::vector<util::ByteRange> ragged{{0, 3 * kB}, {5 * kB, 2 * kB},
                                            {20 * kB, kB}};

  using Call = std::function<Status(ClientFs&, const FileHandle&)>;
  std::vector<rpc::Ticket> out;
  const Call write_async = [&](ClientFs& c, const FileHandle& fh) {
    return c.write_async(fh, 0, region.offset, region.len, out);
  };
  const Call write_ranges = [&](ClientFs& c, const FileHandle& fh) {
    return c.write_ranges_async(fh, 0, {&region, 1}, out);
  };
  const Call write_one_piece = [&](ClientFs& c, const FileHandle& fh) {
    return c.write_strided(fh, 0, region.offset, region.len, 0, 1);
  };
  const Call write_pieces = [&](ClientFs& c, const FileHandle& fh) {
    return c.write_strided(fh, 0, 0, kB, 8 * kB, kPieces);
  };
  const Call write_ragged = [&](ClientFs& c, const FileHandle& fh) {
    return c.write_ranges_async(fh, 0, ragged, out);
  };
  const Call first_read = [&](ClientFs& c, const FileHandle& fh) {
    return c.read(fh, region.offset, region.len);
  };
  const Call read_ranges = [&](ClientFs& c, const FileHandle& fh) {
    return c.read_ranges_async(fh, {&region, 1}, out);
  };
  const Call read_ragged = [&](ClientFs& c, const FileHandle& fh) {
    return c.read_ranges_async(fh, ragged, out);
  };

  struct Case {
    const char* name;
    u64 list_runs;  // list_io_max_runs; 0 = per-block mode
    bool read;      // the file is written first, untraced
    Call call;
    Errc want_error;  // Errc::kOk: the call succeeds
    std::vector<Envelope> want;
  };
  const std::vector<Case> cases{
      {"per-block write_async", 0, false, write_async, Errc::kOk,
       slice_writes},
      {"per-block write_strided, one piece", 0, false, write_one_piece,
       Errc::kOk, slice_writes},
      {"per-block write_strided", 0, false, write_pieces, Errc::kOk,
       piece_writes},
      {"per-block first read", 0, true, first_read, Errc::kOk, slice_reads},
      {"per-block write_ranges_async", 0, false, write_ranges,
       Errc::kInvalid, {}},
      {"per-block read_ranges_async", 0, true, read_ranges, Errc::kInvalid,
       {}},
      {"list write_async", 16, false, write_async, Errc::kOk, target_writes},
      {"list write_ranges_async", 16, false, write_ranges, Errc::kOk,
       target_writes},
      {"list write_strided, one piece", 16, false, write_one_piece,
       Errc::kOk, target_writes},
      {"list write_strided", 16, false, write_pieces, Errc::kOk,
       strided_chunks},
      {"list write_ranges_async, ragged", 16, false, write_ragged, Errc::kOk,
       {list_write(0, 2, 5), block_write(1, 1)}},
      {"list first read", 16, true, first_read, Errc::kOk, target_reads},
      {"list read_ranges_async", 16, true, read_ranges, Errc::kOk,
       target_reads},
      {"list read_ranges_async, ragged", 16, true, read_ragged, Errc::kOk,
       {list_read(0, 2), block_read(1)}},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(k.name);
    core::ClusterConfig cfg;
    cfg.num_targets = 5;
    cfg.list_io_max_runs = k.list_runs;
    core::ParallelFileSystem fs(cfg);
    obs::SpanCollector spans;
    fs.set_spans(&spans);
    auto c = fs.connect(ClientId{1});
    auto fh = c.create("/f");
    ASSERT_TRUE(fh);
    if (k.read) {
      ASSERT_TRUE(c.write(*fh, 0, 0, 128 * kB).ok());
      spans.clear();
    }
    EXPECT_EQ(k.call(c, *fh).error(), k.want_error);
    EXPECT_TRUE(c.drain(out).ok());
    EXPECT_EQ(data_envelopes(spans), k.want);
  }
}

}  // namespace
}  // namespace mif::client
