// Sharded metadata service: placement map, inode tagging, whole-stack
// routing through shard::ShardedTransport (fan-out aggregation, per-shard
// colocation), the §IV-C name table and hash-placed directory sweep, the
// §IV-D placement-vs-layout claim, the two-phase cross-shard rename
// (including a FaultTransport-injected failure between the phases +
// recovery), and the shard.* observability surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/pfs.hpp"
#include "obs/span.hpp"
#include "shard/map.hpp"
#include "shard/router.hpp"
#include "shard/transport.hpp"
#include "util/rng.hpp"

namespace mif {
namespace {

core::ClusterConfig sharded_cfg(u32 shards, shard::Policy policy) {
  core::ClusterConfig cfg;
  cfg.num_targets = 3;
  cfg.mds.shards = shards;
  cfg.mds.placement = policy;
  return cfg;
}

/// Under hash placement a name is live when its owner shard holds it.  The
/// router must answer a lookup as that shard would, and send an envelope
/// only for a live name.
void expect_table_exact(core::ParallelFileSystem& fs,
                        const std::vector<std::string>& names,
                        const std::string& when) {
  const shard::Map map(static_cast<u32>(fs.mds_shards()),
                       shard::Policy::kHash);
  const shard::ShardedTransport& sharded = *fs.transport().sharded();
  for (const std::string& p : names) {
    const bool live = fs.mds(map.owner_of(p)).stat(p).ok();
    const u64 avoided = sharded.stats().avoided_rpcs;
    EXPECT_EQ(fs.rpc().stat("/" + p).ok(), live) << p << " " << when;
    EXPECT_EQ(sharded.stats().avoided_rpcs > avoided, !live)
        << p << " " << when;
  }
}

// --- shard::Map -------------------------------------------------------------

TEST(ShardMap, DelegationIsRoundRobinAndIdempotent) {
  shard::Map map(3, shard::Policy::kSubtree);
  EXPECT_EQ(map.delegate("a"), 0u);
  EXPECT_EQ(map.delegate("b"), 1u);
  EXPECT_EQ(map.delegate("c"), 2u);
  EXPECT_EQ(map.delegate("d"), 0u);
  // Re-delegating an assigned name keeps its shard and burns no slot.
  EXPECT_EQ(map.delegate("b"), 1u);
  EXPECT_EQ(map.delegate("e"), 1u);
  EXPECT_TRUE(map.delegated("a"));
  EXPECT_FALSE(map.delegated("zzz"));
}

TEST(ShardMap, SubtreeOwnerFollowsTopLevelDelegation) {
  shard::Map map(4, shard::Policy::kSubtree);
  map.delegate("proj");
  map.delegate("home");
  EXPECT_EQ(map.owner_of("proj/src/a.c"), map.owner_of("proj/doc/b.txt"));
  EXPECT_EQ(map.owner_of("home/u1"), 1u);
  // Root and undelegated names fall back to shard 0.
  EXPECT_EQ(map.owner_of("/"), 0u);
  EXPECT_EQ(map.owner_of("loose.txt"), 0u);
}

TEST(ShardMap, HashOwnerIsStableAndSpread) {
  shard::Map map(4, shard::Policy::kHash);
  std::vector<u64> per_shard(4, 0);
  for (int i = 0; i < 256; ++i) {
    const std::string p = "dir/f" + std::to_string(i);
    const u32 owner = map.owner_of(p);
    EXPECT_EQ(owner, map.owner_of(p));  // stable
    ++per_shard[owner];
  }
  for (u64 n : per_shard) EXPECT_GT(n, 0u);
}

// Regression: hash placement hashed the raw string, so "/d/f" and "d/f" had
// different owners.
TEST(ShardMap, HashOwnerIgnoresPathSpelling) {
  std::string buf;
  EXPECT_EQ(shard::canonical("/d//f/", buf), "d/f");
  EXPECT_EQ(shard::canonical("d/f", buf), "d/f");
  EXPECT_EQ(shard::canonical("/", buf), "");
  shard::Map map(4, shard::Policy::kHash);
  for (int i = 0; i < 64; ++i) {
    const std::string p = "d/f" + std::to_string(i);
    EXPECT_EQ(map.owner_of("/" + p), map.owner_of(p)) << p;
    EXPECT_EQ(map.owner_of("d//f" + std::to_string(i) + "/"), map.owner_of(p));
  }
}

// --- inode tagging ----------------------------------------------------------

TEST(ShardRouter, InodeTagRoundTrips) {
  for (u32 shard : {0u, 1u, 3u, 200u}) {
    const InodeNo local{(u64{7} << 32) | 42};  // embedded dir<<32|slot shape
    const InodeNo tagged = shard::Router::tag(shard, local);
    EXPECT_EQ(shard::Router::shard_of(tagged), shard);
    EXPECT_EQ(shard::Router::untag(tagged).v, local.v);
    EXPECT_NE(tagged.v, local.v);
  }
  // Untagged numbers route to shard 0.
  EXPECT_EQ(shard::Router::shard_of(InodeNo{12345}), 0u);
}

TEST(ShardRouter, StatsImbalance) {
  shard::Router r(4, shard::Policy::kHash);
  for (int i = 0; i < 10; ++i) r.count_op(0);
  for (int i = 0; i < 10; ++i) r.count_op(1);
  for (int i = 0; i < 10; ++i) r.count_op(2);
  for (int i = 0; i < 10; ++i) r.count_op(3);
  EXPECT_DOUBLE_EQ(r.stats().imbalance(), 1.0);
  for (int i = 0; i < 40; ++i) r.count_op(2);
  EXPECT_GT(r.stats().imbalance(), 2.0);
}

// --- whole-stack routing ----------------------------------------------------

TEST(ShardedStack, SingleShardBuildsNoRouter) {
  core::ParallelFileSystem fs(sharded_cfg(1, shard::Policy::kSubtree));
  EXPECT_EQ(fs.transport().sharded(), nullptr);
  EXPECT_EQ(fs.mds_shards(), 1u);
}

TEST(ShardedStack, SubtreeKeepsDirectoryColocated) {
  core::ParallelFileSystem fs(sharded_cfg(4, shard::Policy::kSubtree));
  ASSERT_EQ(fs.mds_shards(), 4u);
  for (int d = 0; d < 4; ++d) {
    ASSERT_TRUE(fs.rpc().mkdir("d" + std::to_string(d)));
  }
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(fs.rpc().create("d1/f" + std::to_string(i)));
  }
  auto* sharded = fs.transport().sharded();
  ASSERT_NE(sharded, nullptr);

  // Round-robin delegation sent d<i> to shard i; every create under d1
  // stayed on shard 1 (1 mkdir + 12 creates = 13 ops), the others saw only
  // their own mkdir.
  const shard::ShardStats before = sharded->stats();
  ASSERT_EQ(before.ops_per_shard.size(), 4u);
  EXPECT_EQ(before.ops_per_shard[1], 13u);
  EXPECT_EQ(before.ops_per_shard[0], 1u);
  EXPECT_EQ(before.ops_per_shard[2], 1u);
  EXPECT_EQ(before.ops_per_shard[3], 1u);

  // An aggregated listing of one directory touches exactly ONE shard: no
  // fan-out is recorded.
  auto entries = fs.rpc().readdir_stats("d1");
  ASSERT_TRUE(entries);
  EXPECT_EQ(entries->size(), 12u);
  EXPECT_EQ(sharded->stats().fanout_requests, before.fanout_requests);
  for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
    EXPECT_TRUE(fs.mds(s).fs().layout().verify().ok());
  }
}

TEST(ShardedStack, HashScattersAndFansOut) {
  core::ParallelFileSystem fs(sharded_cfg(4, shard::Policy::kHash));
  ASSERT_TRUE(fs.rpc().mkdir("dir"));
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(fs.rpc().create("dir/f" + std::to_string(i)));
  }
  auto* sharded = fs.transport().sharded();
  ASSERT_NE(sharded, nullptr);

  // Children scattered across every shard (§IV-C's striped giant
  // directory): each holds a share, and the shares add up.
  const shard::ShardStats before = sharded->stats();
  EXPECT_LT(before.imbalance(), 2.0);
  u64 total = 0;
  for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
    auto part = fs.mds(s).readdir("dir");
    ASSERT_TRUE(part);
    EXPECT_GT(part->size(), 0u) << "shard " << s;
    total += part->size();
  }
  EXPECT_EQ(total, 64u);

  // The aggregated listing must ask every shard — and still come back
  // merged and deduplicated.
  auto entries = fs.rpc().readdir_stats("dir");
  ASSERT_TRUE(entries);
  EXPECT_EQ(entries->size(), 64u);
  const shard::ShardStats after = sharded->stats();
  EXPECT_EQ(after.fanout_requests, before.fanout_requests + 3);
}

TEST(ShardedStack, DataPathRoundTripsUnderShardedMetadata) {
  for (auto policy : {shard::Policy::kSubtree, shard::Policy::kHash}) {
    core::ParallelFileSystem fs(sharded_cfg(3, policy));
    auto client = fs.connect(ClientId{1});
    ASSERT_TRUE(fs.rpc().mkdir("data"));
    auto fh = client.create("data/file.bin");
    ASSERT_TRUE(fh);
    // The ino that crossed the transport carries its home-shard tag.
    EXPECT_GT(fh->ino.v >> shard::Router::kTagShift, 0u);
    ASSERT_TRUE(client.write(*fh, 0, 0, 96 * kBlockSize).ok());
    ASSERT_TRUE(client.read(*fh, 0, 96 * kBlockSize).ok());
    ASSERT_TRUE(client.close(*fh).ok());
    fs.drain_data();
    auto reopened = client.open("data/file.bin");
    ASSERT_TRUE(reopened);
    EXPECT_EQ(reopened->ino.v, fh->ino.v);
    for (std::size_t t = 0; t < fs.num_targets(); ++t) {
      EXPECT_TRUE(fs.target(t).verify().ok());
    }
  }
}

TEST(ShardedStack, HashLookupAcceptsEitherSpelling) {
  core::ParallelFileSystem fs(sharded_cfg(4, shard::Policy::kHash));
  ASSERT_TRUE(fs.rpc().mkdir("d"));
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(fs.rpc().create("d/f" + std::to_string(i)));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(fs.rpc().stat("/d/f" + std::to_string(i)).ok()) << i;
  }
  EXPECT_TRUE(fs.rpc().unlink("/d/f0").ok());
  EXPECT_EQ(fs.rpc().stat("d/f0").error(), Errc::kNotFound);
}

TEST(ShardedStack, NamespaceSemanticsHoldUnderBothPolicies) {
  for (auto policy : {shard::Policy::kSubtree, shard::Policy::kHash}) {
    core::ParallelFileSystem fs(sharded_cfg(3, policy));
    ASSERT_TRUE(fs.rpc().mkdir("a")) << to_string(policy);
    ASSERT_TRUE(fs.rpc().create("a/f"));
    EXPECT_TRUE(fs.rpc().stat("a/f").ok());
    EXPECT_TRUE(fs.rpc().utime("a/f").ok());
    EXPECT_TRUE(fs.rpc().unlink("a/f").ok());
    EXPECT_EQ(fs.rpc().stat("a/f").error(), Errc::kNotFound);
  }
}

// --- §IV-C: the name table under hash placement ------------------------------

TEST(ShardedStack, HashNegativeLookupsSendNoEnvelope) {
  core::ParallelFileSystem fs(sharded_cfg(4, shard::Policy::kHash));
  ASSERT_TRUE(fs.rpc().mkdir("giant"));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fs.rpc().create("giant/f" + std::to_string(i)));
  }
  const rpc::InprocTransport& wire = fs.transport().wire();
  const auto sent = [&] {
    u64 n = 0;
    for (rpc::Op op : {rpc::Op::kStat, rpc::Op::kResolve,
                       rpc::Op::kOpenGetLayout, rpc::Op::kUnlink}) {
      n += wire.op_counters(op).count;
    }
    return n;
  };
  const u64 stats0 = wire.op_counters(rpc::Op::kStat).count;
  const u64 sent0 = sent();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fs.rpc().stat("giant/missing" + std::to_string(i)).error(),
              Errc::kNotFound);
  }
  EXPECT_EQ(fs.rpc().resolve("giant/nope").error(), Errc::kNotFound);
  EXPECT_EQ(fs.rpc().open_getlayout("giant/nope").error(), Errc::kNotFound);
  EXPECT_EQ(fs.rpc().unlink("giant/nope").error(), Errc::kNotFound);
  // The router's name table answered every miss; no shard saw one.
  EXPECT_EQ(sent(), sent0);
  auto* sharded = fs.transport().sharded();
  EXPECT_EQ(sharded->stats().avoided_rpcs, 103u);

  // Hits still reach the owning shard, in either spelling.
  EXPECT_TRUE(fs.rpc().stat("giant/f7").ok());
  EXPECT_TRUE(fs.rpc().stat("/giant/f8").ok());
  EXPECT_EQ(wire.op_counters(rpc::Op::kStat).count, stats0 + 2);
  EXPECT_EQ(sharded->stats().avoided_rpcs, 103u);

  obs::MetricsRegistry reg;
  fs.export_metrics(reg);
  EXPECT_NE(reg.to_json().dump(0).find("\"shard.avoided_rpcs\""),
            std::string::npos);
}

TEST(ShardedStack, SubtreeForwardsEveryLookup) {
  core::ParallelFileSystem fs(sharded_cfg(4, shard::Policy::kSubtree));
  ASSERT_TRUE(fs.rpc().mkdir("d"));
  const u64 stats0 = fs.transport().wire().op_counters(rpc::Op::kStat).count;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fs.rpc().stat("d/missing" + std::to_string(i)).error(),
              Errc::kNotFound);
  }
  EXPECT_EQ(fs.transport().wire().op_counters(rpc::Op::kStat).count,
            stats0 + 10);
  EXPECT_EQ(fs.transport().sharded()->stats().avoided_rpcs, 0u);
  obs::MetricsRegistry reg;
  fs.export_metrics(reg);
  EXPECT_EQ(reg.to_json().dump(0).find("shard.avoided_rpcs"),
            std::string::npos);
}

TEST(ShardedStack, HashUnlinkThenRecreate) {
  core::ParallelFileSystem fs(sharded_cfg(2, shard::Policy::kHash));
  ASSERT_TRUE(fs.rpc().mkdir("giant"));
  ASSERT_TRUE(fs.rpc().create("giant/a"));
  ASSERT_TRUE(fs.rpc().unlink("giant/a").ok());
  EXPECT_EQ(fs.rpc().stat("giant/a").error(), Errc::kNotFound);
  EXPECT_EQ(fs.rpc().unlink("giant/a").error(), Errc::kNotFound);
  EXPECT_TRUE(fs.rpc().create("giant/a"));
  EXPECT_TRUE(fs.rpc().stat("giant/a").ok());
}

// The table must never miss a live name, nor keep a dead one: through
// creates, mkdirs, unlinks, same- and cross-shard renames of files and
// directories, and recover() after a rename lost its second phase.  A lookup
// succeeds exactly when the owner shard holds the name, and only a miss is
// answered without an envelope.
TEST(ShardedStack, HashNameTableTracksOwnerShardsExactly) {
  core::ClusterConfig cfg = sharded_cfg(3, shard::Policy::kHash);
  cfg.rpc.inject_faults = true;
  core::ParallelFileSystem fs(cfg);
  const std::vector<std::string> dirs{"a", "b", "c", "a/s", "b/s"};
  std::vector<std::string> files;
  for (const std::string& d : dirs) {
    for (int i = 0; i < 4; ++i) files.push_back(d + "/f" + std::to_string(i));
  }
  std::vector<std::string> names = dirs;
  names.insert(names.end(), files.begin(), files.end());

  Rng rng(42);
  const auto pick = [&](const std::vector<std::string>& v) {
    return v[rng.uniform(0, v.size() - 1)];
  };
  const auto nested = [](const std::string& x, const std::string& y) {
    return x.starts_with(y + "/") || y.starts_with(x + "/");
  };
  for (int step = 0; step < 400; ++step) {
    switch (rng.uniform(0, 5)) {
      case 0: (void)fs.rpc().mkdir(pick(dirs)); break;
      case 1: (void)fs.rpc().create(pick(files)); break;
      case 2: (void)fs.rpc().unlink(pick(names)); break;
      case 3: (void)fs.rpc().rename(pick(files), pick(files)); break;
      case 4: {
        const std::string from = pick(dirs), to = pick(dirs);
        if (!nested(from, to)) (void)fs.rpc().rename(from, to);
        break;
      }
      case 5: {
        // A cross-shard rename loses its tombstone phase; recover() undoes
        // the copy it left on the target shard.
        fs.transport().fault()->arm({.drop_after = 2, .drop_count = 1});
        (void)fs.rpc().rename(pick(files), pick(files));
        fs.transport().fault()->disarm();
        (void)fs.transport().sharded()->recover();
        break;
      }
    }
    expect_table_exact(fs, names, "at step " + std::to_string(step));
    if (HasFailure()) return;
  }
}

// A same-shard rename of a hash-placed directory moves that shard's mirror
// and what it holds; the other mirrors keep the old name and their files.
TEST(ShardedStack, HashNameTableFollowsSameShardDirectoryRename) {
  core::ParallelFileSystem fs(sharded_cfg(3, shard::Policy::kHash));
  const shard::Map map(3, shard::Policy::kHash);
  const std::string from = "d0";
  std::string to;
  for (int i = 1; to.empty(); ++i) {
    const std::string p = "d" + std::to_string(i);
    if (map.owner_of(p) == map.owner_of(from)) to = p;
  }
  ASSERT_TRUE(fs.rpc().mkdir(from));
  ASSERT_TRUE(fs.rpc().mkdir(from + "/sub"));
  std::vector<std::string> names{from, to, from + "/sub", to + "/sub"};
  for (const std::string rel : {"", "/sub"}) {
    for (int i = 0; i < 12; ++i) {
      const std::string leaf = rel + "/f" + std::to_string(i);
      ASSERT_TRUE(fs.rpc().create(from + leaf));
      names.push_back(from + leaf);
      names.push_back(to + leaf);
    }
  }
  ASSERT_TRUE(fs.rpc().rename(from, to));
  EXPECT_EQ(fs.transport().sharded()->stats().renames_local, 1u);
  expect_table_exact(fs, names, "after the rename");
}

// --- hash-placed directories: unlink sweeps every mirror ----------------------

TEST(ShardedStack, HashDirectoryUnlinkRefusesWhileAnyMirrorHoldsEntries) {
  core::ParallelFileSystem fs(sharded_cfg(4, shard::Policy::kHash));
  const shard::Map map(4, shard::Policy::kHash);
  ASSERT_TRUE(fs.rpc().mkdir("d"));
  // A child on a shard other than the directory's owner: the owner's own
  // copy of "d" is empty.
  std::string child;
  for (int i = 0; child.empty(); ++i) {
    const std::string p = "d/x" + std::to_string(i);
    if (map.owner_of(p) != map.owner_of("d")) child = p;
  }
  ASSERT_TRUE(fs.rpc().create(child));
  EXPECT_EQ(fs.rpc().unlink("d").error(), Errc::kNotEmpty);
  for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
    EXPECT_TRUE(fs.mds(s).stat("d").ok()) << "shard " << s;
  }
  EXPECT_TRUE(fs.rpc().stat(child).ok());

  // Once empty, the unlink removes every copy, and the name can be reused.
  ASSERT_TRUE(fs.rpc().unlink(child).ok());
  ASSERT_TRUE(fs.rpc().unlink("d").ok());
  EXPECT_EQ(fs.rpc().stat("d").error(), Errc::kNotFound);
  for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
    EXPECT_EQ(fs.mds(s).stat("d").error(), Errc::kNotFound) << "shard " << s;
    EXPECT_TRUE(fs.mds(s).fs().layout().verify().ok()) << "shard " << s;
  }
  ASSERT_TRUE(fs.rpc().mkdir("d"));
  EXPECT_TRUE(fs.rpc().create(child));
}

TEST(ShardedStack, HashDirectorySweepCutByFaultConvergesOnRetry) {
  core::ClusterConfig cfg = sharded_cfg(3, shard::Policy::kHash);
  cfg.rpc.inject_faults = true;
  core::ParallelFileSystem fs(cfg);
  ASSERT_TRUE(fs.rpc().mkdir("d"));
  const auto copies = [&] {
    int n = 0;
    for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
      n += fs.mds(s).stat("d").ok() ? 1 : 0;
    }
    return n;
  };
  // The sweep lists three copies, then unlinks them owner-last; let the
  // listings and the first unlink through and drop the second.
  fs.transport().fault()->arm({.drop_after = 4, .drop_count = 1});
  EXPECT_EQ(fs.rpc().unlink("d").error(), Errc::kIo);
  fs.transport().fault()->disarm();
  EXPECT_EQ(copies(), 2);
  EXPECT_TRUE(fs.rpc().stat("d").ok());  // the owner's copy is still live

  ASSERT_TRUE(fs.rpc().unlink("d").ok());
  EXPECT_EQ(copies(), 0);
  EXPECT_EQ(fs.rpc().stat("d").error(), Errc::kNotFound);
  for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
    EXPECT_TRUE(fs.mds(s).fs().layout().verify().ok()) << "shard " << s;
  }
}

// --- §IV-D: placement policy vs the embedded layout ---------------------------

// The disk-access benefit of an aggregated readdir-stat survives subtree
// placement but not hash placement, where every shard sweeps its own piece
// of the scattered directory.
TEST(ShardedStack, EmbeddedReaddirStatFavoursSubtreePlacement) {
  const auto accesses = [](shard::Policy policy) {
    core::ClusterConfig cfg = sharded_cfg(4, policy);
    cfg.mds.mfs.mode = mfs::DirectoryMode::kEmbedded;
    cfg.mds.mfs.cache_blocks = 1024;
    core::ParallelFileSystem fs(cfg);
    EXPECT_TRUE(fs.rpc().mkdir("big"));
    for (int i = 0; i < 2000; ++i) {
      EXPECT_TRUE(fs.rpc().create("big/f" + std::to_string(i)));
    }
    u64 before = 0;
    for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
      fs.mds(s).finish();
      fs.mds(s).fs().cache().invalidate_all();
      before += fs.mds(s).fs().disk_accesses();
    }
    auto entries = fs.rpc().readdir_stats("big");
    EXPECT_EQ(entries ? entries->size() : 0u, 2000u);
    fs.finish_mds();
    u64 after = 0;
    for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
      after += fs.mds(s).fs().disk_accesses();
    }
    return after - before;
  };
  EXPECT_LT(accesses(shard::Policy::kSubtree), accesses(shard::Policy::kHash));
}

// --- rename -----------------------------------------------------------------

TEST(ShardedRename, WithinShardIsOneRpc) {
  core::ParallelFileSystem fs(sharded_cfg(4, shard::Policy::kSubtree));
  ASSERT_TRUE(fs.rpc().mkdir("d0"));
  ASSERT_TRUE(fs.rpc().create("d0/old"));
  auto client = fs.connect(ClientId{1});
  auto moved = client.rename("d0/old", "d0/new");
  ASSERT_TRUE(moved);
  EXPECT_TRUE(fs.rpc().stat("d0/new").ok());
  EXPECT_EQ(fs.rpc().stat("d0/old").error(), Errc::kNotFound);
  const shard::ShardStats s = fs.transport().sharded()->stats();
  EXPECT_EQ(s.renames_local, 1u);
  EXPECT_EQ(s.renames_cross, 0u);
}

TEST(ShardedRename, AcrossShardsMovesEntryAndKeepsDataReachable) {
  core::ParallelFileSystem fs(sharded_cfg(3, shard::Policy::kSubtree));
  ASSERT_TRUE(fs.rpc().mkdir("src"));  // delegated to shard 0
  ASSERT_TRUE(fs.rpc().mkdir("dst"));  // delegated to shard 1
  auto client = fs.connect(ClientId{1});
  auto fh = client.create("src/data.bin");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(client.write(*fh, 0, 0, 48 * kBlockSize).ok());
  ASSERT_TRUE(client.close(*fh).ok());
  fs.drain_data();

  auto moved = client.rename("src/data.bin", "dst/data.bin");
  ASSERT_TRUE(moved);
  EXPECT_NE(moved->ino.v, fh->ino.v);  // new inode on the target shard
  EXPECT_TRUE(fs.rpc().stat("dst/data.bin").ok());
  EXPECT_EQ(fs.rpc().stat("src/data.bin").error(), Errc::kNotFound);

  // The blocks stayed keyed by the old ino on the storage targets; the
  // alias chain keeps them reachable through the new handle.
  EXPECT_TRUE(client.read(*moved, 0, 48 * kBlockSize).ok());

  const shard::ShardStats s = fs.transport().sharded()->stats();
  EXPECT_EQ(s.renames_cross, 1u);
  EXPECT_EQ(s.rename_failures, 0u);
  // The journal records the committed protocol; nothing is pending.
  const auto journal = fs.transport().sharded()->router().journal_snapshot();
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal[0].state, shard::RenameRecord::State::kCommitted);
  EXPECT_TRUE(fs.transport().sharded()->router().pending_renames().empty());
}

TEST(ShardedRename, FaultBetweenPhasesRollsBackWithoutOrphan) {
  core::ClusterConfig cfg = sharded_cfg(3, shard::Policy::kSubtree);
  cfg.rpc.inject_faults = true;
  core::ParallelFileSystem fs(cfg);
  ASSERT_TRUE(fs.rpc().mkdir("src"));
  ASSERT_TRUE(fs.rpc().mkdir("dst"));
  ASSERT_TRUE(fs.rpc().create("src/f"));
  auto* sharded = fs.transport().sharded();
  ASSERT_NE(sharded, nullptr);

  // A cross-shard rename sends resolve, create, unlink through the fault
  // layer in that order; let two through and drop the third — the protocol
  // dies exactly between create-on-target and tombstone-on-source.
  fs.transport().fault()->arm({.drop_after = 2, .drop_count = 1});
  auto client = fs.connect(ClientId{1});
  auto moved = client.rename("src/f", "dst/f");
  ASSERT_FALSE(moved);
  EXPECT_EQ(moved.error(), Errc::kIo);
  fs.transport().fault()->disarm();

  // Half-done: the source entry MUST remain resolvable ...
  EXPECT_TRUE(fs.rpc().stat("src/f").ok());
  // ... and the journal knows phase 1 landed but phase 2 did not.
  ASSERT_EQ(sharded->router().pending_renames().size(), 1u);
  EXPECT_EQ(sharded->stats().rename_failures, 1u);

  // Recovery unlinks the phase-1 copy on the target shard: no orphan inode
  // is left behind and the namespace is back to the pre-rename state.
  EXPECT_EQ(sharded->recover(), 1u);
  EXPECT_TRUE(sharded->router().pending_renames().empty());
  EXPECT_TRUE(fs.rpc().stat("src/f").ok());
  EXPECT_EQ(fs.rpc().stat("dst/f").error(), Errc::kNotFound);
  for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
    EXPECT_TRUE(fs.mds(s).fs().layout().verify().ok());
  }

  // With the fault gone, the retry completes the move.
  auto retried = client.rename("src/f", "dst/f");
  ASSERT_TRUE(retried);
  EXPECT_TRUE(fs.rpc().stat("dst/f").ok());
  EXPECT_EQ(fs.rpc().stat("src/f").error(), Errc::kNotFound);
  EXPECT_EQ(sharded->stats().renames_recovered, 1u);
}

// --- observability ----------------------------------------------------------

TEST(ShardedObservability, MetricsAndSpansExport) {
  core::ParallelFileSystem fs(sharded_cfg(4, shard::Policy::kHash));
  obs::SpanCollector spans;
  fs.set_spans(&spans);
  ASSERT_TRUE(fs.rpc().mkdir("m"));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(fs.rpc().create("m/f" + std::to_string(i)));
  }
  (void)fs.rpc().readdir_stats("m");
  fs.set_spans(nullptr);

  obs::MetricsRegistry reg;
  fs.export_metrics(reg);
  const std::string json = reg.to_json().dump(0);
  EXPECT_NE(json.find("\"shard.0.ops\""), std::string::npos);
  EXPECT_NE(json.find("\"shard.3.ops\""), std::string::npos);
  EXPECT_NE(json.find("\"shard.fanout\""), std::string::npos);
  EXPECT_NE(json.find("\"shard.imbalance\""), std::string::npos);
  // Multi-shard mounts export per-shard MDS metrics.
  EXPECT_NE(json.find("\"mds.0."), std::string::npos);

  // The routed metadata calls recorded rpc.shard span phases.
  obs::MetricsRegistry span_reg;
  spans.export_metrics(span_reg);
  const std::string span_json = span_reg.to_json().dump(0);
  EXPECT_NE(span_json.find("span.rpc.shard"), std::string::npos);
}

}  // namespace
}  // namespace mif
