// Unit tests for the traditional (normal) directory layout: namespace
// semantics plus the block-traffic shape of Fig. 1(b) — dirents and inodes
// in separate regions.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "mfs/mfs.hpp"
#include "util/rng.hpp"

namespace mif::mfs {
namespace {

MfsConfig normal_cfg() {
  MfsConfig cfg;
  cfg.mode = DirectoryMode::kNormal;
  cfg.cache_blocks = 4096;
  return cfg;
}

// Allocates every free block of the volume; returns the runs taken.
std::vector<block::BlockRange> fill_volume(block::FreeSpace& space) {
  std::vector<block::BlockRange> taken;
  while (auto run = space.allocate_best(DiskBlock{0}, 1, space.total_blocks()))
    taken.push_back(*run);
  return taken;
}

struct NormalFixture : ::testing::Test {
  Mfs fs{normal_cfg()};
  DirLayout& l() { return fs.layout(); }
  InodeNo root() { return fs.layout().root(); }
};

TEST_F(NormalFixture, CreateAndLookup) {
  auto ino = l().create(root(), "a.txt");
  ASSERT_TRUE(ino);
  auto found = l().lookup(root(), "a.txt");
  ASSERT_TRUE(found);
  EXPECT_EQ(found->v, ino->v);
  EXPECT_FALSE(l().lookup(root(), "missing").ok());
}

TEST_F(NormalFixture, DuplicateCreateRejected) {
  ASSERT_TRUE(l().create(root(), "a"));
  EXPECT_EQ(l().create(root(), "a").error(), Errc::kExists);
}

TEST_F(NormalFixture, MkdirCreatesTraversableDirectory) {
  auto d = l().mkdir(root(), "sub");
  ASSERT_TRUE(d);
  auto f = l().create(*d, "inner");
  ASSERT_TRUE(f);
  auto got = l().lookup(*d, "inner");
  ASSERT_TRUE(got);
  EXPECT_EQ(got->v, f->v);
  EXPECT_TRUE(l().find(*d)->is_dir());
  EXPECT_FALSE(l().find(*f)->is_dir());
}

TEST_F(NormalFixture, ReaddirListsAllEntries) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(l().create(root(), "f" + std::to_string(i)));
  }
  auto entries = l().readdir(root(), false);
  ASSERT_TRUE(entries);
  EXPECT_EQ(entries->size(), 200u);
}

TEST_F(NormalFixture, UnlinkRemovesAndFreesOrdinal) {
  auto a = l().create(root(), "a");
  ASSERT_TRUE(a);
  ASSERT_TRUE(l().unlink(root(), "a").ok());
  EXPECT_FALSE(l().lookup(root(), "a").ok());
  EXPECT_EQ(l().find(*a), nullptr);
  // Ordinal reuse keeps the directory compact.
  auto b = l().create(root(), "b");
  ASSERT_TRUE(b);
  auto entries = l().readdir(root(), false);
  ASSERT_TRUE(entries);
  EXPECT_EQ(entries->size(), 1u);
}

TEST_F(NormalFixture, UnlinkNonEmptyDirectoryRefused) {
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  ASSERT_TRUE(l().create(*d, "x"));
  EXPECT_EQ(l().unlink(root(), "d").error(), Errc::kNotEmpty);
  ASSERT_TRUE(l().unlink(*d, "x").ok());
  EXPECT_TRUE(l().unlink(root(), "d").ok());
}

TEST_F(NormalFixture, RenameKeepsInodeNumber) {
  auto d1 = l().mkdir(root(), "d1");
  auto d2 = l().mkdir(root(), "d2");
  ASSERT_TRUE(d1);
  ASSERT_TRUE(d2);
  auto f = l().create(*d1, "file");
  ASSERT_TRUE(f);
  auto moved = l().rename(*d1, "file", *d2, "renamed");
  ASSERT_TRUE(moved);
  // Traditional layout: the file ID is stable across rename.
  EXPECT_EQ(moved->v, f->v);
  EXPECT_FALSE(l().lookup(*d1, "file").ok());
  ASSERT_TRUE(l().lookup(*d2, "renamed"));
}

TEST_F(NormalFixture, StatTouchesInodeTableBlock) {
  auto ino = l().create(root(), "s");
  ASSERT_TRUE(ino);
  fs.finish();
  fs.cache().invalidate_all();
  const u64 before = fs.disk_accesses();
  ASSERT_TRUE(l().stat(*ino).ok());
  fs.io().drain();
  EXPECT_GE(fs.disk_accesses(), before + 1);
}

TEST_F(NormalFixture, SyncLayoutSpillsMappingBlocks) {
  auto ino = l().create(root(), "big");
  ASSERT_TRUE(ino);
  // Few extents: stuffed inline, no overflow blocks.
  ASSERT_TRUE(l().sync_layout(*ino, Format::kInlineExtents).ok());
  EXPECT_TRUE(l().find(*ino)->mapping_blocks.empty());
  // Fragmented file: spills.
  ASSERT_TRUE(l().sync_layout(*ino, Format::kInlineExtents + 1).ok());
  EXPECT_EQ(l().find(*ino)->mapping_blocks.size(), 1u);
  ASSERT_TRUE(
      l().sync_layout(*ino, Format::kInlineExtents +
                                Format::kExtentsPerMappingBlock + 1)
          .ok());
  EXPECT_EQ(l().find(*ino)->mapping_blocks.size(), 2u);
}

TEST_F(NormalFixture, ReaddirPlusReadsInodeRegionToo) {
  for (int i = 0; i < 300; ++i)
    ASSERT_TRUE(l().create(root(), "f" + std::to_string(i)));
  fs.finish();
  fs.cache().invalidate_all();
  fs.reset_io_stats();
  ASSERT_TRUE(l().readdir(root(), false));
  fs.io().drain();
  const u64 plain = fs.disk_accesses();
  fs.cache().invalidate_all();
  fs.reset_io_stats();
  ASSERT_TRUE(l().readdir(root(), true));
  fs.io().drain();
  const u64 plus = fs.disk_accesses();
  // readdirplus must additionally visit the inode table region.
  EXPECT_GT(plus, plain);
}

TEST_F(NormalFixture, OpStatsCount) {
  ASSERT_TRUE(l().create(root(), "x"));
  ASSERT_TRUE(l().lookup(root(), "x"));
  ASSERT_TRUE(l().readdir(root(), false));
  ASSERT_TRUE(l().unlink(root(), "x").ok());
  const LayoutOpStats& s = l().op_stats();
  EXPECT_EQ(s.creates, 1u);
  EXPECT_EQ(s.lookups, 1u);
  EXPECT_EQ(s.readdirs, 1u);
  EXPECT_EQ(s.unlinks, 1u);
}

TEST_F(NormalFixture, UtimeJournalsInodeBlock) {
  auto ino = l().create(root(), "t");
  ASSERT_TRUE(ino);
  const u64 tx = fs.journal().stats().transactions;
  ASSERT_TRUE(l().utime(*ino).ok());
  EXPECT_EQ(fs.journal().stats().transactions, tx + 1);
  EXPECT_EQ(l().find(*ino)->mtime, 1u);
}

// A namespace operation that runs out of MDS space changes nothing: the
// source of a failed rename still resolves under its old name, and a failed
// mkdir or create takes no ordinal and no inode.
TEST_F(NormalFixture, NoSpaceFailureLeavesNamespaceUnchanged) {
  ASSERT_TRUE(fs.mkdir("src"));
  ASSERT_TRUE(fs.create("src/a"));
  ASSERT_TRUE(fs.mkdir("dst"));
  // 512 entries use up dst's first 8-block dirent reservation, so its next
  // entry needs a block from the volume.
  for (int i = 0; i < 512; ++i)
    ASSERT_TRUE(fs.create("dst/f" + std::to_string(i)));
  const NamespaceVerifyReport before = l().verify();
  ASSERT_TRUE(before.ok());
  const auto taken = fill_volume(fs.space());
  ASSERT_EQ(fs.space().free_blocks(), 0u);

  EXPECT_EQ(fs.rename("src/a", "dst/b").error(), Errc::kNoSpace);
  EXPECT_EQ(fs.mkdir("dst/sub").error(), Errc::kNoSpace);
  EXPECT_EQ(fs.create("dst/c").error(), Errc::kNoSpace);

  EXPECT_TRUE(fs.resolve("src/a").ok());
  EXPECT_EQ(fs.resolve("dst/b").error(), Errc::kNotFound);
  const NamespaceVerifyReport after = l().verify();
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(after.inodes, before.inodes);
  EXPECT_EQ(after.directories, before.directories);
  EXPECT_EQ(after.metadata_blocks, before.metadata_blocks);

  // No ordinal leaked: with the space back, dst's next 64 entries fill
  // exactly one new dirent block.
  for (const block::BlockRange& r : taken)
    ASSERT_TRUE(fs.space().free_range(r).ok());
  for (int i = 0; i < 64; ++i)
    ASSERT_TRUE(fs.create("dst/g" + std::to_string(i)));
  EXPECT_EQ(l().verify().metadata_blocks, before.metadata_blocks + 1);
}

// The inode table in lockstep with a reference map of live inode ->
// (parent, name) over seeded creates, mkdirs, unlinks and renames.  After
// every step find(), lookup() and verify() agree with the reference, and
// every number ever issued but no longer live finds nothing.
TEST_F(NormalFixture, InodeTableMatchesReferenceInLockstep) {
  struct Entry {
    u64 parent;
    std::string name;
    bool dir;
  };
  std::map<u64, Entry> live;  // ino -> entry; ordered, so picks repeat
  u64 issued = root().v;
  Rng rng(23);
  const auto pick_live = [&]() -> std::map<u64, Entry>::iterator {
    if (live.empty()) return live.end();
    return std::next(live.begin(),
                     static_cast<long>(rng.uniform(0, live.size() - 1)));
  };
  const auto pick_dir = [&]() -> u64 {
    std::vector<u64> dirs{root().v};
    for (const auto& [ino, e] : live)
      if (e.dir) dirs.push_back(ino);
    return dirs[rng.uniform(0, dirs.size() - 1)];
  };
  const auto named = [&](u64 parent, const std::string& name) {
    for (const auto& [ino, e] : live)
      if (e.parent == parent && e.name == name) return true;
    return false;
  };
  const auto has_children = [&](u64 dir) {
    for (const auto& [ino, e] : live)
      if (e.parent == dir) return true;
    return false;
  };

  for (int step = 0; step < 2000; ++step) {
    const u64 op = rng.uniform(0, 9);
    if (op < 5) {  // create or mkdir
      const u64 parent = pick_dir();
      const std::string name = "n" + std::to_string(rng.uniform(0, 40));
      const bool dir = op == 0;
      auto got = dir ? l().mkdir(InodeNo{parent}, name)
                     : l().create(InodeNo{parent}, name);
      if (named(parent, name)) {
        ASSERT_EQ(got.error(), Errc::kExists) << "step " << step;
      } else {
        ASSERT_TRUE(got) << "step " << step;
        ASSERT_EQ(got->v, issued + 1) << "numbers come from a counter";
        issued = got->v;
        live[got->v] = Entry{parent, name, dir};
      }
    } else if (op < 8) {  // unlink
      auto it = pick_live();
      if (it == live.end()) continue;
      const Status s = l().unlink(InodeNo{it->second.parent}, it->second.name);
      if (it->second.dir && has_children(it->first)) {
        ASSERT_EQ(s.error(), Errc::kNotEmpty) << "step " << step;
      } else {
        ASSERT_TRUE(s.ok()) << "step " << step;
        live.erase(it);
      }
    } else {  // rename: files anywhere, directories within their parent
      auto it = pick_live();
      if (it == live.end()) continue;
      const u64 dst = it->second.dir ? it->second.parent : pick_dir();
      const std::string name = "n" + std::to_string(rng.uniform(0, 40));
      auto got = l().rename(InodeNo{it->second.parent}, it->second.name,
                            InodeNo{dst}, name);
      if (named(dst, name)) {
        ASSERT_EQ(got.error(), Errc::kExists) << "step " << step;
      } else {
        ASSERT_TRUE(got) << "step " << step;
        ASSERT_EQ(got->v, it->first);
        it->second.parent = dst;
        it->second.name = name;
      }
    }

    for (const auto& [ino, e] : live) {
      const Inode* node = l().find(InodeNo{ino});
      ASSERT_NE(node, nullptr) << "step " << step << " ino " << ino;
      ASSERT_EQ(node->num.v, ino);
      ASSERT_EQ(node->is_dir(), e.dir);
      auto found = l().lookup(InodeNo{e.parent}, e.name);
      ASSERT_TRUE(found) << "step " << step << " " << e.name;
      ASSERT_EQ(found->v, ino);
    }
    for (u64 n = root().v + 1; n <= issued + 1; ++n) {
      if (!live.contains(n)) {
        ASSERT_EQ(l().find(InodeNo{n}), nullptr) << "step " << step << " " << n;
      }
    }
    const NamespaceVerifyReport r = l().verify();
    ASSERT_TRUE(r.ok()) << "step " << step;
    ASSERT_EQ(r.inodes, live.size() + 1);
  }
}

// A directory cannot move into its own subtree: the rename fails with
// kInvalid before the layout is touched, and the namespace is unchanged.
// Renaming onto itself is refused the same way; a name that only starts
// with the same characters is not inside the directory.
TEST_F(NormalFixture, RenameIntoOwnSubtreeRefused) {
  ASSERT_TRUE(fs.mkdir("a"));
  ASSERT_TRUE(fs.mkdir("a/b"));
  const NamespaceVerifyReport before = l().verify();
  ASSERT_TRUE(before.ok());
  const u64 renames = l().op_stats().renames;

  EXPECT_EQ(fs.rename("a", "a/b/c").error(), Errc::kInvalid);
  EXPECT_EQ(fs.rename("a", "/a/c").error(), Errc::kInvalid);
  EXPECT_EQ(fs.rename("a", "a").error(), Errc::kInvalid);
  EXPECT_EQ(l().op_stats().renames, renames);

  EXPECT_TRUE(fs.resolve("a").ok());
  EXPECT_TRUE(fs.resolve("a/b").ok());
  auto listing = fs.readdir("/");
  ASSERT_TRUE(listing);
  ASSERT_EQ(listing->size(), 1u);
  EXPECT_EQ(listing->front().name, "a");
  const NamespaceVerifyReport after = l().verify();
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(after.inodes, before.inodes);
  EXPECT_EQ(after.directories, before.directories);
  EXPECT_EQ(after.metadata_blocks, before.metadata_blocks);

  EXPECT_TRUE(fs.rename("a", "ab").ok());
  EXPECT_TRUE(fs.resolve("ab/b").ok());
  EXPECT_TRUE(l().verify().ok());
}

// verify() fails a directory that no walk from the root reaches: the cycle
// a rename into the directory's own subtree builds, made here through the
// layout directly.
TEST_F(NormalFixture, VerifyFailsDirectoryCutOffFromRoot) {
  auto a = l().mkdir(root(), "a");
  ASSERT_TRUE(a);
  auto b = l().mkdir(*a, "b");
  ASSERT_TRUE(b);
  ASSERT_TRUE(l().verify().ok());
  ASSERT_TRUE(l().rename(root(), "a", *b, "c"));
  EXPECT_FALSE(l().verify().ok());
}

}  // namespace
}  // namespace mif::mfs
