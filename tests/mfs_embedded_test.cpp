// Unit tests for the embedded directory layout (§IV): composite inode
// numbers, content preallocation and growth, fragmentation degree, lazy
// free, and the contiguity properties the technique exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "mfs/mfs.hpp"
#include "util/rng.hpp"

namespace mif::mfs {
namespace {

MfsConfig embedded_cfg() {
  MfsConfig cfg;
  cfg.mode = DirectoryMode::kEmbedded;
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

struct EmbeddedFixture : ::testing::Test {
  Mfs fs{embedded_cfg()};
  EmbeddedDirLayout& l() {
    return static_cast<EmbeddedDirLayout&>(fs.layout());
  }
  InodeNo root() { return fs.layout().root(); }
};

TEST_F(EmbeddedFixture, InodeNumberEncodesDirectoryAndSlot) {
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  auto f = l().create(*d, "f");
  ASSERT_TRUE(f);
  const DirId dir_id = l().find(*d)->dir_id;
  EXPECT_EQ(EmbeddedInodeNo::dir_of(*f).v, dir_id.v);
  // The codec round-trips.
  EXPECT_EQ(EmbeddedInodeNo::make(EmbeddedInodeNo::dir_of(*f),
                                  EmbeddedInodeNo::offset_of(*f))
                .v,
            f->v);
}

TEST_F(EmbeddedFixture, MkdirPreallocatesContent) {
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  EXPECT_EQ(l().content_blocks(*d), EmbeddedDirLayout::kInitialDirBlocks);
}

TEST_F(EmbeddedFixture, ContentGrowsWhenDirectoryFills) {
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  const u64 before = l().content_blocks(*d);
  // Overflow the initial reservation: slots/block × initial blocks.
  const u64 capacity = before * Format::kEmbeddedSlotsPerBlock;
  for (u64 i = 0; i <= capacity; ++i) {
    ASSERT_TRUE(l().create(*d, "f" + std::to_string(i)));
  }
  EXPECT_GT(l().content_blocks(*d), before);
}

TEST_F(EmbeddedFixture, ContentStaysPhysicallyContiguous) {
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  for (int i = 0; i < 500; ++i)
    ASSERT_TRUE(l().create(*d, "f" + std::to_string(i)));
  // The whole directory readdir must need very few positionings: drop the
  // cache, sweep, count.
  fs.finish();
  fs.cache().invalidate_all();
  fs.reset_io_stats();
  ASSERT_TRUE(l().readdir(*d, true));
  fs.io().drain();
  EXPECT_LE(fs.disk().stats().positionings, 4u);
}

TEST_F(EmbeddedFixture, StatReadsOneContentBlock) {
  auto f = l().create(root(), "f");
  ASSERT_TRUE(f);
  fs.finish();
  fs.cache().invalidate_all();
  fs.reset_io_stats();
  ASSERT_TRUE(l().stat(*f).ok());
  fs.io().drain();
  EXPECT_EQ(fs.disk().stats().blocks_read, 1u);
}

TEST_F(EmbeddedFixture, UnlinkIsLazyAndBatched) {
  EmbeddedLayoutConfig ecfg;
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  for (u64 i = 0; i < ecfg.lazy_free_batch; ++i)
    ASSERT_TRUE(l().create(*d, "f" + std::to_string(i)));
  for (u64 i = 0; i + 1 < ecfg.lazy_free_batch; ++i)
    ASSERT_TRUE(l().unlink(*d, "f" + std::to_string(i)).ok());
  EXPECT_EQ(l().pending_lazy_frees(*d), ecfg.lazy_free_batch - 1);
  ASSERT_TRUE(
      l().unlink(*d, "f" + std::to_string(ecfg.lazy_free_batch - 1)).ok());
  // Batch threshold reached → flushed.
  EXPECT_EQ(l().pending_lazy_frees(*d), 0u);
}

TEST_F(EmbeddedFixture, SlotsReusedOnlyAfterLazyFreeFlush) {
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  auto a = l().create(*d, "a");
  ASSERT_TRUE(a);
  ASSERT_TRUE(l().unlink(*d, "a").ok());
  // Slot still pending: the next create takes a fresh slot.
  auto b = l().create(*d, "b");
  ASSERT_TRUE(b);
  EXPECT_NE(EmbeddedInodeNo::offset_of(*b), EmbeddedInodeNo::offset_of(*a));
}

TEST_F(EmbeddedFixture, FragmentationDegreeTracksExtents) {
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  auto f1 = l().create(*d, "f1");
  auto f2 = l().create(*d, "f2");
  ASSERT_TRUE(f1);
  ASSERT_TRUE(f2);
  ASSERT_TRUE(l().sync_layout(*f1, 6).ok());
  ASSERT_TRUE(l().sync_layout(*f2, 2).ok());
  EXPECT_DOUBLE_EQ(l().fragmentation_degree(*d), 4.0);
  // Re-sync replaces, not accumulates.
  ASSERT_TRUE(l().sync_layout(*f1, 2).ok());
  EXPECT_DOUBLE_EQ(l().fragmentation_degree(*d), 2.0);
  // An unlinked file's synced extents leave its directory's degree.
  ASSERT_TRUE(l().unlink(*d, "f1").ok());
  EXPECT_DOUBLE_EQ(l().fragmentation_degree(*d), 2.0);
  // A rename carries them to the target directory.
  auto e = l().mkdir(root(), "e");
  ASSERT_TRUE(e);
  ASSERT_TRUE(l().rename(*d, "f2", *e, "f2"));
  EXPECT_DOUBLE_EQ(l().fragmentation_degree(*e), 2.0);
  // Neither file's extents linger in the source: a fresh, never-synced file
  // is all that directory averages over.
  ASSERT_TRUE(l().create(*d, "f3"));
  EXPECT_DOUBLE_EQ(l().fragmentation_degree(*d), 0.0);
}

TEST_F(EmbeddedFixture, HighFragmentationTriggersEagerMappingBlocks) {
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  auto f1 = l().create(*d, "f1");
  ASSERT_TRUE(f1);
  const u64 extents =
      static_cast<u64>(EmbeddedDirLayout::kFragDegreeThreshold * 3);
  ASSERT_TRUE(l().sync_layout(*f1, extents).ok());
  // Directory now badly fragmented: the next create preallocates an extra
  // mapping block beside the inode.
  auto f2 = l().create(*d, "f2");
  ASSERT_TRUE(f2);
  EXPECT_EQ(l().find(*f2)->mapping_blocks.size(), 1u);
}

TEST_F(EmbeddedFixture, MappingOverflowDrawsFromDirectoryContent) {
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  auto f = l().create(*d, "f");
  ASSERT_TRUE(f);
  ASSERT_TRUE(l()
                  .sync_layout(*f, Format::kInlineExtents +
                                       Format::kExtentsPerMappingBlock * 2)
                  .ok());
  const Inode* node = l().find(*f);
  ASSERT_EQ(node->mapping_blocks.size(), 2u);
  // Mapping blocks live inside the directory's content region — adjacent to
  // the inode, not scattered (§IV-A).
  const u64 lo = node->inode_block.v > 64 ? node->inode_block.v - 64 : 0;
  for (DiskBlock mb : node->mapping_blocks) {
    EXPECT_GT(mb.v, lo);
    EXPECT_LT(mb.v, node->inode_block.v + 64);
  }
}

TEST_F(EmbeddedFixture, GetlayoutIsOneContiguousTouch) {
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  auto f = l().create(*d, "f");
  ASSERT_TRUE(f);
  ASSERT_TRUE(l().sync_layout(*f, 600).ok());
  fs.finish();
  fs.cache().invalidate_all();
  fs.reset_io_stats();
  ASSERT_TRUE(l().getlayout(*f).ok());
  fs.io().drain();
  // Inode + mapping blocks in ≤ 2 dispatched requests.
  EXPECT_LE(fs.disk_accesses(), 2u);
}

TEST_F(EmbeddedFixture, RmdirReleasesContentBlocks) {
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  const u64 free_before = fs.space().free_blocks();
  ASSERT_TRUE(l().unlink(root(), "d").ok());
  EXPECT_GT(fs.space().free_blocks(), free_before);
}

TEST_F(EmbeddedFixture, DeepPathsResolveByNumber) {
  auto a = l().mkdir(root(), "a");
  ASSERT_TRUE(a);
  auto b = l().mkdir(*a, "b");
  ASSERT_TRUE(b);
  auto f = l().create(*b, "f");
  ASSERT_TRUE(f);
  auto chain = l().resolve_by_number(*f);
  ASSERT_TRUE(chain);
  // Walk: parent (b), then a, then root.
  ASSERT_GE(chain->size(), 1u);
  EXPECT_EQ(chain->front().v, b->v);
}

// A namespace operation that runs out of MDS space changes nothing: a
// failed rename loses no inode, and a failed mkdir registers no directory
// and takes no slot.
TEST_F(EmbeddedFixture, NoSpaceFailureLeavesNamespaceUnchanged) {
  ASSERT_TRUE(fs.mkdir("src"));
  auto a = fs.create("src/a");
  ASSERT_TRUE(a);
  ASSERT_TRUE(fs.mkdir("dst"));
  // 256 entries fill dst's 16 preallocated content blocks, so its next
  // entry needs the reservation to grow.
  for (int i = 0; i < 256; ++i)
    ASSERT_TRUE(fs.create("dst/f" + std::to_string(i)));
  const NamespaceVerifyReport before = l().verify();
  ASSERT_TRUE(before.ok());
  const std::size_t dirs_before = l().dir_table().size();
  const auto taken = fill_volume(fs.space());
  ASSERT_EQ(fs.space().free_blocks(), 0u);

  EXPECT_EQ(fs.rename("src/a", "dst/b").error(), Errc::kNoSpace);
  // src has free slots in its first content block, so this mkdir gets as
  // far as preallocating the new directory's own content.
  EXPECT_EQ(fs.mkdir("src/sub").error(), Errc::kNoSpace);
  EXPECT_EQ(fs.mkdir("dst/sub").error(), Errc::kNoSpace);

  auto still = fs.resolve("src/a");
  EXPECT_TRUE(still.ok() && still->v == a->v);
  EXPECT_EQ(fs.resolve("dst/b").error(), Errc::kNotFound);
  const NamespaceVerifyReport after = l().verify();
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(after.inodes, before.inodes);
  EXPECT_EQ(after.directories, before.directories);
  EXPECT_EQ(after.metadata_blocks, before.metadata_blocks);
  EXPECT_EQ(l().dir_table().size(), dirs_before);

  // No slot leaked: with the space back, src's next entry takes slot 1.
  for (const block::BlockRange& r : taken)
    ASSERT_TRUE(fs.space().free_range(r).ok());
  auto c = fs.create("src/c");
  ASSERT_TRUE(c);
  EXPECT_EQ(EmbeddedInodeNo::offset_of(*c), 1u);
  EXPECT_TRUE(l().verify().ok());
}

// A directory cannot move into its own subtree: the rename fails with
// kInvalid before the layout is touched, and the namespace is unchanged.
// Renaming onto itself is refused the same way; a name that only starts
// with the same characters is not inside the directory.
TEST_F(EmbeddedFixture, RenameIntoOwnSubtreeRefused) {
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
TEST_F(EmbeddedFixture, VerifyFailsDirectoryCutOffFromRoot) {
  auto a = l().mkdir(root(), "a");
  ASSERT_TRUE(a);
  auto b = l().mkdir(*a, "b");
  ASSERT_TRUE(b);
  ASSERT_TRUE(l().verify().ok());
  ASSERT_TRUE(l().rename(root(), "a", *b, "c"));
  EXPECT_FALSE(l().verify().ok());
}

// The embedded layout against a reference number → inode map, step by
// step.  The reference keeps each live inode under its current number, the
// directory tree by DirId, and the old → new correlation §IV-B describes
// (chains collapse); find() of any number must answer what the reference
// answers for that number's current one.
struct ReferenceNamespace {
  struct Node {
    FileType type{FileType::kFile};
    u32 dir_id{0};     // directories: their own id
    u32 parent_id{0};  // the directory holding the entry
  };
  std::unordered_map<u64, Node> live;           // by current number
  std::map<u32, std::map<std::string, u64>> dirs;  // id -> name -> number
  std::map<u32, u64> dir_number;                // id -> current number
  std::unordered_map<u64, u64> old_to_new;
  std::vector<u64> seen;  // every number ever handed out

  /// The number find(n) answers for: n itself while an inode holds it,
  /// else where the correlation sends it.
  u64 current(u64 n) const {
    if (live.contains(n)) return n;
    auto it = old_to_new.find(n);
    return it == old_to_new.end() ? n : it->second;
  }
  void moved(u64 from, u64 to) {
    for (auto& [stale, cur] : old_to_new) {
      if (cur == from) cur = to;
    }
    old_to_new[from] = to;
  }
  /// [parent, ..., root] for a current number.
  std::vector<u64> chain(u64 n, u32 root_id) const {
    std::vector<u64> out;
    for (u32 id = live.at(n).parent_id;; id = live.at(dir_number.at(id)).parent_id) {
      out.push_back(dir_number.at(id));
      if (id == root_id) return out;
    }
  }
  bool inside(u32 dir_id, u32 ancestor_id, u32 root_id) const {
    for (u32 id = dir_id;; id = live.at(dir_number.at(id)).parent_id) {
      if (id == ancestor_id) return true;
      if (id == root_id) return false;
    }
  }
};

TEST_F(EmbeddedFixture, MatchesReferenceInodeMapInLockstep) {
  ReferenceNamespace ref;
  const u32 root_id = l().find(root())->dir_id.v;
  ref.dir_number[root_id] = root().v;
  ref.dirs[root_id];
  Rng rng(23);
  u64 serial = 0;
  u64 reused = 0;  // creates that took a number handed out before
  auto dir_ids = [&] {
    std::vector<u32> ids;
    for (const auto& [id, entries] : ref.dirs) ids.push_back(id);
    return ids;
  };
  auto pick_entry = [&](u32& dir, std::string& name) {
    std::vector<std::pair<u32, std::string>> all;
    for (const auto& [id, entries] : ref.dirs)
      for (const auto& [n, num] : entries) all.emplace_back(id, n);
    if (all.empty()) return false;
    std::tie(dir, name) = all[rng.uniform(0, all.size() - 1)];
    return true;
  };
  auto check_all = [&](int step) {
    for (u64 n : ref.seen) {
      const Inode* node = l().find(InodeNo{n});
      const u64 cur = ref.current(n);
      const auto it = ref.live.find(cur);
      ASSERT_EQ(node != nullptr, it != ref.live.end())
          << "step " << step << " number " << n;
      if (!node) continue;
      ASSERT_EQ(node->num.v, cur) << "step " << step;
      ASSERT_EQ(node->type, it->second.type) << "step " << step;
      if (node->is_dir()) {
        ASSERT_EQ(node->dir_id.v, it->second.dir_id);
      }
      auto chain = l().resolve_by_number(InodeNo{n});
      ASSERT_TRUE(chain) << "step " << step;
      std::vector<u64> got;
      for (InodeNo c : *chain) got.push_back(c.v);
      ASSERT_EQ(got, ref.chain(cur, root_id)) << "step " << step;
    }
    const NamespaceVerifyReport v = l().verify();
    ASSERT_TRUE(v.ok()) << "step " << step;
    ASSERT_EQ(v.inodes, ref.live.size() + 1) << "step " << step;
    ASSERT_EQ(v.directories, ref.dirs.size()) << "step " << step;
  };

  for (int step = 0; step < 1500; ++step) {
    const u64 op = rng.uniform(0, 99);
    const std::vector<u32> ids = dir_ids();
    // Half the creates land in the root, so its lazy-free batches fill and
    // its slots (stale numbers among them) are handed out again.
    const u32 some_dir =
        rng.chance(0.5) ? root_id : ids[rng.uniform(0, ids.size() - 1)];
    if (op < 45) {
      // create or mkdir
      const u32 dir = some_dir;
      const bool make_dir = rng.chance(0.08);
      const std::string name = "n" + std::to_string(serial++);
      const InodeNo parent{ref.dir_number.at(dir)};
      auto made = make_dir ? l().mkdir(parent, name) : l().create(parent, name);
      ASSERT_TRUE(made) << "step " << step;
      ASSERT_EQ(EmbeddedInodeNo::dir_of(*made).v, dir);
      ASSERT_FALSE(ref.live.contains(made->v)) << "step " << step;
      ReferenceNamespace::Node node;
      node.type = make_dir ? FileType::kDirectory : FileType::kFile;
      node.parent_id = dir;
      if (make_dir) {
        node.dir_id = l().find(*made)->dir_id.v;
        ref.dirs[node.dir_id];
        ref.dir_number[node.dir_id] = made->v;
      }
      ref.live[made->v] = node;
      ref.dirs[dir][name] = made->v;
      if (std::find(ref.seen.begin(), ref.seen.end(), made->v) !=
          ref.seen.end()) {
        ++reused;
      } else {
        ref.seen.push_back(made->v);
      }
    } else if (op < 75) {
      // unlink (directories only when empty)
      u32 dir = 0;
      std::string name;
      if (!pick_entry(dir, name)) continue;
      const u64 num = ref.dirs[dir][name];
      const ReferenceNamespace::Node node = ref.live.at(num);
      const bool busy =
          node.type == FileType::kDirectory && !ref.dirs[node.dir_id].empty();
      const Status st = l().unlink(InodeNo{ref.dir_number.at(dir)}, name);
      if (busy) {
        ASSERT_EQ(st.error(), Errc::kNotEmpty) << "step " << step;
        continue;
      }
      ASSERT_TRUE(st.ok()) << "step " << step;
      if (node.type == FileType::kDirectory) {
        ref.dirs.erase(node.dir_id);
        ref.dir_number.erase(node.dir_id);
      }
      ref.dirs[dir].erase(name);
      ref.live.erase(num);
    } else {
      // rename a file or a directory, across directories or within one
      u32 src = 0;
      std::string name;
      if (!pick_entry(src, name)) continue;
      const u32 dst = some_dir;
      const u64 num = ref.dirs[src][name];
      ReferenceNamespace::Node node = ref.live.at(num);
      if (node.type == FileType::kDirectory &&
          ref.inside(dst, node.dir_id, root_id))
        continue;  // a move into its own subtree (Mfs::rename refuses it)
      const std::string to = "r" + std::to_string(serial++);
      auto moved = l().rename(InodeNo{ref.dir_number.at(src)}, name,
                              InodeNo{ref.dir_number.at(dst)}, to);
      ASSERT_TRUE(moved) << "step " << step;
      ASSERT_EQ(EmbeddedInodeNo::dir_of(*moved).v, dst);
      ref.dirs[src].erase(name);
      ref.live.erase(num);
      node.parent_id = dst;
      ref.live[moved->v] = node;
      ref.dirs[dst][to] = moved->v;
      if (node.type == FileType::kDirectory)
        ref.dir_number[node.dir_id] = moved->v;
      ref.moved(num, moved->v);
      if (std::find(ref.seen.begin(), ref.seen.end(), moved->v) ==
          ref.seen.end())
        ref.seen.push_back(moved->v);
    }
    if (step % 25 == 0) {
      ASSERT_NO_FATAL_FAILURE(check_all(step));
    }
  }
  ASSERT_NO_FATAL_FAILURE(check_all(-1));
  // The walk reclaimed slots through lazy-free and moved both kinds of
  // entry, so those paths ran.
  EXPECT_GT(l().op_stats().renames, 100u);
  EXPECT_GT(l().op_stats().unlinks, 300u);
  EXPECT_GT(reused, 20u);
}

// A find() pointer stays valid while its directory grows: creates add slot
// groups and grow the content reservation (twice here), and the inode stays
// where it was until it is unlinked.
TEST_F(EmbeddedFixture, FindPointerSurvivesDirectoryGrowth) {
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  auto f = l().create(*d, "f");
  ASSERT_TRUE(f);
  Inode* held = l().find(*f);
  ASSERT_NE(held, nullptr);
  ASSERT_TRUE(l().sync_layout(*f, 3).ok());
  const u64 blocks = l().content_blocks(*d);
  const u64 creates = 3 * blocks * Format::kEmbeddedSlotsPerBlock;
  for (u64 i = 0; i < creates; ++i) {
    ASSERT_TRUE(l().create(*d, "g" + std::to_string(i)));
    ASSERT_EQ(l().find(*f), held) << "after create " << i;
  }
  EXPECT_GE(l().content_blocks(*d), 4 * blocks);
  EXPECT_EQ(held->num.v, f->v);
  EXPECT_EQ(held->last_synced_extents, 3u);
  ASSERT_TRUE(l().unlink(*d, "f").ok());
  EXPECT_EQ(l().find(*f), nullptr);
}

}  // namespace
}  // namespace mif::mfs
