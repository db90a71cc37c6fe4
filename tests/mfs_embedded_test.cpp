// Unit tests for the embedded directory layout (§IV): composite inode
// numbers, content preallocation and growth, fragmentation degree, lazy
// free, and the contiguity properties the technique exists for.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mfs/mfs.hpp"

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
  EXPECT_EQ(l().content_blocks(*d),
            EmbeddedLayoutConfig{}.initial_dir_blocks);
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
  EmbeddedLayoutConfig ecfg;
  auto d = l().mkdir(root(), "d");
  ASSERT_TRUE(d);
  auto f1 = l().create(*d, "f1");
  ASSERT_TRUE(f1);
  ASSERT_TRUE(
      l().sync_layout(*f1, static_cast<u64>(ecfg.frag_degree_threshold * 3))
          .ok());
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

}  // namespace
}  // namespace mif::mfs
