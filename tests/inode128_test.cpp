// Tests for the 64-bit composite inode-number scheme of §IV-B and the
// inode format's overflow-block arithmetic.
#include <gtest/gtest.h>

#include "mfs/inode.hpp"
#include "util/rng.hpp"

namespace mif::mfs {
namespace {

TEST(EmbeddedInodeNo, RoundTripsAcrossRange) {
  Rng rng(64);
  for (int i = 0; i < 1000; ++i) {
    const DirId dir{static_cast<u32>(rng.next())};
    const u32 off = static_cast<u32>(rng.next());
    const InodeNo n = EmbeddedInodeNo::make(dir, off);
    EXPECT_EQ(EmbeddedInodeNo::dir_of(n).v, dir.v);
    EXPECT_EQ(EmbeddedInodeNo::offset_of(n), off);
  }
}

TEST(EmbeddedInodeNo, DistinctInputsDistinctNumbers) {
  EXPECT_NE(EmbeddedInodeNo::make(DirId{1}, 2).v,
            EmbeddedInodeNo::make(DirId{2}, 1).v);
  EXPECT_NE(EmbeddedInodeNo::make(DirId{1}, 0).v,
            EmbeddedInodeNo::make(DirId{0}, 1).v);
}

TEST(EmbeddedInodeNo, StructuralLimitsAreDocumented) {
  // "Although 64-bit design limits the file count in a directory and total
  // directory count in file system…" (§IV-B).
  EXPECT_EQ(EmbeddedInodeNo::kMaxSlots, u64{1} << 32);
  EXPECT_EQ(EmbeddedInodeNo::kMaxDirectories, u64{1} << 32);
}

TEST(InodeFormat, OverflowBlockArithmetic) {
  EXPECT_EQ(Inode::overflow_blocks_for(0), 0u);
  EXPECT_EQ(Inode::overflow_blocks_for(Format::kInlineExtents), 0u);
  EXPECT_EQ(Inode::overflow_blocks_for(Format::kInlineExtents + 1), 1u);
  EXPECT_EQ(Inode::overflow_blocks_for(Format::kInlineExtents +
                                       Format::kExtentsPerMappingBlock),
            1u);
  EXPECT_EQ(Inode::overflow_blocks_for(Format::kInlineExtents +
                                       Format::kExtentsPerMappingBlock + 1),
            2u);
}

}  // namespace
}  // namespace mif::mfs
