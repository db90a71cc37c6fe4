// Unit tests for the elevator/merging IO scheduler.
#include <gtest/gtest.h>

#include "sim/io_scheduler.hpp"

namespace mif::sim {
namespace {

TEST(IoScheduler, MergesAdjacentRequests) {
  Disk d;
  IoScheduler s(d);
  s.submit({IoKind::kWrite, DiskBlock{0}, 4});
  s.submit({IoKind::kWrite, DiskBlock{4}, 4});
  s.submit({IoKind::kWrite, DiskBlock{8}, 4});
  s.drain();
  EXPECT_EQ(s.stats().queued, 3u);
  EXPECT_EQ(s.stats().dispatched, 1u);
  EXPECT_EQ(s.stats().merged, 2u);
  EXPECT_EQ(d.stats().requests, 1u);
  EXPECT_EQ(d.stats().blocks_written, 12u);
}

TEST(IoScheduler, MergesOutOfOrderSubmissions) {
  Disk d;
  IoScheduler s(d);
  s.submit({IoKind::kRead, DiskBlock{8}, 4});
  s.submit({IoKind::kRead, DiskBlock{0}, 4});
  s.submit({IoKind::kRead, DiskBlock{4}, 4});
  s.drain();
  EXPECT_EQ(s.stats().dispatched, 1u);
}

TEST(IoScheduler, DoesNotMergeAcrossGaps) {
  Disk d;
  IoScheduler s(d);
  s.submit({IoKind::kRead, DiskBlock{0}, 4});
  s.submit({IoKind::kRead, DiskBlock{100}, 4});
  s.drain();
  EXPECT_EQ(s.stats().dispatched, 2u);
}

TEST(IoScheduler, DoesNotMergeReadsWithWrites) {
  Disk d;
  IoScheduler s(d);
  s.submit({IoKind::kRead, DiskBlock{0}, 4});
  s.submit({IoKind::kWrite, DiskBlock{4}, 4});
  s.drain();
  EXPECT_EQ(s.stats().dispatched, 2u);
}

TEST(IoScheduler, CoalescesOverlaps) {
  Disk d;
  IoScheduler s(d);
  s.submit({IoKind::kRead, DiskBlock{0}, 8});
  s.submit({IoKind::kRead, DiskBlock{4}, 8});  // overlaps [4,12)
  s.drain();
  EXPECT_EQ(s.stats().dispatched, 1u);
  EXPECT_EQ(d.stats().blocks_read, 12u);
}

TEST(IoScheduler, AutoDrainsWhenQueueFills) {
  Disk d;
  IoScheduler s(d, /*max_queue=*/4);
  for (u64 i = 0; i < 4; ++i) s.submit({IoKind::kRead, DiskBlock{i * 10}, 1});
  // Queue hit its bound: everything dispatched without an explicit drain.
  EXPECT_EQ(s.stats().dispatched, 4u);
}

TEST(IoScheduler, ElevatorOrderReducesSeekTime) {
  // Same request set, random order: scheduled pass must not be slower than
  // strictly-in-submission-order servicing.
  Disk raw, sched;
  IoScheduler s(sched, 256);
  const u64 blocks[] = {900000, 100, 500000, 40000, 700000, 2000};
  double raw_time = 0.0;
  for (u64 b : blocks) {
    raw_time += raw.service({IoKind::kRead, DiskBlock{b}, 4});
    s.submit({IoKind::kRead, DiskBlock{b}, 4});
  }
  const double sched_time = s.drain();
  EXPECT_LT(sched_time, raw_time);
}

}  // namespace
}  // namespace mif::sim
