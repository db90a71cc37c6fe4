// Unit tests for the elevator/merging IO scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/sinks.hpp"
#include "obs/span.hpp"
#include "sim/io_scheduler.hpp"
#include "util/rng.hpp"

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

// The dispatches a drain of `q` must make: std::stable_sort by start block,
// so ties keep submit order, then one dispatch per chain of back-to-back or
// overlapping requests of one kind.
std::vector<DiskRequest> reference_dispatches(std::vector<DiskRequest> q) {
  std::stable_sort(q.begin(), q.end(),
                   [](const DiskRequest& a, const DiskRequest& b) {
                     return a.start.v < b.start.v;
                   });
  std::vector<DiskRequest> out;
  for (std::size_t i = 0; i < q.size();) {
    DiskRequest merged = q[i];
    std::size_t j = i + 1;
    for (; j < q.size() && q[j].kind == merged.kind &&
           q[j].start.v <= merged.start.v + merged.count;
         ++j) {
      merged.count = std::max(merged.start.v + merged.count,
                              q[j].start.v + q[j].count) -
                     merged.start.v;
    }
    out.push_back(merged);
    i = j;
  }
  return out;
}

// A disk's serviced requests as its spans show them: position, kind (the
// transfer time differs between reads and writes) and length, in order.
struct Dispatch {
  double start_us, dur_us;
  u64 block, count;
  bool operator==(const Dispatch&) const = default;
};
std::vector<Dispatch> dispatches(const obs::SpanCollector& spans) {
  std::vector<Dispatch> out;
  for (const obs::SpanRecord& r : spans.spans()) {
    if (r.name == "disk.transfer")
      out.push_back({r.start_us, r.dur_us, r.arg0, r.arg1});
  }
  return out;
}

// Random queues of a metadata drain's length and of a data target's
// writeback length, with repeated start blocks, touching and overlapping
// requests and reads mixed with writes, the starts spread over the whole
// disk.  The drain must dispatch exactly the reference's requests in the
// reference's order.
TEST(IoScheduler, DrainOrderMatchesStableSort) {
  for (const std::size_t n : {std::size_t{128}, std::size_t{4096}}) {
    for (const u64 seed : {1u, 2u, 3u}) {
      Rng rng(seed * 10007 + n);
      const DiskGeometry geometry;
      std::vector<u64> pool(n / 8);
      for (u64& b : pool) b = rng.uniform(0, geometry.capacity_blocks - 16);
      std::vector<DiskRequest> q(n);
      for (DiskRequest& r : q) {
        r.kind = rng.chance(0.5) ? IoKind::kRead : IoKind::kWrite;
        r.start = DiskBlock{pool[rng.uniform(0, pool.size() - 1)] +
                            rng.uniform(0, 3) * 2};
        r.count = rng.uniform(1, 4);
      }

      obs::Sinks sinks;
      obs::SpanCollector spans;
      sinks.spans = &spans;
      Disk d(geometry, sinks);
      IoScheduler s(d, n + 1);  // drains only when asked
      for (const DiskRequest& r : q) s.submit(r);
      s.drain();

      const std::vector<DiskRequest> ref = reference_dispatches(q);
      obs::Sinks ref_sinks;
      obs::SpanCollector ref_spans;
      ref_sinks.spans = &ref_spans;
      Disk ref_disk(geometry, ref_sinks);
      for (const DiskRequest& r : ref) ref_disk.service(r);

      EXPECT_EQ(s.stats().dispatched, ref.size()) << "n " << n;
      EXPECT_EQ(s.stats().merged, n - ref.size()) << "n " << n;
      EXPECT_EQ(dispatches(spans), dispatches(ref_spans))
          << "n " << n << " seed " << seed;
      EXPECT_EQ(d.now_ms(), ref_disk.now_ms());
    }
  }
}

}  // namespace
}  // namespace mif::sim
