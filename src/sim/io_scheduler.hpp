// Elevator/merging I/O scheduler in front of each simulated disk.
//
// Fig. 8 of the paper measures "disk access count by intercepting the disk
// access in the general block layer" — i.e. *after* request merging.  The
// paper also attributes part of Fig. 6(b) to the scheduler being unable to
// "merge the fragmentary requests on disk".  This class reproduces that
// layer: requests accumulate in a queue, are sorted by block address
// (one-way elevator, as CFQ does per service tree) and physically adjacent
// requests of the same kind coalesce into one dispatch.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/disk.hpp"

namespace mif::sim {

struct SchedulerStats {
  u64 queued{0};
  u64 dispatched{0};  // requests actually issued to the disk (post-merge)
  u64 merged{0};      // queued requests absorbed into a neighbour
};

class IoScheduler {
 public:
  /// The default bounded read queue (block-layer nr_requests).
  static constexpr std::size_t kDefaultQueue = 128;

  /// `max_queue` bounds READ batching: once that many reads are queued they
  /// are drained, mimicking the bounded nr_requests block-layer queue a
  /// synchronous reader is exposed to.  WRITES may accumulate up to
  /// `max_write_queue` (0 ⇒ same as max_queue): write-back caching lets
  /// dirty data pile up and flush in long per-region runs, which is why
  /// writes tolerate stream interleaving far better than reads.
  ///
  /// With a ledger in its disk's attachment, submit() stamps each request
  /// with the ambient principal and the disk time, and drain() splits each
  /// merged dispatch's service time back to its contributors pro-rata by
  /// block count and charges their queue waits (service start − submit);
  /// with a collector too, each dispatch that waited emits one
  /// `io.queue_wait` span on a cumulative queue-wait clock, on its own
  /// track labelled `track`.
  explicit IoScheduler(Disk& disk, std::size_t max_queue = kDefaultQueue,
                       std::size_t max_write_queue = 0,
                       std::string track = "queue");

  /// Queue a request; may trigger a drain when the queue fills.
  void submit(const DiskRequest& req);

  /// Sort + merge + dispatch everything queued.  Returns time spent (ms).
  double drain();

  const SchedulerStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  Disk& disk() { return disk_; }
  /// Requests currently queued (pre-merge) — the timeline's queue gauge.
  std::size_t queue_depth() const { return queue_.size(); }

 private:
  void attribute_dispatch(obs::Attribution& attrib, std::size_t first,
                          std::size_t last, double start_ms);

  Disk& disk_;
  std::size_t max_queue_;
  std::size_t max_write_queue_;
  std::size_t queued_reads_{0};
  std::size_t queued_writes_{0};
  std::vector<DiskRequest> queue_;
  SchedulerStats stats_;
  const obs::Sinks& sinks_;
  obs::SimTrack track_;
  double qwait_clock_{0.0};
};

}  // namespace mif::sim
