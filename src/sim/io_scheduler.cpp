#include "sim/io_scheduler.hpp"

#include <algorithm>

#include "obs/attrib.hpp"
#include "obs/span.hpp"

namespace mif::sim {

IoScheduler::IoScheduler(Disk& disk, std::size_t max_queue,
                         std::size_t max_write_queue, std::string track)
    : disk_(disk),
      max_queue_(max_queue),
      max_write_queue_(max_write_queue ? max_write_queue : max_queue),
      sinks_(disk.sinks()),
      track_(sinks_, std::move(track)) {
  queue_.reserve(max_queue_);
}

void IoScheduler::submit(const DiskRequest& req) {
  ++stats_.queued;
  queue_.push_back(req);
  if (sinks_.attrib) {
    queue_.back().principal = obs::ambient_principal().key();
    queue_.back().submit_ms = disk_.now_ms();
  }
  if (req.kind == IoKind::kRead) {
    ++queued_reads_;
  } else {
    ++queued_writes_;
  }
  if (queued_reads_ >= max_queue_ || queued_writes_ >= max_write_queue_)
    drain();
}

double IoScheduler::drain() {
  if (queue_.empty()) return 0.0;
  // One-way elevator: ascending block order.  Reads and writes keep their
  // own merge chains but share the sweep, as in CFQ's sync service tree.
  std::stable_sort(queue_.begin(), queue_.end(),
                   [](const DiskRequest& a, const DiskRequest& b) {
                     return a.start.v < b.start.v;
                   });

  double elapsed = 0.0;
  std::size_t i = 0;
  while (i < queue_.size()) {
    DiskRequest merged = queue_[i];
    std::size_t j = i + 1;
    while (j < queue_.size() && queue_[j].kind == merged.kind &&
           queue_[j].start.v <= merged.start.v + merged.count) {
      // Back-to-back or overlapping: coalesce.
      const u64 end = std::max(merged.start.v + merged.count,
                               queue_[j].start.v + queue_[j].count);
      merged.count = end - merged.start.v;
      ++stats_.merged;
      ++j;
    }
    const double start_ms = disk_.now_ms();
    elapsed += disk_.service(merged);
    ++stats_.dispatched;
    if (obs::Attribution* attrib = sinks_.attrib)
      attribute_dispatch(*attrib, i, j, start_ms);
    i = j;
  }
  queue_.clear();
  queued_reads_ = 0;
  queued_writes_ = 0;
  return elapsed;
}

/// Split the just-serviced dispatch (contributors queue_[first, last)) back
/// to its submitters: each cost component pro-rata by contributed block
/// count, with the LAST contributor taking the remainder so the shares sum
/// to the disk's charge exactly; queue wait is per contributor, service
/// start minus its submit stamp on the same disk clock.
void IoScheduler::attribute_dispatch(obs::Attribution& attrib,
                                     std::size_t first, std::size_t last,
                                     double start_ms) {
  const Disk::ServiceBreakdown& b = disk_.last_service();
  double total_wait = 0.0;
  for (std::size_t k = first; k < last; ++k) {
    const obs::Principal p = obs::Principal::from_key(queue_[k].principal);
    const double wait = start_ms - queue_[k].submit_ms;
    attrib.charge_queue_wait(p, wait);
    attrib.count_disk_request(p);
    total_wait += wait;
  }
  // Single contributor (or a uniform group) keeps the charge exact.
  bool uniform = true;
  u64 total_blocks = queue_[first].count;
  for (std::size_t k = first + 1; k < last; ++k) {
    uniform = uniform && queue_[k].principal == queue_[first].principal;
    total_blocks += queue_[k].count;
  }
  if (uniform) {
    attrib.charge_disk(obs::Principal::from_key(queue_[first].principal),
                       b.seek_ms, b.rotation_ms, b.skip_ms, b.transfer_ms);
  } else {
    double seek_left = b.seek_ms, rotation_left = b.rotation_ms;
    double skip_left = b.skip_ms, transfer_left = b.transfer_ms;
    for (std::size_t k = first; k < last; ++k) {
      const obs::Principal p = obs::Principal::from_key(queue_[k].principal);
      if (k + 1 == last) {
        attrib.charge_disk(p, seek_left, rotation_left, skip_left,
                           transfer_left);
      } else {
        const double w = static_cast<double>(queue_[k].count) /
                         static_cast<double>(total_blocks);
        const double seek = b.seek_ms * w, rotation = b.rotation_ms * w;
        const double skip = b.skip_ms * w, transfer = b.transfer_ms * w;
        attrib.charge_disk(p, seek, rotation, skip, transfer);
        seek_left -= seek;
        rotation_left -= rotation;
        skip_left -= skip;
        transfer_left -= transfer;
      }
    }
  }
  if (obs::SpanCollector* spans = sinks_.spans; spans && total_wait > 0.0) {
    spans->record_sim("io.queue_wait", track_.id(*spans), qwait_clock_,
                      total_wait, spans->ambient(), last - first,
                      total_blocks);
    qwait_clock_ += total_wait;
  }
}

}  // namespace mif::sim
