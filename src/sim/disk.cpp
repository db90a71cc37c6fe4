#include "sim/disk.hpp"

#include <cassert>
#include <cmath>

#include "obs/span.hpp"

namespace mif::sim {

Disk::Disk(DiskGeometry geometry, const obs::Sinks& sinks, std::string track)
    : geometry_(geometry),
      head_{0},
      sinks_(sinks),
      track_(sinks, std::move(track)) {}

double Disk::seek_time_ms(u64 distance) const {
  if (distance == 0) return 0.0;
  const double frac = std::sqrt(static_cast<double>(distance) /
                                static_cast<double>(geometry_.capacity_blocks));
  return geometry_.seek_min_ms +
         (geometry_.seek_max_ms - geometry_.seek_min_ms) * std::min(frac, 1.0);
}

double Disk::service(const DiskRequest& req) {
  assert(req.start.valid());
  assert(req.count > 0);
  assert(req.start.v + req.count <= geometry_.capacity_blocks);

  double t = 0.0;
  ++stats_.requests;
  last_ = {};
  obs::SpanCollector* const spans = sinks_.spans;
  const obs::SpanContext ctx = spans ? spans->ambient() : obs::SpanContext{};
  if (req.start == head_) {
    // Head already on the right spot: pure streaming.
    ++stats_.sequential_hits;
  } else {
    const u64 dist = req.start.v > head_.v ? req.start.v - head_.v
                                           : head_.v - req.start.v;
    const double reposition = seek_time_ms(dist) + geometry_.rotational_ms;
    // Forward gaps can be crossed by sector-skipping at streaming speed.
    const double skip =
        req.start.v > head_.v && geometry_.track_skip
            ? static_cast<double>(blocks_to_bytes(dist)) /
                  (geometry_.seq_read_mbps * 1e6) * 1e3
            : reposition;
    if (skip < reposition) {
      t += skip;
      stats_.skip_ms += skip;
      last_.skip_ms = skip;
      ++stats_.skips;
      if (spans)
        spans->record_sim("disk.skip", track_.id(*spans), now_ms_, skip, ctx,
                          req.start.v, dist);
    } else {
      const double seek = seek_time_ms(dist);
      t += seek + geometry_.rotational_ms;
      stats_.seek_ms += seek;
      stats_.rotation_ms += geometry_.rotational_ms;
      last_.seek_ms = seek;
      last_.rotation_ms = geometry_.rotational_ms;
      ++stats_.positionings;
      position_times_ms_.add(seek + geometry_.rotational_ms);
      if (spans)
        spans->record_sim("disk.seek", track_.id(*spans), now_ms_,
                          seek + geometry_.rotational_ms, ctx, req.start.v,
                          dist);
    }
  }

  const double rate_mbps = req.kind == IoKind::kRead ? geometry_.seq_read_mbps
                                                     : geometry_.seq_write_mbps;
  const double bytes = static_cast<double>(blocks_to_bytes(req.count));
  const double transfer = bytes / (rate_mbps * 1e6) * 1e3;  // ms
  if (spans)
    spans->record_sim("disk.transfer", track_.id(*spans), now_ms_ + t,
                      transfer, ctx, req.start.v, req.count);
  t += transfer;
  stats_.transfer_ms += transfer;
  last_.transfer_ms = transfer;

  if (req.kind == IoKind::kRead) {
    stats_.blocks_read += req.count;
  } else {
    stats_.blocks_written += req.count;
  }

  head_ = DiskBlock{req.start.v + req.count};
  now_ms_ += t;
  return t;
}

void Disk::advance_to(double t_ms) {
  if (t_ms > now_ms_) now_ms_ = t_ms;
}

}  // namespace mif::sim
