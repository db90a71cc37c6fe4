// Positional rotating-disk model.
//
// The paper's entire argument is mechanical: intra-file fragmentation forces
// the disk head to "move back and forth constantly among the different
// regions" (§I).  We therefore model exactly the quantities that mechanism
// touches — head position, distance-dependent seek time, rotational latency
// and sequential transfer rate — and nothing else (no zoning, no cache, no
// NCQ), so results are attributable to placement alone.
//
// Peak rates default to the paper's measured hardware: 170.2 MB/s sequential
// read and 171.3 MB/s sequential write per spindle (§V-B).
#pragma once

#include <cstddef>
#include <string>

#include "obs/sinks.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace mif::sim {

struct DiskGeometry {
  u64 capacity_blocks{u64{4} * 1024 * 1024};  // 16 GiB at 4 KiB blocks
  double seq_read_mbps{170.2};
  double seq_write_mbps{171.3};
  /// Short seek (track-to-track) and full-stroke seek, milliseconds.
  double seek_min_ms{0.5};
  double seek_max_ms{8.5};
  /// Average rotational latency (half a revolution at 7200 rpm).
  double rotational_ms{4.17};
  /// Short forward gaps are crossed by staying on track and letting the
  /// platter spin past the unwanted sectors — cost ≈ streaming over the gap
  /// — instead of a full seek + rotational wait.  Real drives (and their
  /// schedulers) rely on this; without it, near-sequential access with
  /// small holes would be absurdly penalised.
  bool track_skip{true};
};

enum class IoKind { kRead, kWrite };

struct DiskRequest {
  IoKind kind{IoKind::kRead};
  DiskBlock start{};
  u64 count{1};  // blocks
  /// Cost-attribution tag (obs::Principal::key(); 0 = system) and the disk
  /// time at submit, stamped by IoScheduler only when attribution is
  /// attached.  Opaque here — the disk model itself never reads them.
  u64 principal{0};
  double submit_ms{0.0};
};

/// Counters exposed by every disk; benches read these to build the paper's
/// tables ("disk access count" in Fig. 8 is `positionings + sequential_hits`,
/// i.e. requests dispatched at the block layer; `positionings` alone is the
/// number of head movements).
struct DiskStats {
  u64 requests{0};         // dispatched requests
  u64 positionings{0};     // requests that required a full seek + rotation
  u64 skips{0};            // requests reached by cheap forward sector skip
  u64 sequential_hits{0};  // requests starting exactly at the head position
  u64 blocks_read{0};
  u64 blocks_written{0};
  double seek_ms{0.0};
  double rotation_ms{0.0};
  double skip_ms{0.0};
  double transfer_ms{0.0};
  double busy_ms() const {
    return seek_ms + rotation_ms + skip_ms + transfer_ms;
  }
};

/// Pure streaming transfer time for `blocks` at the geometry's sequential
/// rate — the head-position-independent floor of a request's service time.
/// The async transport prices per-envelope disk service with this (it cannot
/// know head position: the real charge still happens inside the OSD).
inline double stream_transfer_ms(const DiskGeometry& g, u64 blocks,
                                 IoKind kind) {
  const double rate_mbps =
      kind == IoKind::kRead ? g.seq_read_mbps : g.seq_write_mbps;
  return static_cast<double>(blocks_to_bytes(blocks)) / (rate_mbps * 1e6) *
         1e3;
}

class Disk {
 public:
  /// `sinks` is the owning mount's attachment: with a collector attached,
  /// every serviced request emits `disk.seek` / `disk.skip` /
  /// `disk.transfer` spans on this disk's simulated timeline (a track
  /// labelled `track`), attributed to the collector's ambient trace context
  /// at service time.
  explicit Disk(DiskGeometry geometry = {},
                const obs::Sinks& sinks = obs::Sinks::none(),
                std::string track = "disk");

  /// Services one request immediately, advancing this disk's private
  /// timeline.  Returns the service time in milliseconds.
  double service(const DiskRequest& req);

  /// Simulated time at which the last request completed (ms since mount).
  double now_ms() const { return now_ms_; }

  /// Idle the disk until `t_ms` (used when an upstream queue starves it).
  void advance_to(double t_ms);

  DiskBlock head() const { return head_; }
  const DiskGeometry& geometry() const { return geometry_; }
  const DiskStats& stats() const { return stats_; }

  /// Per-request positioning time (seek + rotation) for the requests that
  /// paid a full reposition — the distribution behind the paper's "move
  /// back and forth constantly" argument, not just its sum.
  const RunningStats& position_times_ms() const { return position_times_ms_; }

  /// Component breakdown of the MOST RECENT service() call.  IoScheduler
  /// reads this right after dispatching a merged request to split its cost
  /// back to the contributors pro-rata (cost attribution).
  struct ServiceBreakdown {
    double seek_ms{0.0};
    double rotation_ms{0.0};
    double skip_ms{0.0};
    double transfer_ms{0.0};
  };
  const ServiceBreakdown& last_service() const { return last_; }

  void reset_stats() {
    stats_ = {};
    position_times_ms_ = {};
  }

  /// The owning mount's attachment (the scheduler in front shares it).
  const obs::Sinks& sinks() const { return sinks_; }

  /// Seek time for a head movement of `distance` blocks.  Square-root model:
  /// short seeks are dominated by head settle, long ones by the arm sweep.
  double seek_time_ms(u64 distance) const;

 private:
  DiskGeometry geometry_;
  DiskBlock head_{0};
  double now_ms_{0.0};
  DiskStats stats_;
  ServiceBreakdown last_;
  RunningStats position_times_ms_;
  const obs::Sinks& sinks_;
  obs::SimTrack track_;
};

}  // namespace mif::sim
