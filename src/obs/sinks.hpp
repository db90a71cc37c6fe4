// One mount's observability attachment: the span collector, the cost ledger
// and the flight recorder.  Its owner (core::ParallelFileSystem, or a bare
// mds::Mds) builds every recording object with a reference to it, so
// attaching is a field write that no layer forwards, and a null field means
// "not attached" (docs/ARCHITECTURE.md, "The observability attachment").
#pragma once

#include <string>
#include <utility>

#include "util/types.hpp"

namespace mif::obs {

class Attribution;
class SpanCollector;
class Timeline;

struct Sinks {
  SpanCollector* spans{nullptr};
  Attribution* attrib{nullptr};
  Timeline* timeline{nullptr};
  /// Process-unique number of this attachment, by which a collector shared
  /// by several mounts tells their lanes apart (SpanCollector::claim_track).
  const u64 mount;

  Sinks();
  Sinks(const Sinks&) = delete;
  Sinks& operator=(const Sinks&) = delete;

  /// The attachment of a component built outside any owner (unit tests,
  /// standalone disks and transports): nothing is attached, ever.
  static const Sinks& none();
};

/// One simulated timeline's lane, held by the recorder that owns the
/// timeline and labelled after it ("osd 3 disk", "mds queue", "meta net").
class SimTrack {
 public:
  SimTrack(const Sinks& sinks, std::string label)
      : label_(std::move(label)), mount_(sinks.mount) {}

  /// This lane's track id in `c`.  The first call per collector claims it
  /// (SpanCollector::claim_track); the id stays valid for that collector's
  /// lifetime.  The caller holds the lock that serialises the recorder.
  u32 id(SpanCollector& c);

 private:
  std::string label_;
  u64 mount_;
  u64 collector_{0};  // serial of the collector id_ was claimed from
  u32 id_{0};
};

}  // namespace mif::obs
