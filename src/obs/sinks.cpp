#include "obs/sinks.hpp"

#include <atomic>

#include "obs/span.hpp"

namespace mif::obs {

namespace {
std::atomic<u64> g_next_mount{0};
}  // namespace

Sinks::Sinks() : mount(g_next_mount.fetch_add(1, std::memory_order_relaxed)) {}

const Sinks& Sinks::none() {
  static const Sinks kNone;
  return kNone;
}

u32 SimTrack::id(SpanCollector& c) {
  if (collector_ != c.serial()) {
    id_ = c.claim_track(mount_, label_);
    collector_ = c.serial();
  }
  return id_;
}

}  // namespace mif::obs
