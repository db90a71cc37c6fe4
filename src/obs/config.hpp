// One observability configuration for the whole obs layer.
//
// The request-span ring (obs/span.hpp) takes its size and the timeline
// (obs/timeline.hpp) its sampling interval from this struct; the slow-log
// size and the timeline's row bound are constants of those classes.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>

namespace mif::obs {

struct Config {
  /// SpanCollector ring capacity (completed span records kept for export).
  std::size_t span_capacity{65536};
  /// Timeline (obs/timeline.hpp) sampling interval in *simulated*
  /// milliseconds; a sample is taken at the first tick after this much sim
  /// time has passed since the previous one.  Must be finite and > 0.
  double sample_interval_ms{50.0};
};

/// Knob sanity check: empty string when `cfg` is usable, otherwise a
/// human-readable description of the first offending knob.  Benches call
/// this on flag-derived configs so a bad `--timeseries=0` fails loudly
/// instead of being silently clamped.
inline std::string validate(const Config& cfg) {
  if (!(cfg.sample_interval_ms > 0.0) ||
      !std::isfinite(cfg.sample_interval_ms)) {
    return "obs.sample_interval_ms must be finite and > 0 (got " +
           std::to_string(cfg.sample_interval_ms) + ")";
  }
  return "";
}

}  // namespace mif::obs
