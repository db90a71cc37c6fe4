// One observability configuration for the whole obs layer.
//
// The allocator event ring (obs/trace.hpp) and the request-span buffer
// (obs/span.hpp) used to carry their own scattered capacity constants; both
// now size themselves from this struct, so a bench or test that wants a
// bigger (or tiny) observability footprint changes one knob.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>

namespace mif::obs {

struct Config {
  /// TraceBuffer ring capacity (allocator/journal/cache event records).
  std::size_t trace_capacity{4096};
  /// SpanCollector ring capacity (completed span records kept for export).
  std::size_t span_capacity{65536};
  /// Slow-request log size: the K slowest root spans retained with their
  /// full span trees (tail sampling).
  std::size_t slow_k{8};
  /// Admission threshold for the slow log in microseconds; 0 = every
  /// finished trace competes for the top-K slots.
  double slow_threshold_us{0.0};
  /// Quantile-triggered admission: when > 0, a finished trace must also be
  /// at or above this quantile of all root durations seen so far (e.g. 0.99
  /// keeps only the tail).  0 disables the quantile gate.
  double slow_quantile{0.0};
  /// Timeline (obs/timeline.hpp) sampling interval in *simulated*
  /// milliseconds; a sample is taken at the first tick after this much sim
  /// time has passed since the previous one.  Must be finite and > 0.
  double sample_interval_ms{50.0};
  /// Rows retained per timeline before the deterministic downsampler
  /// decimates by two and doubles the interval.  Must be >= 2.
  std::size_t timeline_capacity{4096};
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
  if (cfg.timeline_capacity < 2) {
    return "obs.timeline_capacity must be >= 2 (got " +
           std::to_string(cfg.timeline_capacity) + ")";
  }
  return "";
}

}  // namespace mif::obs
