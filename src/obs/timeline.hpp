// Sim-timeline flight recorder: periodic gauge sampling over the simulated
// clock.
//
// The registry (obs/metrics.hpp) and spans (obs/span.hpp) answer *how much*
// and *where*; the timeline answers *when*.  Subsystems register
// GaugeProvider callbacks (disk queue depth, journal backlog, fragmentation
// degree, …) and the owner of the simulated clock calls `tick()` at safe
// points — operation boundaries, never from inside `Disk::service()` — so a
// sample is taken whenever at least `sample_interval_ms` of *simulated* time
// has passed since the previous one.  Workloads additionally call
// `mark_epoch("measure.create")` at phase boundaries, which forces a sample
// and records a labelled marker.
//
// Determinism & boundedness
// -------------------------
// Samples are driven purely by the simulated clock, so two identical runs
// produce byte-identical series.  The store is bounded: when the shared time
// axis reaches `timeline_capacity` rows, every series is decimated by two
// (even indices kept) and the sampling interval doubles — a deterministic
// downsampler that keeps long aging runs at bounded memory while preserving
// the run's shape.  Decimation happens *before* the new row is appended, so
// the newest sample always survives; per-series min/max/last/count aggregate
// over every sample ever taken, not just the retained rows.
//
// Thread-safety
// -------------
// One mutex guards the store; `tick()`/`mark_epoch()` run the registered
// prepare hooks and gauge callbacks under it.  Providers therefore must not
// re-enter the timeline, and must themselves be safe against whatever
// concurrency exists at the tick site (the OSD accessors lock their own
// state; MDS-state providers are only ticked from the metadata path, which
// is single-threaded in every workload).
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/config.hpp"
#include "obs/json.hpp"
#include "util/types.hpp"

namespace mif::obs {

class SpanCollector;

/// Instantaneous value read at each sample point.
using GaugeProvider = std::function<double()>;

class Timeline {
 public:
  /// Invalid knobs are clamped to the defaults (mirrors how the span ring
  /// treats nonsense capacities); benches that want a hard error call
  /// obs::validate(cfg) first.
  explicit Timeline(Config cfg = {});

  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  /// The simulated clock samples are stamped with (milliseconds).  Without a
  /// clock, tick() and mark_epoch() are no-ops.
  void set_clock(std::function<double()> clock);

  /// Viewer-facing label ("mds timeline", "shard 2"); used as the Perfetto
  /// process name.
  void set_label(std::string label);
  const std::string& label() const { return label_; }

  /// Hook run once per sample *before* the gauges are read — the
  /// fragmentation lens refreshes its scan here so its gauges share one
  /// consistent snapshot.
  void add_prepare(std::function<void()> fn);

  /// Register a series.  A gauge added after sampling started backfills its
  /// history with zeros so every series shares the time axis.
  void add_gauge(std::string name, GaugeProvider fn);

  /// Sample if at least one interval of simulated time elapsed since the
  /// last sample.  Cheap when not due (one mutex + one clock read).
  void tick();

  /// Force a sample and record a labelled phase marker.  If the clock has
  /// not advanced past the previous sample, that row is re-sampled in place
  /// so the time axis stays strictly increasing.
  void mark_epoch(std::string_view label);

  // --- introspection (tests) -----------------------------------------------
  double interval_ms() const;
  std::size_t sample_count() const;
  u64 total_samples() const;
  u64 downsamples() const;
  std::vector<double> times() const;
  std::vector<double> series(std::string_view name) const;
  /// Last recorded value of a series; 0.0 when absent or never sampled.
  double last(std::string_view name) const;

  /// {"interval_ms", "total_samples", "downsamples",
  ///  "epochs": [{"label", "t_ms"}, ...],
  ///  "times_ms": [...],
  ///  "series": {name: {"min","max","last","count","values":[...]}, ...}}
  Json to_json() const;

 private:
  struct Series {
    GaugeProvider fn;
    std::vector<double> values;  // parallel to times_
    double min{0.0};
    double max{0.0};
    double last{0.0};
    u64 count{0};  // samples ever taken, survives decimation
  };

  /// Take one sample at `now` (mutex held).  When `overwrite`, re-sample the
  /// final row instead of appending.
  void sample_locked(double now, bool overwrite);
  void maybe_decimate_locked();

  mutable std::mutex mu_;
  std::size_t capacity_;
  double interval_ms_;
  std::function<double()> clock_;
  std::string label_;
  std::vector<std::function<void()>> prepare_;
  std::vector<double> times_;  // shared, strictly increasing time axis
  std::map<std::string, Series, std::less<>> series_;
  std::vector<std::pair<double, std::string>> epochs_;
  double next_due_{0.0};
  u64 total_samples_{0};
  u64 downsamples_{0};
};

/// chrome_trace_json(collector) plus the timelines' series merged in as
/// Chrome-trace counter events (ph "C") — one process track per timeline
/// (pid 3 + index, named from its label) — and epoch marks as instant
/// events (ph "i").  Perfetto renders each series as a counter track
/// aligned with the sim-disk span tracks.
Json chrome_trace_json(const SpanCollector& c,
                       const std::vector<const Timeline*>& timelines);

/// chrome_trace_json(c, timelines) → file; false + stderr on I/O failure.
/// With no timelines the file holds chrome_trace_json(c) alone.
[[nodiscard]] bool write_chrome_trace(
    const SpanCollector& c, const std::vector<const Timeline*>& timelines,
    const std::string& path);

}  // namespace mif::obs
