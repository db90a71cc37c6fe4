// End-to-end request spans: causal latency attribution across
// client → MDS → OSD → disk.
//
// PR 1's counters say *what happened*; spans say *where a request's time
// went* — the per-phase attribution the paper's Fig. 6–9 evaluations hinge
// on (positioning vs. transfer time under concurrent streams, §V).
//
// Model
// -----
// A *trace* is one client-visible operation (a `client.write`, a
// `client.read`, …) plus everything it causally triggered.  A *span* is one
// named phase inside a trace: it has a trace id, its own span id, its
// parent's span id, a start time and a duration.  The phase-name taxonomy
// (see docs/OBSERVABILITY.md for the full catalogue):
//
//   client.write / client.read / client.open / client.create / client.close
//   mds.lookup / mds.create / mds.open_getlayout / mds.report_extents
//   osd.stripe_unit / alloc.decide
//   journal.commit / journal.checkpoint
//   disk.seek / disk.skip / disk.transfer
//
// Two clocks
// ----------
// Software phases (client/mds/osd/alloc/journal) are timed with the host's
// steady clock: RAII ScopedSpan, microseconds since the collector was
// created.  Mechanical phases (`disk.*`) live on each simulated disk's own
// timeline and carry *simulated* durations — those are the quantities the
// paper argues about, and a wall-clock measurement of `Disk::service()`
// would time the model's arithmetic instead of the disk.  Every SpanRecord
// says which clock it is on (`clock`); the Chrome-trace writer keeps the two
// families on separate process tracks so a viewer never compares them
// side-by-side by accident.
//
// Propagation
// -----------
// ScopedSpan keeps a thread-local stack of open spans per collector: a span
// opened while another is open on the same thread becomes its child and
// inherits the trace id — that is how one `client.write` flows through
// `osd.stripe_unit` into `alloc.decide` without any signature changes.
// `SpanCollector::ambient()` exposes the innermost open context so
// fire-and-forget recorders (the simulated disks, whose work is triggered by
// whatever operation happened to fill the scheduler queue) can attribute
// their records to the operation that caused the drain.
//
// Thread-safety (exercised by concurrency_test)
// ---------------------------------------------
// Trace/span ids come from atomic counters; record() appends to the bounded
// ring, the per-phase stats and the active-trace trees under ONE collector
// mutex.  We deliberately chose a single mutex over per-thread buffers:
// spans are per *request phase*, orders of magnitude rarer than per-block
// events, so contention is negligible and export needs no merge step.  The
// ambient-parent stack is thread_local and needs no lock at all.
//
// Costs are bounded like TraceBuffer's: the ring overwrites its oldest
// records once full (`dropped()` counts), an active trace keeps at most
// kMaxSpansPerTrace spans, and the slow log holds exactly `slow_k` traces.
// With no collector attached every instrumentation point is one null check.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/config.hpp"
#include "obs/json.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace mif::obs {

class MetricsRegistry;

/// Which timeline a span's (start, dur) pair lives on.
enum class SpanClock : u8 {
  kHost,  // host steady clock, µs since collector creation
  kSim,   // a simulated disk's private timeline, µs since mount
};

/// Trace/span identity carried across layers.  trace_id 0 = "no trace".
struct SpanContext {
  u64 trace_id{0};
  u64 span_id{0};
  bool valid() const { return trace_id != 0; }
};

/// Sim-clock track ids combine a per-attachment *instance* (upper 24 bits,
/// from SpanCollector::reserve_track_namespace) with a disk *lane* (low
/// byte).  A bench sweep recreates the cluster per configuration while
/// sharing one collector; separate namespaces keep two different disks'
/// private timelines from interleaving on one viewer lane.
constexpr u32 make_track(u32 instance, u32 lane) {
  return (instance << 8) | (lane & 0xffu);
}
constexpr u32 track_lane(u32 track) { return track & 0xffu; }
constexpr u32 track_instance(u32 track) { return track >> 8; }

/// One completed phase.  `name` must point at storage that outlives the
/// collector — every call site passes a string literal from the phase
/// taxonomy above.
struct SpanRecord {
  u64 trace_id{0};
  u64 span_id{0};
  u64 parent_id{0};  // 0 = root span of its trace
  std::string_view name;
  SpanClock clock{SpanClock::kHost};
  u32 track{0};       // host: per-thread lane; sim: disk track id
  double start_us{0.0};
  double dur_us{0.0};
  u64 arg0{0};  // phase-specific (inode, blocks, target index, …)
  u64 arg1{0};
};

/// One retained slow trace: the root's identity plus its full span tree.
struct SlowTrace {
  u64 trace_id{0};
  std::string_view root_name;
  double dur_us{0.0};
  std::vector<SpanRecord> spans;  // completion order; root last
};

class SpanCollector {
 public:
  explicit SpanCollector(Config cfg = {});

  /// Spans an active trace may accumulate before further ones are dropped
  /// (keeps a runaway trace from holding unbounded memory).
  static constexpr std::size_t kMaxSpansPerTrace = 4096;

  /// Microseconds on the host span clock (steady, starts near 0).
  double now_us() const;

  /// Innermost open context on this thread for THIS collector; invalid
  /// context when no span is open.  Used by async recorders (disk drains).
  SpanContext ambient() const;

  /// Record a completed span on a simulated timeline (disk.* phases).  The
  /// caller supplies simulated start/duration in milliseconds; attribution
  /// to a trace comes from `ctx` (typically `ambient()`).
  void record_sim(std::string_view name, u32 track, double start_ms,
                  double dur_ms, SpanContext ctx, u64 arg0 = 0, u64 arg1 = 0);

  /// Claim a fresh sim-track instance (see make_track above).  Called once
  /// per set_spans attachment that owns disks.
  u32 reserve_track_namespace() {
    return next_instance_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- introspection -------------------------------------------------------
  std::size_t size() const;
  std::size_t capacity() const { return cfg_.span_capacity; }
  u64 dropped() const;
  u64 total_spans() const;

  /// Completion-ordered copy of the retained span ring.
  std::vector<SpanRecord> spans() const;

  /// The K slowest finished traces, slowest first.
  std::vector<SlowTrace> slow_traces() const;

  /// Per-phase duration statistics (µs) accumulated over every span.
  struct PhaseStats {
    Histogram hist_ns{40};  // log2 ns buckets → ~µs..s span
    RunningStats us;
  };
  std::map<std::string, PhaseStats, std::less<>> phase_stats() const;

  /// Publish per-phase latency distributions into `reg` as
  /// `span.<phase>` histograms (nanoseconds; kQuantiles plus the opt-in
  /// p999 tail) and `span.<phase>.us` stats, plus `span.dropped` /
  /// `span.total`.
  void export_metrics(MetricsRegistry& reg) const;

  /// {"slow_traces": [{trace_id, root, dur_us, spans: [...]}, ...]}
  Json slow_json() const;

  /// Drop all retained spans, slow traces and phase stats (ids keep
  /// counting; config unchanged).
  void clear();

  const Config& config() const { return cfg_; }

 private:
  friend class ScopedSpan;

  u64 next_trace_id() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  u64 next_span_id() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Open a span-tree accumulator for a new root's trace.
  void begin_trace(u64 trace_id);

  /// Called by ScopedSpan/record_sim with a fully-formed record; `root`
  /// marks the span that opened its trace and triggers slow-log admission.
  void finish_span(const SpanRecord& r, bool root);

  void push_ring(const SpanRecord& r);
  void admit_slow(u64 trace_id, std::string_view root_name, double dur_us,
                  std::vector<SpanRecord> spans);

  Config cfg_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<u64> next_trace_id_{1};
  std::atomic<u64> next_span_id_{1};
  std::atomic<u32> next_instance_{0};

  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;  // reserved once; grows to capacity max
  std::size_t head_{0};
  u64 dropped_{0};
  u64 total_{0};
  /// Span trees of traces whose root is still open.
  std::map<u64, std::vector<SpanRecord>> active_;
  /// Slowest-first finished traces, at most cfg_.slow_k entries.
  std::vector<SlowTrace> slow_;
  /// Root durations seen (ns), for the quantile admission gate.
  Histogram root_durs_ns_{40};
  std::map<std::string, PhaseStats, std::less<>> phases_;
};

/// RAII phase timer.  Null collector → every member is a no-op, so call
/// sites stay unconditional.  Must be destroyed on the thread that created
/// it, in LIFO order (automatic with scope-based use).
class ScopedSpan {
 public:
  ScopedSpan(SpanCollector* c, std::string_view name, u64 arg0 = 0,
             u64 arg1 = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's identity (invalid when no collector is attached).
  SpanContext context() const { return {rec_.trace_id, rec_.span_id}; }
  bool root() const { return root_; }

 private:
  SpanCollector* c_;
  SpanRecord rec_;
  bool root_{false};
};

/// Serialise the collector's retained spans (plus the slow-request log) as a
/// Chrome-trace-event / Perfetto JSON object:
///
///   {"displayTimeUnit": "ms",
///    "traceEvents": [{"name", "cat", "ph": "X", "ts", "dur", "pid", "tid",
///                     "args": {...}}, ...],
///    "slowTraces": [...]}            // extra key; viewers ignore it
///
/// Host-clock spans appear under pid 1 ("mif host"), one tid lane per
/// recording thread; sim-clock spans under pid 2 ("mif sim disks"), one tid
/// per disk track.  Load the file at ui.perfetto.dev or chrome://tracing.
Json chrome_trace_json(const SpanCollector& c);

}  // namespace mif::obs
