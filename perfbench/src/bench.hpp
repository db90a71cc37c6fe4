// perfbench: the repository benchmark.
//
// Four closed-loop workloads, each driven by one host thread, measure two
// things about the MiF simulator:
//   * host cost — wall-clock time of every call the benchmark makes into the
//     library's public API (what a user waits for when running the
//     evaluation);
//   * simulated results — the paper's outputs (simulated MB/s, ops/s,
//     extents per file), which repeat exactly for a given seed.
//
// One *episode* is one complete, deterministic pass of a workload: mount,
// pre-fill (timed as set-up), the measured phase (every call timed), then the
// correctness gate.  A run repeats episodes of the same seed until its time
// budget is used; host figures keep each call's best time over the episodes,
// simulated figures must be identical across them.
//
// A traced episode additionally attaches an obs::SpanCollector and wraps the
// benchmark's own calls into each layer in spans; per-layer self time comes
// from the retained spans' parent links (see Tracer).
#pragma once

#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mds/mds.hpp"
#include "obs/span.hpp"
#include "util/types.hpp"

namespace perfbench {

using mif::u32;
using mif::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Client-visible operation classes the benchmark times separately.
enum class OpClass : u32 { kWrite, kRead, kCreate, kUnlink, kOpen, kClose };
inline constexpr std::size_t kOpClasses = 6;
inline constexpr std::array<const char*, kOpClasses> kOpClassNames = {
    "write", "read", "create", "unlink", "open", "close"};

/// One timed call: when it started (µs since the log's first call), how long
/// it took, and its class.
struct Call {
  double start_us{0.0};
  float dur_us{0.0f};
  OpClass cls{OpClass::kWrite};
};

/// Every timed call in issue order, plus attempt/failure counts per class.
struct OpLog {
  std::vector<Call> calls;
  std::array<u64, kOpClasses> attempted{};
  std::array<u64, kOpClasses> failed{};

  /// Time one call.  `fn` returns something contextually convertible to
  /// bool (Status or Result<T>); false counts as a failed operation.
  template <typename Fn>
  auto time(OpClass c, Fn&& fn) {
    const auto t0 = Clock::now();
    auto r = fn();
    const auto t1 = Clock::now();
    if (calls.empty()) epoch_ = t0;
    calls.push_back(
        {std::chrono::duration<double, std::micro>(t0 - epoch_).count(),
         std::chrono::duration<float, std::micro>(t1 - t0).count(), c});
    const auto i = static_cast<std::size_t>(c);
    ++attempted[i];
    if (!static_cast<bool>(r)) ++failed[i];
    return r;
  }

  u64 total_attempted() const { return calls.size(); }
  u64 total_failed() const {
    u64 n = 0;
    for (u64 f : failed) n += f;
    return n;
  }

 private:
  Clock::time_point epoch_{};
};

/// Per-layer host self time folded out of retained spans.
struct SpanTotals {
  std::map<std::string, double> self_us;  // by layer name
  std::map<std::string, u64> spans;       // span count by layer name
  double covered_us{0.0};                 // Σ durations of top-level spans
};

/// The traced-run collector plus its incremental fold.  The ring is drained
/// between benchmark calls (never while a span is open), so every trace's
/// parent and children are folded together and nothing is overwritten.
class Tracer {
 public:
  /// Ring capacity; drained at a quarter full, far above what one call
  /// records, so `dropped()` stays 0.
  static constexpr std::size_t kRing = std::size_t{1} << 19;

  Tracer();
  mif::obs::SpanCollector* collector() { return spans_.get(); }
  /// Fold the ring if it is filling up; call between benchmark operations.
  void maybe_drain() {
    if (spans_->size() >= kRing / 4) drain();
  }
  /// Fold everything retained so far into totals() and clear the ring.
  void drain();
  /// Start a fresh measurement (totals zeroed, ring cleared).
  void reset();
  const SpanTotals& totals() const { return totals_; }
  u64 dropped() const { return dropped_ + spans_->dropped(); }
  /// Host seconds spent folding so far; workloads subtract the folds that
  /// happened inside their measured phase from its wall time.
  double folding_s() const { return fold_s_; }

 private:
  std::unique_ptr<mif::obs::SpanCollector> spans_;
  SpanTotals totals_;
  u64 dropped_{0};
  double fold_s_{0.0};
};

/// Null-tolerant helpers: every traced hook is a no-op without a tracer.
inline mif::obs::SpanCollector* collector(Tracer* t) {
  return t ? t->collector() : nullptr;
}
inline void maybe_drain(Tracer* t) {
  if (t) t->maybe_drain();
}

/// Everything one episode produced.
struct Episode {
  double setup_s{0.0};    // mount + pre-fill
  double measure_s{0.0};  // wall time of the measured phase
  OpLog ops;
  /// Calls per repetition when the measured phase repeats an identical call
  /// sequence within the episode; 0 = it runs once.
  std::size_t rep_calls{0};
  /// Simulated outputs: identical for a given seed and configuration.
  std::map<std::string, double> sim;
  /// Per-layer figures (counts from library statistics; self times only
  /// when traced).
  std::map<std::string, double> layer;
  /// Correctness-gate failures (empty = every check passed).
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// --- workloads ---------------------------------------------------------------
// The options are what the figure-equivalence test sets differently from the
// benchmark scale; everything else is fixed inside each workload.

/// Fig 6(a)/Table I traffic: interleaved extends of one shared file by
/// `clients` x 4 streams in 16 KiB writes, then 1024 segment reads.
struct SharedStreamOptions {
  u32 clients{16};
  u64 blocks_per_process{8192};  // 32 MiB per stream
  /// Per-step probability that a stream issues its next write (IOR-style
  /// drift); 1.0 is strict round-robin, the order run_shared_file uses.
  double pacing{0.9};
};

/// Fig 9 traffic: create/unlink churn to a target utilisation, then
/// creates and unlinks in the newest aged directories.
struct MdsAgingOptions {
  double target_utilisation{0.8};
  u32 files_per_round{5000};
  u32 measure_files{2500};  // per measured directory
  u32 measure_dirs{8};
  /// The measured phase runs this many times on one aged volume; only the
  /// first repetition's simulated results are reported.
  u32 repeats{4};
};

/// The Fig 9 metadata server: normal directories, linear-scan lookups, a
/// 512 MiB volume and a 512-block cache.
mif::mds::MdsConfig aging_mds_config();

Episode run_shared_stream(const SharedStreamOptions& o, u64 seed, Tracer* t);
Episode run_mds_aging(const MdsAgingOptions& o, u64 seed, Tracer* t);
/// Fig 10 PostMark transactions over a base pool of small files.
Episode run_small_files(u64 seed, Tracer* t);
/// Fig 7 IOR collective I/O on the full opt-in stack.
Episode run_stacked_collective(u64 seed, Tracer* t);

}  // namespace perfbench
