// Fragmentation lens: one periodic scan, many gauges.
//
// The paper's central metric is extents per file (ExtentMap::extent_count);
// its §III "fragmentation degree" divides a directory's extent total by its
// live file count.  Until now both were computed once, at preallocation time
// or end of run.  The lens turns them into time series: sources (OSD extent
// maps, the MDS namespace, free-space bitmaps) append into one FragSnapshot,
// `bind()` registers the snapshot's summary statistics as timeline gauges,
// and the timeline's prepare hook refreshes the scan once per sample so all
// frag gauges describe the same instant.
//
// The cached snapshot is also what `export_metrics` publishes, so the final
// timeline sample and the end-of-run registry metric are the *same doubles*
// by construction — the CI gate (scripts/gates.py) compares them
// for exact equality.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"
#include "util/types.hpp"

namespace mif::obs {

class MetricsRegistry;
class Timeline;

/// One consistent scan over every registered source.
struct FragSnapshot {
  /// Per-file extent-count distribution (log2 buckets).
  Histogram extent_counts{40};
  /// Free-space run lengths in blocks (log2 buckets).
  Histogram free_runs{40};
  u64 files{0};           // live regular files seen
  u64 laid_out_files{0};  // files with at least one extent
  u64 extents_total{0};   // over laid-out files
  u64 dirs{0};
  double degree_sum{0.0};  // per-directory fragmentation degree (§III)
  double degree_max{0.0};
  u64 free_run_count{0};
  u64 free_blocks{0};

  /// Record one live file's extent count.  Files that have no layout yet
  /// (created but never written/synced) count as `files` only — they would
  /// otherwise dilute the mean and make it dip while a batch of fresh
  /// creates is in flight.
  void add_file(u64 extents) {
    ++files;
    if (extents == 0) return;
    ++laid_out_files;
    extents_total += extents;
    extent_counts.add(extents);
  }

  void add_dir(double degree, u64 live_files) {
    if (live_files == 0) return;
    ++dirs;
    degree_sum += degree;
    if (degree > degree_max) degree_max = degree;
  }

  /// Mean extents per laid-out file — the `frag.extent_count` series.
  double extent_count_mean() const {
    return laid_out_files == 0
               ? 0.0
               : static_cast<double>(extents_total) /
                     static_cast<double>(laid_out_files);
  }
  /// Mean per-directory fragmentation degree — the `frag.degree` series.
  double degree_mean() const {
    return dirs == 0 ? 0.0 : degree_sum / static_cast<double>(dirs);
  }
};

class FragLens {
 public:
  using Source = std::function<void(FragSnapshot&)>;

  /// Sources append into the snapshot; added once at wiring time.
  void add_source(Source src) { sources_.push_back(std::move(src)); }

  /// Run every source into a fresh snapshot (no caching).
  FragSnapshot scan() const;

  /// scan() into the cached snapshot returned by last().
  void refresh() { last_ = scan(); }
  const FragSnapshot& last() const { return last_; }

  /// Register this lens on a timeline: one prepare hook that refreshes the
  /// scan, plus gauges `<prefix>.extent_count`, `.degree`, `.degree_max`,
  /// `.files`, `.extents_total`, `.free_runs`, `.free_blocks`.
  void bind(Timeline& tl, std::string prefix = "frag");

  /// Publish the *cached* snapshot into `reg` under `<prefix>.*` — gauges
  /// with the exact values of the last timeline sample, plus the two
  /// distributions as `<prefix>.extent_counts` / `<prefix>.free_runs`
  /// histograms.
  void export_metrics(MetricsRegistry& reg, std::string_view prefix) const;

 private:
  std::vector<Source> sources_;
  FragSnapshot last_;
};

}  // namespace mif::obs
