#include "redundancy/repair.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "obs/attrib.hpp"
#include "obs/span.hpp"
#include "osd/storage_target.hpp"
#include "rpc/client.hpp"

namespace mif::redundancy {

namespace {

/// A subfile's logical block runs: extents sorted by file offset, adjacent
/// runs merged (physical placement is irrelevant here — repair replays
/// logical content, the replacement allocator chooses fresh placement).
std::vector<BlockRun> logical_runs(const osd::StorageTarget& t, InodeNo ino) {
  std::vector<BlockRun> runs;
  for (const block::Extent& e : t.extents(ino)) {
    runs.push_back(BlockRun{e.file_off, e.length});
  }
  std::sort(runs.begin(), runs.end(), [](const BlockRun& a, const BlockRun& b) {
    return a.start.v < b.start.v;
  });
  std::vector<BlockRun> merged;
  for (const BlockRun& r : runs) {
    if (!merged.empty() &&
        r.start.v <= merged.back().start.v + merged.back().count) {
      const u64 end = std::max(merged.back().start.v + merged.back().count,
                               r.start.v + r.count);
      merged.back().count = end - merged.back().start.v;
    } else {
      merged.push_back(r);
    }
  }
  return merged;
}

/// Sorted-disjoint interval union.
std::vector<BlockRun> union_runs(std::vector<BlockRun> a,
                                 const std::vector<BlockRun>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end(), [](const BlockRun& x, const BlockRun& y) {
    return x.start.v < y.start.v;
  });
  std::vector<BlockRun> out;
  for (const BlockRun& r : a) {
    if (r.count == 0) continue;
    if (!out.empty() && r.start.v <= out.back().start.v + out.back().count) {
      const u64 end =
          std::max(out.back().start.v + out.back().count, r.start.v + r.count);
      out.back().count = end - out.back().start.v;
    } else {
      out.push_back(r);
    }
  }
  return out;
}

/// Runs of `need` not covered by `have` (both sorted and disjoint).
std::vector<BlockRun> subtract_runs(const std::vector<BlockRun>& need,
                                    const std::vector<BlockRun>& have) {
  std::vector<BlockRun> out;
  std::size_t j = 0;
  for (const BlockRun& n : need) {
    u64 cur = n.start.v;
    const u64 end = n.start.v + n.count;
    while (cur < end) {
      while (j < have.size() && have[j].start.v + have[j].count <= cur) ++j;
      if (j == have.size() || have[j].start.v >= end) {
        out.push_back(BlockRun{FileBlock{cur}, end - cur});
        cur = end;
      } else if (have[j].start.v > cur) {
        out.push_back(BlockRun{FileBlock{cur}, have[j].start.v - cur});
        cur = have[j].start.v;
      } else {
        cur = have[j].start.v + have[j].count;
      }
    }
  }
  return out;
}

/// Overlap of two sorted-disjoint run lists.
std::vector<BlockRun> intersect_runs(const std::vector<BlockRun>& a,
                                     const std::vector<BlockRun>& b) {
  std::vector<BlockRun> out;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const u64 lo = std::max(a[i].start.v, b[j].start.v);
    const u64 hi =
        std::min(a[i].start.v + a[i].count, b[j].start.v + b[j].count);
    if (lo < hi) out.push_back(BlockRun{FileBlock{lo}, hi - lo});
    if (a[i].start.v + a[i].count < b[j].start.v + b[j].count) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

u64 run_blocks(const std::vector<BlockRun>& runs) {
  u64 n = 0;
  for (const BlockRun& r : runs) n += r.count;
  return n;
}

}  // namespace

RepairService::RepairService(osd::StripeLayout stripe, Policy policy,
                             HealthMap& health,
                             std::vector<osd::StorageTarget*> targets,
                             rpc::Client& rpc, u64 max_runs_per_envelope,
                             const obs::Sinks& sinks)
    : stripe_(stripe),
      policy_(policy),
      health_(health),
      targets_(std::move(targets)),
      rpc_(rpc),
      max_runs_per_envelope_(max_runs_per_envelope),
      sinks_(sinks) {}

void RepairService::request(u32 target) {
  if (target >= targets_.size()) return;
  for (const Job& j : queue_) {
    if (j.target == target) return;
  }
  queue_.emplace_back().target = target;
  ++stats_.requested;
}

void RepairService::drain() {
  // Bounded by the pass cap inside pump: a job that cannot converge
  // (persistent faults) is abandoned rather than spinning the unmount.
  while (pending()) {
    if (!pump()) break;
  }
}

std::vector<u64> RepairService::survivor_inos(u32 dead) const {
  // Primaries any target still knows about — including the wiped target's
  // zero-extent shells (a file whose every primary unit lived on `dead` is
  // still discoverable through its replica subfiles elsewhere, and
  // primary_ino() folds those tags away).
  std::set<u64> inos;
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    if (t != dead && !health_.alive(static_cast<u32>(t))) continue;
    targets_[t]->for_each_file(
        [&inos](InodeNo ino) { inos.insert(primary_ino(ino).v); });
  }
  return {inos.begin(), inos.end()};
}

long long RepairService::rebuild_subfile(
    u32 dead, InodeNo dst_ino,
    const std::vector<std::pair<u32, InodeNo>>& sources) {
  // What the subfile should hold = the union of every surviving copy.
  std::vector<BlockRun> need;
  std::vector<std::vector<BlockRun>> source_runs;
  source_runs.reserve(sources.size());
  for (const auto& [t, ino] : sources) {
    source_runs.push_back(logical_runs(*targets_[t], ino));
    need = union_runs(std::move(need), source_runs.back());
  }
  std::vector<BlockRun> missing =
      subtract_runs(need, logical_runs(*targets_[dead], dst_ino));
  if (missing.empty()) return 0;

  obs::ScopedSpan span(sinks_.spans, "repair.rebuild", dst_ino.v,
                       run_blocks(missing));
  long long written = 0;
  for (std::size_t s = 0; s < sources.size() && !missing.empty(); ++s) {
    const auto take = intersect_runs(missing, source_runs[s]);
    if (take.empty()) continue;
    const auto& [src_t, src_ino] = sources[s];
    for (std::size_t at = 0; at < take.size(); at += max_runs_per_envelope_) {
      const std::size_t n =
          std::min<std::size_t>(max_runs_per_envelope_, take.size() - at);
      std::vector<BlockRun> chunk{take.begin() + at, take.begin() + at + n};
      // Gather from the survivor, then replay onto the replacement — both
      // as list-I/O envelopes through the full transport chain, so repair
      // traffic is priced (network + disk) like any other I/O.
      if (Status st = rpc_.read_list(src_t, src_ino, chunk); !st) {
        // Mid-repair fault: roll the torn subfile back and retry the whole
        // file at the next pump.
        (void)rpc_.delete_file(dead, dst_ino);
        return -1;
      }
      if (Status st = rpc_.write_list(dead, dst_ino, StreamId{0, 0},
                                      std::move(chunk));
          !st) {
        (void)rpc_.delete_file(dead, dst_ino);
        return -1;
      }
      for (std::size_t k = 0; k < n; ++k) ++stats_.extents_rebuilt;
    }
    written += static_cast<long long>(run_blocks(take));
    missing = subtract_runs(missing, take);
  }
  if (!missing.empty()) ++stats_.unrecoverable;
  if (written > 0) {
    ++stats_.files_rebuilt;
    stats_.blocks_rebuilt += static_cast<u64>(written);
    stats_.bytes_rebuilt += static_cast<u64>(written) * kBlockSize;
  }
  return written;
}

long long RepairService::rebuild_file(u32 dead, InodeNo ino) {
  long long total = 0;
  // 1. The primary subfile `dead` lost: its stripe units survive as copy c
  //    in replica subfiles on (dead + c) % W.
  std::vector<std::pair<u32, InodeNo>> sources;
  for (u32 c = 1; c <= policy_.copies(); ++c) {
    const u32 t = copy_target(stripe_, dead, c);
    if (t != dead && health_.alive(t)) {
      sources.emplace_back(t, replica_ino(ino, c));
    }
  }
  long long n = rebuild_subfile(dead, ino, sources);
  if (n < 0) return n;
  total += n;

  // 2. The replica subfiles `dead` hosted: copy c on `dead` backs the
  //    primary on (dead + W - c) % W — re-read that primary (or, if it is
  //    also gone, one of its other copies).
  for (u32 c = 1; c <= policy_.copies(); ++c) {
    const u32 p = (dead + stripe_.width - (c % stripe_.width)) % stripe_.width;
    if (p == dead) continue;
    sources.clear();
    if (health_.alive(p)) sources.emplace_back(p, ino);
    for (u32 c2 = 1; c2 <= policy_.copies(); ++c2) {
      const u32 t2 = copy_target(stripe_, p, c2);
      if (t2 != dead && t2 != p && health_.alive(t2)) {
        sources.emplace_back(t2, replica_ino(ino, c2));
      }
    }
    long long m = rebuild_subfile(dead, replica_ino(ino, c), sources);
    if (m < 0) return m;
    total += m;
  }
  return total;
}

bool RepairService::pump() {
  if (queue_.empty()) return false;
  // The reserved background principal: every millisecond repair costs is
  // charged to {client 0, kBackground}, keeping attribution conservation
  // exact and client-facing Jain fairness untouched.
  obs::ScopedPrincipal who{obs::Principal{}};
  Job& job = queue_.front();
  obs::ScopedSpan pass(sinks_.spans, "repair.pass", job.target);
  if (!job.enumerated) {
    job.work = survivor_inos(job.target);
    std::reverse(job.work.begin(), job.work.end());  // pop_back ascends
    job.enumerated = true;
    job.pass_blocks = 0;
    job.pass_failures = 0;
  }
  bool progressed = false;
  u32 visited = 0;
  while (!job.work.empty() && visited < kFilesPerPump) {
    const InodeNo ino{job.work.back()};
    job.work.pop_back();
    ++visited;
    const long long n = rebuild_file(job.target, ino);
    if (n < 0) {
      ++job.pass_failures;
      ++stats_.rollbacks;
      progressed = true;
      continue;
    }
    if (n > 0) {
      job.pass_blocks += static_cast<u64>(n);
      progressed = true;
    }
  }
  if (job.work.empty()) {
    ++job.passes;
    if (job.pass_blocks == 0 && job.pass_failures == 0) {
      // A clean full verification pass: every subfile matches its surviving
      // copies.  Revive the target and stamp the rebuild's finish time on
      // the simulated timeline.
      health_.mark_alive(job.target);
      ++stats_.completed;
      stats_.completed_at_ms = clock_ ? clock_() : 0.0;
      queue_.pop_front();
      progressed = true;
    } else if (job.passes >= kMaxPasses) {
      // Cannot converge (persistent fault): abandon the rebuild and leave
      // the target dead — the degraded paths keep serving.
      ++stats_.unrecoverable;
      queue_.pop_front();
    } else {
      job.enumerated = false;  // re-enumerate: verification pass next
    }
  }
  if (progressed) ++stats_.rounds;
  return progressed;
}

}  // namespace mif::redundancy
