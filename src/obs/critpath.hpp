// Critical-path profiler: decompose each traced request's *simulated*
// latency into the resource segments the attribution ledger charges.
//
// The span collector (obs/span.hpp) retains two families of records per
// trace: host-clock phases (client.write, mds.create, …) and sim-clock cost
// spans that the charging sites emit when BOTH a collector and an
// Attribution are attached — net.exchange, io.queue_wait, rpc.stall,
// fault.delay, mds.cpu, and the disks' mechanical disk.* phases.  Every
// sim-clock span is a simulated cost with a known resource, so summing them
// per trace decomposes that request's simulated milliseconds exactly:
//
//   total == queue + network + disk + mds + stall + fault     (by
//   construction — each segment is the sum of the spans mapped to it).
//
// analyze_critical_path() groups the retained ring by trace, reports the
// top-k slowest requests (by attributed sim total) with their segment
// breakdown and dominant segment, plus aggregate per-segment totals.  Two
// identical runs against fresh collectors produce identical reports: trace
// ids come from a per-collector counter starting at 1 and every charge is
// driven by the deterministic simulation clocks.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "util/types.hpp"

namespace mif::obs {

class SpanCollector;

/// Resource segment a sim-clock cost span belongs to.
enum class Segment : u8 {
  kQueue,    // io.queue_wait — scheduler queue wait before dispatch
  kNetwork,  // net.exchange — wire cost of the request's envelopes
  kDisk,     // disk.seek / disk.skip / disk.transfer — mechanical service
  kMds,      // mds.cpu — metadata handler CPU
  kStall,    // rpc.stall — async pipeline window backpressure
  kFault,    // fault.delay — injected fault-path delay
  kNone,     // not a cost span (host phases, unknown names)
};

/// Span-name → segment mapping (kNone for anything that is not a sim cost
/// span).  Exposed for tests.
Segment segment_of(std::string_view span_name);
std::string_view to_string(Segment s);

/// One analyzed request.
struct CriticalPathEntry {
  u64 trace_id{0};
  std::string_view root;  // root host span's name; "?" if it left the ring
  double total_ms{0.0};   // sum of all segments (== attributed sim cost)
  double queue_ms{0.0};
  double network_ms{0.0};
  double disk_ms{0.0};
  double mds_ms{0.0};
  double stall_ms{0.0};
  double fault_ms{0.0};
  Segment dominant{Segment::kNone};
};

/// Walk the collector's retained spans and return the top-k slowest traced
/// requests by attributed simulated cost, slowest first (ties broken by
/// ascending trace id, so the order is deterministic).
std::vector<CriticalPathEntry> critical_path_entries(const SpanCollector& c,
                                                     std::size_t top_k = 8);

/// JSON report:
///   {"requests": [{"trace_id", "root", "total_ms", "dominant",
///                  "segments": {"queue_ms", "network_ms", "disk_ms",
///                               "mds_ms", "stall_ms", "fault_ms"}}, ...],
///    "segment_totals": {...same keys, summed over EVERY trace...},
///    "traced_requests": <traces with at least one cost span>,
///    "spans_dropped": <SpanCollector::dropped()>}
/// Every figure covers the spans the collector's ring retained only; a
/// non-zero `spans_dropped` says how many older ones it overwrote.
Json analyze_critical_path(const SpanCollector& c, std::size_t top_k = 8);

}  // namespace mif::obs
