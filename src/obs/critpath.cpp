#include "obs/critpath.hpp"

#include <algorithm>
#include <map>

#include "obs/span.hpp"

namespace mif::obs {

Segment segment_of(std::string_view span_name) {
  if (span_name == "io.queue_wait") return Segment::kQueue;
  if (span_name == "net.exchange") return Segment::kNetwork;
  if (span_name == "disk.seek" || span_name == "disk.skip" ||
      span_name == "disk.transfer") {
    return Segment::kDisk;
  }
  if (span_name == "mds.cpu") return Segment::kMds;
  if (span_name == "rpc.stall") return Segment::kStall;
  if (span_name == "fault.delay") return Segment::kFault;
  return Segment::kNone;
}

std::string_view to_string(Segment s) {
  switch (s) {
    case Segment::kQueue: return "queue";
    case Segment::kNetwork: return "network";
    case Segment::kDisk: return "disk";
    case Segment::kMds: return "mds";
    case Segment::kStall: return "stall";
    case Segment::kFault: return "fault";
    case Segment::kNone: break;
  }
  return "none";
}

namespace {

double& segment_slot(CriticalPathEntry& e, Segment s) {
  switch (s) {
    case Segment::kQueue: return e.queue_ms;
    case Segment::kNetwork: return e.network_ms;
    case Segment::kDisk: return e.disk_ms;
    case Segment::kMds: return e.mds_ms;
    case Segment::kStall: return e.stall_ms;
    case Segment::kFault: return e.fault_ms;
    case Segment::kNone: break;
  }
  return e.total_ms;  // unreachable: callers filter kNone first
}

Segment dominant_of(const CriticalPathEntry& e) {
  // Fixed evaluation order makes ties deterministic (first wins on >).
  const std::pair<Segment, double> vals[] = {
      {Segment::kQueue, e.queue_ms},   {Segment::kNetwork, e.network_ms},
      {Segment::kDisk, e.disk_ms},     {Segment::kMds, e.mds_ms},
      {Segment::kStall, e.stall_ms},   {Segment::kFault, e.fault_ms},
  };
  Segment best = Segment::kNone;
  double best_ms = 0.0;
  for (const auto& [s, v] : vals) {
    if (v > best_ms) {
      best_ms = v;
      best = s;
    }
  }
  return best;
}

Json segments_json(const CriticalPathEntry& e) {
  Json j;
  j["queue_ms"] = e.queue_ms;
  j["network_ms"] = e.network_ms;
  j["disk_ms"] = e.disk_ms;
  j["mds_ms"] = e.mds_ms;
  j["stall_ms"] = e.stall_ms;
  j["fault_ms"] = e.fault_ms;
  return j;
}

}  // namespace

std::vector<CriticalPathEntry> critical_path_entries(const SpanCollector& c,
                                                     std::size_t top_k) {
  const std::vector<SpanRecord> spans = c.spans();

  // One pass: accumulate sim cost spans per trace, remember each trace's
  // root host span (parent_id == 0) for the report label.
  std::map<u64, CriticalPathEntry> traces;
  for (const SpanRecord& r : spans) {
    if (r.trace_id == 0) continue;
    if (r.clock == SpanClock::kHost) {
      if (r.parent_id == 0) {
        CriticalPathEntry& e = traces[r.trace_id];
        e.trace_id = r.trace_id;
        e.root = r.name;
      }
      continue;
    }
    const Segment s = segment_of(r.name);
    if (s == Segment::kNone) continue;
    CriticalPathEntry& e = traces[r.trace_id];
    e.trace_id = r.trace_id;
    const double ms = r.dur_us / 1000.0;
    segment_slot(e, s) += ms;
    e.total_ms += ms;
  }

  std::vector<CriticalPathEntry> out;
  out.reserve(traces.size());
  for (auto& [id, e] : traces) {
    if (e.total_ms <= 0.0) continue;  // root span with no retained cost
    if (e.root.empty()) e.root = "?";  // root host span left the ring
    e.dominant = dominant_of(e);
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const CriticalPathEntry& a, const CriticalPathEntry& b) {
              if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
              return a.trace_id < b.trace_id;
            });
  if (out.size() > top_k) out.resize(top_k);
  return out;
}

Json analyze_critical_path(const SpanCollector& c, std::size_t top_k) {
  const std::vector<SpanRecord> spans = c.spans();

  // Aggregate per-segment totals over EVERY trace (not just the top-k) —
  // the whole-run view of where attributed simulated time went.
  CriticalPathEntry agg;
  std::size_t traced = 0;
  {
    std::map<u64, bool> seen;
    for (const SpanRecord& r : spans) {
      if (r.trace_id == 0 || r.clock == SpanClock::kHost) continue;
      const Segment s = segment_of(r.name);
      if (s == Segment::kNone) continue;
      const double ms = r.dur_us / 1000.0;
      segment_slot(agg, s) += ms;
      agg.total_ms += ms;
      if (!seen[r.trace_id]) {
        seen[r.trace_id] = true;
        ++traced;
      }
    }
  }

  Json::Array requests;
  for (const CriticalPathEntry& e : critical_path_entries(c, top_k)) {
    Json r;
    r["trace_id"] = e.trace_id;
    r["root"] = e.root;
    r["total_ms"] = e.total_ms;
    r["dominant"] = to_string(e.dominant);
    r["segments"] = segments_json(e);
    requests.push_back(std::move(r));
  }

  Json j;
  j["requests"] = Json(std::move(requests));
  j["segment_totals"] = segments_json(agg);
  j["attributed_ms"] = agg.total_ms;
  j["traced_requests"] = traced;
  // The section covers the spans the ring kept; this many it did not.
  j["spans_dropped"] = c.dropped();
  return j;
}

}  // namespace mif::obs
