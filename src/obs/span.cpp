#include "obs/span.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace mif::obs {

namespace {

/// Ambient open-span stack.  Entries are per (collector, thread); the stack
/// is tiny (nesting depth), so parent lookup scans from the back.
struct TlsEntry {
  const SpanCollector* owner;
  u64 trace_id;
  u64 span_id;
};
thread_local std::vector<TlsEntry> g_open_spans;

/// Small dense per-thread lane id for the Chrome trace's tid field.
u32 thread_lane() {
  static std::atomic<u32> next{1};
  thread_local const u32 lane = next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

}  // namespace

SpanCollector::SpanCollector(Config cfg)
    : cfg_(cfg), epoch_(std::chrono::steady_clock::now()) {
  cfg_.span_capacity = std::max<std::size_t>(1, cfg_.span_capacity);
  cfg_.slow_k = std::max<std::size_t>(1, cfg_.slow_k);
  ring_.reserve(cfg_.span_capacity);
}

double SpanCollector::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

SpanContext SpanCollector::ambient() const {
  for (auto it = g_open_spans.rbegin(); it != g_open_spans.rend(); ++it) {
    if (it->owner == this) return {it->trace_id, it->span_id};
  }
  return {};
}

void SpanCollector::push_ring(const SpanRecord& r) {
  ++total_;
  if (ring_.size() < cfg_.span_capacity) {
    ring_.push_back(r);  // within the reserved capacity: no allocation
    return;
  }
  ring_[head_] = r;
  head_ = (head_ + 1) % cfg_.span_capacity;
  ++dropped_;
}

void SpanCollector::admit_slow(u64 trace_id, std::string_view root_name,
                               double dur_us, std::vector<SpanRecord> spans) {
  const double dur_ns = dur_us * 1000.0;
  root_durs_ns_.add(static_cast<u64>(std::max(0.0, dur_ns)));
  if (dur_us < cfg_.slow_threshold_us) return;
  if (cfg_.slow_quantile > 0.0 &&
      static_cast<u64>(dur_ns) <
          root_durs_ns_.quantile(cfg_.slow_quantile) / 2) {
    // quantile() reports the containing bucket's upper bound; admit the
    // whole bucket by comparing against its lower bound.
    return;
  }
  if (slow_.size() == cfg_.slow_k && dur_us <= slow_.back().dur_us) return;
  SlowTrace t{trace_id, root_name, dur_us, std::move(spans)};
  const auto pos = std::upper_bound(
      slow_.begin(), slow_.end(), dur_us,
      [](double d, const SlowTrace& s) { return d > s.dur_us; });
  slow_.insert(pos, std::move(t));
  if (slow_.size() > cfg_.slow_k) slow_.pop_back();
}

void SpanCollector::begin_trace(u64 trace_id) {
  std::lock_guard lock(mu_);
  active_.emplace(trace_id, std::vector<SpanRecord>{});
}

void SpanCollector::finish_span(const SpanRecord& r, bool root) {
  std::lock_guard lock(mu_);
  push_ring(r);

  PhaseStats& ps = [&]() -> PhaseStats& {
    auto it = phases_.find(r.name);
    if (it == phases_.end())
      it = phases_.emplace(std::string(r.name), PhaseStats{}).first;
    return it->second;
  }();
  ps.hist_ns.add(static_cast<u64>(std::max(0.0, r.dur_us * 1000.0)));
  ps.us.add(r.dur_us);

  if (root) {
    std::vector<SpanRecord> tree;
    auto it = active_.find(r.trace_id);
    if (it != active_.end()) {
      tree = std::move(it->second);
      active_.erase(it);
    }
    tree.push_back(r);
    admit_slow(r.trace_id, r.name, r.dur_us, std::move(tree));
  } else {
    auto it = active_.find(r.trace_id);
    if (it != active_.end() && it->second.size() < kMaxSpansPerTrace)
      it->second.push_back(r);
  }
}

void SpanCollector::record_sim(std::string_view name, u32 track,
                               double start_ms, double dur_ms, SpanContext ctx,
                               u64 arg0, u64 arg1) {
  SpanRecord r;
  r.trace_id = ctx.trace_id;
  r.span_id = next_span_id();
  r.parent_id = ctx.span_id;
  r.name = name;
  r.clock = SpanClock::kSim;
  r.track = track;
  r.start_us = start_ms * 1000.0;
  r.dur_us = dur_ms * 1000.0;
  r.arg0 = arg0;
  r.arg1 = arg1;
  finish_span(r, /*root=*/false);
}

std::size_t SpanCollector::size() const {
  std::lock_guard lock(mu_);
  return ring_.size();
}

u64 SpanCollector::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

u64 SpanCollector::total_spans() const {
  std::lock_guard lock(mu_);
  return total_;
}

std::vector<SpanRecord> SpanCollector::spans() const {
  std::lock_guard lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<SlowTrace> SpanCollector::slow_traces() const {
  std::lock_guard lock(mu_);
  return slow_;
}

std::map<std::string, SpanCollector::PhaseStats, std::less<>>
SpanCollector::phase_stats() const {
  std::lock_guard lock(mu_);
  return phases_;
}

void SpanCollector::export_metrics(MetricsRegistry& reg) const {
  std::lock_guard lock(mu_);
  for (const auto& [name, ps] : phases_) {
    Histo& h = reg.histogram("span." + name);
    h.merge_from(ps.hist_ns);
    // Latency distributions carry the tail story: export p999 too.
    h.enable_tail_quantiles();
    reg.stat("span." + name + ".us").merge_from(ps.us);
  }
  reg.counter("span.total").inc(total_);
  reg.counter("span.dropped").inc(dropped_);
}

Json SpanCollector::slow_json() const {
  Json doc;
  Json::Array traces;
  for (const SlowTrace& t : slow_traces()) {
    Json entry;
    entry["trace_id"] = t.trace_id;
    entry["root"] = t.root_name;
    entry["dur_us"] = t.dur_us;
    Json::Array spans;
    for (const SpanRecord& s : t.spans) {
      Json e;
      e["span_id"] = s.span_id;
      e["parent_id"] = s.parent_id;
      e["name"] = s.name;
      e["clock"] = s.clock == SpanClock::kHost ? "host" : "sim";
      e["start_us"] = s.start_us;
      e["dur_us"] = s.dur_us;
      e["arg0"] = s.arg0;
      e["arg1"] = s.arg1;
      spans.push_back(std::move(e));
    }
    entry["spans"] = std::move(spans);
    traces.push_back(std::move(entry));
  }
  doc["slow_traces"] = std::move(traces);
  return doc;
}

void SpanCollector::clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
  total_ = 0;
  active_.clear();
  slow_.clear();
  root_durs_ns_ = Histogram{40};
  phases_.clear();
}

ScopedSpan::ScopedSpan(SpanCollector* c, std::string_view name, u64 arg0,
                       u64 arg1)
    : c_(c) {
  if (!c_) return;
  const SpanContext parent = c_->ambient();
  root_ = !parent.valid();
  rec_.trace_id = root_ ? c_->next_trace_id() : parent.trace_id;
  rec_.span_id = c_->next_span_id();
  rec_.parent_id = parent.span_id;
  rec_.name = name;
  rec_.clock = SpanClock::kHost;
  rec_.track = thread_lane();
  rec_.arg0 = arg0;
  rec_.arg1 = arg1;
  rec_.start_us = c_->now_us();
  if (root_) c_->begin_trace(rec_.trace_id);
  g_open_spans.push_back({c_, rec_.trace_id, rec_.span_id});
}

ScopedSpan::~ScopedSpan() {
  if (!c_) return;
  rec_.dur_us = c_->now_us() - rec_.start_us;
  // LIFO discipline: scoped construction guarantees our entry is on top.
  g_open_spans.pop_back();
  c_->finish_span(rec_, root_);
}

Json chrome_trace_json(const SpanCollector& c) {
  Json doc;
  doc["displayTimeUnit"] = "ms";
  Json::Array events;

  // Process/thread naming metadata so the viewer labels the two clock
  // families and their lanes.
  auto meta = [&](std::string_view what, u64 pid, i64 tid,
                  std::string_view value) {
    Json e;
    e["name"] = what;
    e["ph"] = "M";
    e["pid"] = pid;
    e["tid"] = tid;
    Json args;
    args["name"] = value;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  };
  meta("process_name", 1, 0, "mif host (wall clock)");
  meta("process_name", 2, 0, "mif sim disks (simulated time)");

  std::vector<std::pair<u64, u32>> named_tracks;  // (pid, tid) already named
  for (const SpanRecord& s : c.spans()) {
    const u64 pid = s.clock == SpanClock::kHost ? 1 : 2;
    if (std::find(named_tracks.begin(), named_tracks.end(),
                  std::make_pair(pid, s.track)) == named_tracks.end()) {
      named_tracks.emplace_back(pid, s.track);
      std::string label;
      if (pid == 1) {
        label = "thread " + std::to_string(s.track);
      } else {
        // Sim lanes: "<disk> (mount k)" — k counts set_spans attachments.
        const u32 lane = track_lane(s.track);
        label = (lane == 0xffu ? std::string("mds disk")
                               : "disk " + std::to_string(lane)) +
                " (mount " + std::to_string(track_instance(s.track)) + ")";
      }
      meta("thread_name", pid, s.track, label);
    }
    Json e;
    e["name"] = s.name;
    const std::string_view cat = s.name.substr(0, s.name.find('.'));
    e["cat"] = cat;
    e["ph"] = "X";
    e["ts"] = s.start_us;
    e["dur"] = s.dur_us;
    e["pid"] = pid;
    e["tid"] = u64{s.track};
    Json args;
    args["trace_id"] = s.trace_id;
    args["span_id"] = s.span_id;
    args["parent_id"] = s.parent_id;
    args["arg0"] = s.arg0;
    args["arg1"] = s.arg1;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  doc["traceEvents"] = std::move(events);
  doc["slowTraces"] = c.slow_json()["slow_traces"];
  return doc;
}

}  // namespace mif::obs
