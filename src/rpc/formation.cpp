#include "rpc/formation.hpp"

#include <cstdio>
#include <optional>

#include "obs/export.hpp"
#include "obs/span.hpp"

namespace mif::rpc {

namespace {
/// Viewer lane for formation drop markers (qos uses 254, async stall 255).
constexpr u32 kFormationLane = 253;
}  // namespace

std::string validate(const FormationConfig& cfg) {
  if (cfg.max_frame_bytes <= kHeaderBytes)
    return "formation.max_frame_bytes must exceed the frame header";
  if (cfg.watermark_bytes == 0) return "formation.watermark_bytes must be > 0";
  if (cfg.max_queue_msgs == 0) return "formation.max_queue_msgs must be > 0";
  return "";
}

FormationTransport::FormationTransport(Transport& inner, FormationConfig cfg)
    : inner_(inner), cfg_(cfg) {}

FormationTransport::~FormationTransport() {
  // Leftovers a caller never flushed still have to reach the servers; their
  // errors have nowhere to go at this point — but a silently vanished write
  // error is the worst kind of loss, so make the drop observable: count it,
  // stamp a span for the tail/slow log, and shout on stderr.
  std::lock_guard lock(mu_);
  flush_all_locked();
  if (!sticky_.ok()) {
    ++stats_.dropped_errors;
    if (spans_)
      spans_->record_sim("formation.dropped_error",
                         obs::make_track(track_ns_, kFormationLane), 0.0, 0.0,
                         spans_->ambient(), static_cast<u64>(sticky_.error()),
                         1);
    std::fprintf(stderr,
                 "[mif.formation] destructor dropped sticky deferred error: "
                 "%.*s\n",
                 static_cast<int>(to_string(sticky_.error()).size()),
                 to_string(sticky_.error()).data());
  }
}

void FormationTransport::set_spans(obs::SpanCollector* spans) {
  spans_ = spans;
  if (spans) track_ns_ = spans->reserve_track_namespace();
  inner_.set_spans(spans);
}

bool FormationTransport::coalesce_locked(Queue& q, const BlockWriteRequest& w) {
  if (q.reqs.empty()) return false;
  auto* tail = std::get_if<BlockWriteRequest>(&q.reqs.back());
  if (!tail || tail->ino != w.ino || tail->stream != w.stream) return false;
  for (const BlockRun& run : w.runs) {
    if (util::append_run(tail->runs, run)) ++stats_.coalesced_runs;
  }
  return true;
}

void FormationTransport::order_urgent_locked(Queue& q) {
  bool has_meta = false;
  bool has_data = false;
  for (const Request& r : q.reqs)
    (traits(op_of(r)).meta ? has_meta : has_data) = true;
  if (!has_meta || !has_data) return;  // homogeneous: the common case
  ++stats_.urgent_reorders;
  const bool tagged = q.principals.size() == q.reqs.size();
  std::vector<Request> reqs;
  std::vector<obs::Principal> principals;
  reqs.reserve(q.reqs.size());
  if (tagged) principals.reserve(q.principals.size());
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < q.reqs.size(); ++i) {
      if (traits(op_of(q.reqs[i])).meta != (pass == 0)) continue;
      reqs.push_back(std::move(q.reqs[i]));
      if (tagged) principals.push_back(q.principals[i]);
    }
  }
  q.reqs = std::move(reqs);
  q.principals = std::move(principals);
}

Status FormationTransport::flush_queue_locked(Queue& q) {
  if (q.reqs.empty()) return {};
  // Adjacent per-block writes that coalesced into a noncontiguous run set
  // ship as ONE list envelope instead of a run-split block write: the server
  // executes the whole set in a single pass.  Single-run writes stay block
  // writes (same wire bytes either way — the two bodies are byte-identical).
  for (Request& r : q.reqs) {
    auto* w = std::get_if<BlockWriteRequest>(&r);
    if (!w || w->runs.size() <= 1) continue;
    WriteListRequest l;
    l.ino = w->ino;
    l.stream = w->stream;
    l.runs = std::move(w->runs);
    r = std::move(l);
    ++stats_.folded_lists;
  }
  order_urgent_locked(q);
  const bool tagged = attrib_ && q.principals.size() == q.reqs.size();
  // First-fit packing in queue order.  A frame's wire cost is one header
  // plus the marginal bodies (InprocTransport::call_batch charges exactly
  // this), so the bound is checked against that same sum.
  Status first;
  std::size_t i = 0;
  while (i < q.reqs.size()) {
    u64 frame_bytes = kHeaderBytes;
    std::size_t j = i;
    while (j < q.reqs.size()) {
      const u64 marginal = wire_bytes(q.reqs[j]) - kHeaderBytes;
      if (j > i && frame_bytes + marginal > cfg_.max_frame_bytes) break;
      frame_bytes += marginal;
      ++j;
    }
    ++stats_.frames;
    ++stats_.wire_messages;
    if (frame_bytes > cfg_.max_frame_bytes) ++stats_.oversize_frames;
    std::vector<Request> frame(std::make_move_iterator(q.reqs.begin() + i),
                               std::make_move_iterator(q.reqs.begin() + j));
    Status s;
    {
      // The flush runs on whatever thread tripped the watermark/barrier, so
      // its ambient principal is NOT the contributors'.  Publish the frame's
      // per-envelope tags for the inner transport's pro-rata split.
      std::optional<obs::ScopedFramePrincipals> fp;
      if (tagged) fp.emplace(q.principals.data() + i, j - i);
      s = inner_.call_batch(q.addr, std::move(frame));
    }
    if (!s) {
      ++stats_.deferred_errors;
      if (sticky_.ok()) sticky_ = s;
      if (first.ok()) first = s;
    }
    i = j;
  }
  q.reqs.clear();
  q.principals.clear();
  q.bytes = 0;
  return first;
}

void FormationTransport::flush_all_locked() {
  // std::map key order puts MDS destinations (kind 0) ahead of OSDs: urgent
  // metadata frames hit the wire before the bulk data frames they describe.
  for (auto& [k, q] : queues_) (void)flush_queue_locked(q);
  queues_.clear();
}

Status FormationTransport::take_sticky_locked() {
  Status s = sticky_;
  sticky_ = {};
  return s;
}

Result<Response> FormationTransport::call(const Address& to,
                                          const Request& req) {
  const OpTraits& tr = traits(op_of(req));
  if (tr.deferrable) {
    std::lock_guard lock(mu_);
    Queue& q = queues_[key(to)];
    q.addr = to;
    ++stats_.queued;
    const auto* w = std::get_if<BlockWriteRequest>(&req);
    if (w && coalesce_locked(q, *w)) {
      // Only the merged body rides in the tail envelope's frame share.
      q.bytes += wire_bytes(req) - kHeaderBytes;
    } else {
      q.bytes += wire_bytes(req);
      q.reqs.push_back(req);
      if (attrib_) q.principals.push_back(obs::ambient_principal());
    }
    if (q.bytes >= cfg_.watermark_bytes ||
        q.reqs.size() >= cfg_.max_queue_msgs) {
      ++stats_.watermark_flushes;
      (void)flush_queue_locked(q);
    }
    return Response{VoidResponse{}};  // deferred ack
  }

  // Non-deferrable: a barrier.  Everything staged anywhere must be on the
  // servers before this op runs (a read must see queued writes, an unlink
  // must follow queued utimes), and a deferred failure surfaces here.
  {
    std::lock_guard lock(mu_);
    if (!queues_.empty()) {
      ++stats_.barrier_flushes;
      flush_all_locked();
    }
    if (Status s = take_sticky_locked(); !s) return s.error();
  }
  return inner_.call(to, req);
}

Ticket FormationTransport::call_async(const Address& to, const Request& req) {
  // Same split as call(): deferrable envelopes join their destination queue
  // and the ticket is an immediate ack (a deferred failure stays sticky for
  // the next barrier); non-deferrable envelopes are barriers and the issue
  // itself flows to the inner transport's async path.
  const OpTraits& tr = traits(op_of(req));
  if (tr.deferrable) {
    Result<Response> ack = call(to, req);  // enqueue + early ack
    return completions().admit(to, op_of(req), std::move(ack));
  }
  {
    std::lock_guard lock(mu_);
    if (!queues_.empty()) {
      ++stats_.barrier_flushes;
      flush_all_locked();
    }
    if (Status s = take_sticky_locked(); !s)
      return completions().admit(to, op_of(req), s.error());
  }
  return inner_.call_async(to, req);
}

Status FormationTransport::call_batch(const Address& to,
                                      std::vector<Request> reqs) {
  std::lock_guard lock(mu_);
  if (!queues_.empty()) {
    ++stats_.barrier_flushes;
    flush_all_locked();
  }
  if (Status s = take_sticky_locked(); !s) return s;
  ++stats_.wire_messages;
  return inner_.call_batch(to, std::move(reqs));
}

Status FormationTransport::flush() {
  Status mine;
  {
    std::lock_guard lock(mu_);
    ++stats_.flushes;
    flush_all_locked();
    mine = take_sticky_locked();
  }
  Status inner = inner_.flush();
  return mine.ok() ? inner : mine;
}

u64 FormationTransport::pending_bytes() const {
  std::lock_guard lock(mu_);
  u64 total = 0;
  for (const auto& [k, q] : queues_) total += q.bytes;
  return total;
}

void FormationTransport::export_metrics(obs::MetricsRegistry& reg,
                                        std::string_view prefix) const {
  inner_.export_metrics(reg, prefix);
  const FormationStats s = stats();
  const std::string base = obs::join_key(prefix, "formation");
  reg.counter(obs::join_key(base, "queued")).inc(s.queued);
  reg.counter(obs::join_key(base, "coalesced_runs")).inc(s.coalesced_runs);
  reg.counter(obs::join_key(base, "folded_lists")).inc(s.folded_lists);
  reg.counter(obs::join_key(base, "frames")).inc(s.frames);
  reg.counter(obs::join_key(base, "oversize_frames")).inc(s.oversize_frames);
  reg.counter(obs::join_key(base, "wire_messages")).inc(s.wire_messages);
  reg.counter(obs::join_key(base, "flushes")).inc(s.flushes);
  reg.counter(obs::join_key(base, "watermark_flushes"))
      .inc(s.watermark_flushes);
  reg.counter(obs::join_key(base, "barrier_flushes")).inc(s.barrier_flushes);
  reg.counter(obs::join_key(base, "urgent_reorders")).inc(s.urgent_reorders);
  reg.counter(obs::join_key(base, "deferred_errors")).inc(s.deferred_errors);
  reg.counter(obs::join_key(base, "dropped_errors")).inc(s.dropped_errors);
}

}  // namespace mif::rpc
