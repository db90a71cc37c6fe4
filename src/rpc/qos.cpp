#include "rpc/qos.hpp"

#include <cstdio>
#include <optional>

#include "obs/export.hpp"
#include "obs/span.hpp"

namespace mif::rpc {

namespace {

template <typename T>
concept HasIno = requires(const T& t) {
  { t.ino } -> std::convertible_to<InodeNo>;
};

/// The inode an envelope touches; nullopt for path-addressed metadata ops.
std::optional<InodeNo> ino_of(const Request& req) {
  return std::visit(
      [](const auto& r) -> std::optional<InodeNo> {
        if constexpr (HasIno<std::decay_t<decltype(r)>>) return r.ino;
        return std::nullopt;
      },
      req);
}

/// Viewer lane for qos wait spans (async stall spans use 255).
constexpr u32 kQosLane = 254;

}  // namespace

std::string validate(const QosConfig& cfg) {
  if (!cfg.enabled) return "";
  if (!(cfg.rate_bytes_per_ms > 0.0))
    return "qos.rate_bytes_per_ms must be > 0";
  if (cfg.burst_bytes == 0) return "qos.burst_bytes must be > 0";
  if (cfg.default_weight == 0) return "qos.default_weight must be > 0";
  for (const QosClientOverride& o : cfg.overrides) {
    if (o.client == 0)
      return "qos override targets reserved client 0 (the system principal)";
    if (o.rate_bytes_per_ms < 0.0)
      return "qos override rate_bytes_per_ms must be >= 0";
  }
  return "";
}

QosTransport::QosTransport(Transport& inner, QosConfig cfg)
    : inner_(inner), cfg_(std::move(cfg)) {}

QosTransport::~QosTransport() {
  // Leftovers a caller never flushed still have to reach the servers; an
  // error at this point has nowhere to surface — make the loss observable
  // (same contract as the formation layer's destructor).
  std::lock_guard lock(mu_);
  release_all_locked();
  if (!sticky_.ok()) {
    ++stats_.dropped_errors;
    if (spans_)
      spans_->record_sim("qos.dropped_error", obs::make_track(track_ns_, kQosLane),
                         now_locked(), 0.0, spans_->ambient(),
                         static_cast<u64>(sticky_.error()), 1);
    std::fprintf(stderr,
                 "[mif.qos] destructor dropped sticky deferred error: %.*s\n",
                 static_cast<int>(to_string(sticky_.error()).size()),
                 to_string(sticky_.error()).data());
  }
}

void QosTransport::set_spans(obs::SpanCollector* spans) {
  spans_ = spans;
  if (spans) track_ns_ = spans->reserve_track_namespace();
  inner_.set_spans(spans);
}

void QosTransport::set_clock(std::function<double()> clock) {
  std::lock_guard lock(mu_);
  clock_ = std::move(clock);
}

QosTransport::Lane& QosTransport::lane_locked(u32 client) {
  auto it = lanes_.find(client);
  if (it != lanes_.end()) return it->second;
  double rate = cfg_.rate_bytes_per_ms;
  u64 burst = cfg_.burst_bytes;
  u32 weight = cfg_.default_weight;
  for (const QosClientOverride& o : cfg_.overrides) {
    if (o.client != client) continue;
    if (o.rate_bytes_per_ms > 0.0) rate = o.rate_bytes_per_ms;
    if (o.burst_bytes > 0) burst = o.burst_bytes;
    if (o.weight > 0) weight = o.weight;
  }
  return lanes_.emplace(client, Lane{TokenBucket(rate, burst), weight, {}})
      .first->second;
}

void QosTransport::note_backlog_locked() {
  stats_.backlog_peak = std::max(stats_.backlog_peak, backlog_count_);
}

void QosTransport::release_locked(Parked&& p, bool forced) {
  const double now = now_locked();
  if (forced)
    ++stats_.forced;
  else
    ++stats_.released;
  const double waited = std::max(0.0, now - p.enqueue_ms);
  wait_ms_.add(waited);
  if (spans_)
    spans_->record_sim("rpc.qos.wait", obs::make_track(track_ns_, kQosLane),
                       p.enqueue_ms, waited, spans_->ambient(),
                       static_cast<u64>(p.principal.client), p.bytes);
  // Dispatch under the OWNER's identity, not the thread that happened to
  // pump — the attribution ledger must keep charging the client that issued
  // the envelope (conservation holds because nothing new is charged here).
  obs::ScopedPrincipal sp(p.principal);
  Result<Response> r = inner_.call(p.to, p.req);
  if (!r) {
    ++stats_.deferred_errors;
    if (sticky_.ok()) sticky_ = r.error();
  }
}

void QosTransport::pump_locked(double now_ms) {
  for (auto& [c, l] : lanes_) l.bucket.refill(now_ms);
  if (backlog_count_ == 0) return;
  // Weighted round-robin over backlogged lanes: each visit releases up to
  // `weight` envelopes while the lane's tokens cover them; cycles repeat
  // until a full pass makes no progress (everyone throttled or drained).
  std::vector<u32> ids;
  ids.reserve(lanes_.size());
  for (const auto& [c, l] : lanes_) ids.push_back(c);
  std::size_t start = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] > rr_cursor_) {
      start = i;
      break;
    }
  }
  bool progress = true;
  while (progress && backlog_count_ > 0) {
    progress = false;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Lane& l = lanes_.at(ids[(start + i) % ids.size()]);
      for (u32 w = 0; w < l.weight && !l.backlog.empty(); ++w) {
        Parked& front = l.backlog.front();
        // An envelope larger than the bucket itself could never earn enough
        // tokens — let it through rather than wedging the lane.
        if (!l.bucket.try_consume(front.bytes) &&
            front.bytes <= l.bucket.burst_bytes())
          break;
        Parked p = std::move(front);
        l.backlog.pop_front();
        --backlog_count_;
        backlog_bytes_ -= p.bytes;
        rr_cursor_ = ids[(start + i) % ids.size()];
        release_locked(std::move(p), /*forced=*/false);
        progress = true;
      }
    }
  }
}

void QosTransport::release_ino_locked(InodeNo ino) {
  // A non-deferrable op on `ino` must observe that file's queued writes —
  // and ONLY that file's: flushing everyone's backlog at every victim read
  // would hand a backlogged antagonist a barrier-shaped bypass.
  for (auto& [c, l] : lanes_) {
    for (std::size_t i = 0; i < l.backlog.size();) {
      std::optional<InodeNo> pino = ino_of(l.backlog[i].req);
      if (!pino || *pino != ino) {
        ++i;
        continue;
      }
      Parked p = std::move(l.backlog[i]);
      l.backlog.erase(l.backlog.begin() + static_cast<std::ptrdiff_t>(i));
      --backlog_count_;
      backlog_bytes_ -= p.bytes;
      release_locked(std::move(p), /*forced=*/true);
    }
  }
}

void QosTransport::release_all_locked() {
  for (auto& [c, l] : lanes_) {
    while (!l.backlog.empty()) {
      Parked p = std::move(l.backlog.front());
      l.backlog.pop_front();
      --backlog_count_;
      backlog_bytes_ -= p.bytes;
      release_locked(std::move(p), /*forced=*/true);
    }
  }
}

Status QosTransport::take_sticky_locked() {
  Status s = sticky_;
  sticky_ = {};
  return s;
}

Result<Response> QosTransport::call(const Address& to, const Request& req) {
  const OpTraits& tr = traits(op_of(req));
  const obs::Principal p = obs::ambient_principal();
  if (tr.deferrable) {
    if (meterable(tr, p)) {
      std::lock_guard lock(mu_);
      const double now = now_locked();
      pump_locked(now);  // drain refilled backlog first: per-client FIFO
      Lane& l = lane_locked(p.client);
      l.bucket.refill(now);
      const u64 bytes = wire_bytes(req);
      if (l.backlog.empty() &&
          (l.bucket.try_consume(bytes) || bytes > l.bucket.burst_bytes())) {
        ++stats_.admitted;
        return inner_.call(to, req);
      }
      ++stats_.throttled;
      l.backlog.push_back(Parked{to, req, p, bytes, now});
      ++backlog_count_;
      backlog_bytes_ += bytes;
      note_backlog_locked();
      return Response{VoidResponse{}};  // deferred ack, formation semantics
    }
    // Unmetered deferrable work (metadata, system principal) passes through,
    // but still pumps so a waiting backlog drains as the clock advances.
    {
      std::lock_guard lock(mu_);
      pump_locked(now_locked());
    }
    return inner_.call(to, req);
  }

  // kGetExtents is an advisory statistics poll (the client's periodic
  // layout-report cadence), not a data dependency: treating it as a barrier
  // would force-release a throttled client's entire backlog every report
  // interval — a scheduler bypass the client earns just by streaming.
  // A deferred-ack write that has not been released simply does not appear
  // in the count yet.
  if (op_of(req) == Op::kGetExtents) {
    std::lock_guard lock(mu_);
    pump_locked(now_locked());
    return inner_.call(to, req);
  }

  // Non-deferrable: an ino-scoped barrier (see release_ino_locked).  A
  // sticky deferred failure surfaces here, like the formation layer's.
  {
    std::lock_guard lock(mu_);
    ++stats_.barriers;
    pump_locked(now_locked());
    if (std::optional<InodeNo> ino = ino_of(req)) release_ino_locked(*ino);
    if (Status s = take_sticky_locked(); !s) return s.error();
  }
  return inner_.call(to, req);
}

Ticket QosTransport::call_async(const Address& to, const Request& req) {
  // Same admission split as call(); an admitted envelope keeps the inner
  // async path (pipelined), a parked one gets an immediate-ack ticket.
  const OpTraits& tr = traits(op_of(req));
  const obs::Principal p = obs::ambient_principal();
  if (tr.deferrable) {
    if (meterable(tr, p)) {
      std::lock_guard lock(mu_);
      const double now = now_locked();
      pump_locked(now);
      Lane& l = lane_locked(p.client);
      l.bucket.refill(now);
      const u64 bytes = wire_bytes(req);
      if (l.backlog.empty() &&
          (l.bucket.try_consume(bytes) || bytes > l.bucket.burst_bytes())) {
        ++stats_.admitted;
        return inner_.call_async(to, req);
      }
      ++stats_.throttled;
      l.backlog.push_back(Parked{to, req, p, bytes, now});
      ++backlog_count_;
      backlog_bytes_ += bytes;
      note_backlog_locked();
      return completions().admit(to, op_of(req), Response{VoidResponse{}});
    }
    {
      std::lock_guard lock(mu_);
      pump_locked(now_locked());
    }
    return inner_.call_async(to, req);
  }
  if (op_of(req) == Op::kGetExtents) {  // advisory poll; see call()
    std::lock_guard lock(mu_);
    pump_locked(now_locked());
    return inner_.call_async(to, req);
  }
  {
    std::lock_guard lock(mu_);
    ++stats_.barriers;
    pump_locked(now_locked());
    if (std::optional<InodeNo> ino = ino_of(req)) release_ino_locked(*ino);
    if (Status s = take_sticky_locked(); !s)
      return completions().admit(to, op_of(req), s.error());
  }
  return inner_.call_async(to, req);
}

Status QosTransport::call_batch(const Address& to, std::vector<Request> reqs) {
  // A pre-formed frame from an outer layer: treat as a full barrier (the
  // frame may span many inodes) and forward intact.
  {
    std::lock_guard lock(mu_);
    pump_locked(now_locked());
    release_all_locked();
    if (Status s = take_sticky_locked(); !s) return s;
  }
  return inner_.call_batch(to, std::move(reqs));
}

Status QosTransport::flush() {
  Status mine;
  {
    std::lock_guard lock(mu_);
    ++stats_.flushes;
    pump_locked(now_locked());
    release_all_locked();
    mine = take_sticky_locked();
  }
  Status inner = inner_.flush();
  return mine.ok() ? inner : mine;
}

void QosTransport::pump() {
  {
    std::lock_guard lock(mu_);
    pump_locked(now_locked());
  }
  inner_.pump();
}

QosStats QosTransport::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

u64 QosTransport::backlog() const {
  std::lock_guard lock(mu_);
  return backlog_count_;
}

u64 QosTransport::backlog_bytes() const {
  std::lock_guard lock(mu_);
  return backlog_bytes_;
}

double QosTransport::tokens(u32 client) const {
  std::lock_guard lock(mu_);
  auto it = lanes_.find(client);
  return it == lanes_.end() ? -1.0 : it->second.bucket.tokens();
}

void QosTransport::export_metrics(obs::MetricsRegistry& reg,
                                  std::string_view prefix) const {
  inner_.export_metrics(reg, prefix);
  QosStats s;
  u64 bl = 0, blb = 0;
  RunningStats wait;
  {
    std::lock_guard lock(mu_);
    s = stats_;
    bl = backlog_count_;
    blb = backlog_bytes_;
    wait = wait_ms_.snapshot();
  }
  const std::string base = obs::join_key(prefix, "qos");
  reg.counter(obs::join_key(base, "admitted")).inc(s.admitted);
  reg.counter(obs::join_key(base, "throttled")).inc(s.throttled);
  reg.counter(obs::join_key(base, "released")).inc(s.released);
  reg.counter(obs::join_key(base, "forced")).inc(s.forced);
  reg.counter(obs::join_key(base, "barriers")).inc(s.barriers);
  reg.counter(obs::join_key(base, "flushes")).inc(s.flushes);
  reg.counter(obs::join_key(base, "deferred_errors")).inc(s.deferred_errors);
  reg.counter(obs::join_key(base, "dropped_errors")).inc(s.dropped_errors);
  reg.counter(obs::join_key(base, "backlog_peak")).inc(s.backlog_peak);
  reg.gauge(obs::join_key(base, "backlog")).set(static_cast<double>(bl));
  reg.gauge(obs::join_key(base, "backlog_bytes")).set(static_cast<double>(blb));
  reg.stat(obs::join_key(base, "wait_ms")).merge_from(wait);
}

}  // namespace mif::rpc
