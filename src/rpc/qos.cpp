#include "rpc/qos.hpp"

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

}  // namespace

std::string validate(const QosConfig& cfg) {
  if (!(cfg.rate_bytes_per_ms >= 0.0))
    return "qos.rate_bytes_per_ms must be >= 0";
  return "";
}

QosTransport::QosTransport(Transport& inner, QosConfig cfg)
    : Transport(inner.sinks(), inner.completions()),
      inner_(inner),
      cfg_(std::move(cfg)),
      track_(sinks(), "qos") {}

QosTransport::~QosTransport() {
  // Leftovers a caller never flushed still have to reach the servers.  The
  // drop marker sits at the bucket clock's time.
  std::lock_guard lock(mu_);
  release_all_locked();
  deferred_.drop(sinks(), track_, [this] { return now_locked(); },
                 stats_.dropped_errors);
}

void QosTransport::set_clock(std::function<double()> clock) {
  std::lock_guard lock(mu_);
  clock_ = std::move(clock);
}

QosTransport::Lane& QosTransport::lane_locked(u32 client) {
  auto it = lanes_.find(client);
  if (it != lanes_.end()) return it->second;
  return lanes_
      .emplace(client,
               Lane{TokenBucket(cfg_.rate_bytes_per_ms, kBurstBytes), {}})
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
  if (obs::SpanCollector* spans = sinks().spans)
    spans->record_sim("rpc.qos.wait", track_.id(*spans), p.enqueue_ms, waited,
                      spans->ambient(), static_cast<u64>(p.principal.client),
                      p.bytes);
  // Dispatch under the OWNER's identity, not the thread that happened to
  // pump — the attribution ledger must keep charging the client that issued
  // the envelope (conservation holds because nothing new is charged here).
  obs::ScopedPrincipal sp(p.principal);
  Result<Response> r = inner_.call(p.to, p.req);
  if (!r) {
    ++stats_.deferred_errors;
    deferred_.hold(r.error());
  }
}

void QosTransport::pump_locked(double now_ms) {
  for (auto& [c, l] : lanes_) l.bucket.refill(now_ms);
  if (backlog_count_ == 0) return;
  // Round-robin over backlogged lanes: each visit releases one envelope if
  // the lane's tokens cover it; cycles repeat until a full pass makes no
  // progress (everyone throttled or drained).
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
      if (l.backlog.empty()) continue;
      Parked& front = l.backlog.front();
      // An envelope larger than the bucket itself could never earn enough
      // tokens — let it through rather than wedging the lane.
      if (!l.bucket.try_consume(front.bytes) &&
          front.bytes <= l.bucket.burst_bytes())
        continue;
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

std::optional<Result<Response>> QosTransport::admit(
    const Address& to, const Request& req,
    std::unique_lock<std::mutex>& lock) {
  const OpTraits& tr = traits(op_of(req));
  const obs::Principal p = obs::ambient_principal();
  lock.lock();
  const double now = now_locked();
  // Every admission first releases what refilled buckets cover: a metered
  // envelope queues behind its client's backlog (per-client FIFO), and a
  // backlog keeps draining as the clock advances under unmetered traffic.
  pump_locked(now);
  if (tr.deferrable && meterable(tr, p)) {
    Lane& l = lane_locked(p.client);
    l.bucket.refill(now);
    const u64 bytes = wire_bytes(req);
    if (l.backlog.empty() &&
        (l.bucket.try_consume(bytes) || bytes > l.bucket.burst_bytes())) {
      ++stats_.admitted;
      return std::nullopt;
    }
    ++stats_.throttled;
    l.backlog.push_back(Parked{to, req, p, bytes, now});
    ++backlog_count_;
    backlog_bytes_ += bytes;
    note_backlog_locked();
    return Response{VoidResponse{}};  // deferred ack, formation semantics
  }
  // kGetExtents is an advisory statistics poll (the client's periodic
  // layout-report cadence), not a data dependency: treating it as a barrier
  // would force-release a throttled client's entire backlog every report
  // interval — a scheduler bypass the client earns just by streaming.
  // A deferred-ack write that has not been released simply does not appear
  // in the count yet.
  if (op_of(req) == Op::kGetExtents) return std::nullopt;
  if (!tr.deferrable) {
    // Non-deferrable: an ino-scoped barrier (see release_ino_locked).  A
    // sticky deferred failure surfaces here, like the formation layer's.
    ++stats_.barriers;
    if (std::optional<InodeNo> ino = ino_of(req)) release_ino_locked(*ino);
    if (Status s = deferred_.take(); !s) return s.error();
  }
  // Unmetered deferrable work (metadata, system principal) and barriers
  // pass through unlocked.
  lock.unlock();
  return std::nullopt;
}

Result<Response> QosTransport::call(const Address& to, const Request& req) {
  std::unique_lock lock(mu_, std::defer_lock);
  if (auto answer = admit(to, req, lock)) return std::move(*answer);
  return inner_.call(to, req);
}

Ticket QosTransport::call_async(const Address& to, const Request& req) {
  // An admitted envelope keeps the inner async path (pipelined); one
  // answered here gets an immediate ticket.
  std::unique_lock lock(mu_, std::defer_lock);
  if (auto answer = admit(to, req, lock))
    return completions().admit(to, op_of(req), std::move(*answer));
  return inner_.call_async(to, req);
}

Status QosTransport::flush() {
  Status mine;
  {
    std::lock_guard lock(mu_);
    ++stats_.flushes;
    pump_locked(now_locked());
    release_all_locked();
    mine = deferred_.take();
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
