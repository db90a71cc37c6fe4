#include "rpc/transport.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/span.hpp"

namespace mif::rpc {

bool CompletionQueue::before(const Entry& e, const Entry& f) {
  // Completed-at-issue entries (done_ms < 0) sort by admission; modeled
  // completions by their timeline position, admission order breaking ties.
  const double ed = e.done_ms < 0 ? 0.0 : e.done_ms;
  const double fd = f.done_ms < 0 ? 0.0 : f.done_ms;
  if (ed != fd) return ed < fd;
  return e.seq < f.seq;
}

Ticket CompletionQueue::admit(const Address& to, Op op,
                              Result<Response> result, double done_ms) {
  std::lock_guard lock(mu_);
  Entry e;
  e.ticket = Ticket{next_id_++, to, op};
  e.result = std::move(result);
  e.done_ms = done_ms;
  e.seq = next_seq_++;
  entries_.push_back(std::move(e));
  return entries_.back().ticket;
}

void CompletionQueue::set_clock(double now_ms) {
  std::lock_guard lock(mu_);
  clock_ms_ = std::max(clock_ms_, now_ms);
}

// Each take path moves the entry's result once, straight into the object
// it returns: moving it into a local and then out again makes GCC 12 warn
// -Wmaybe-uninitialized through the Response variant.
std::optional<Result<Response>> CompletionQueue::try_take(const Ticket& t) {
  std::lock_guard lock(mu_);
  std::optional<Result<Response>> r;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->ticket.id != t.id) continue;
    if (it->done_ms <= clock_ms_) {
      r.emplace(std::move(it->result));
      entries_.erase(it);
    }
    break;
  }
  return r;
}

Result<Response> CompletionQueue::wait(const Ticket& t) {
  std::lock_guard lock(mu_);
  Result<Response> r{Errc::kInvalid};  // unknown or already claimed
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->ticket.id != t.id) continue;
    // Waiting blocks the caller to the ticket's completion: the modeled
    // timeline advances, so everything issued before it becomes pollable.
    clock_ms_ = std::max(clock_ms_, it->done_ms);
    r = std::move(it->result);
    entries_.erase(it);
    break;
  }
  return r;
}

Status CompletionQueue::wait_all() {
  std::lock_guard lock(mu_);
  std::stable_sort(entries_.begin(), entries_.end(), before);
  Status first{};
  for (Entry& e : entries_) {
    clock_ms_ = std::max(clock_ms_, e.done_ms);
    if (!e.result && first.ok()) first = e.result.error();
  }
  entries_.clear();
  return first;
}

std::size_t CompletionQueue::in_flight() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

void DeferredError::drop(const obs::Sinks& sinks, obs::SimTrack& track,
                         const std::function<double()>& now_ms,
                         u64& dropped) {
  // Leftovers a caller never flushed reached the servers, but an error at
  // this point has nowhere to surface — and a silently vanished write error
  // is the worst kind of loss, so make the drop observable.
  if (held_.ok()) return;
  ++dropped;
  if (obs::SpanCollector* spans = sinks.spans)
    spans->record_sim(marker_, track.id(*spans), now_ms(), 0.0,
                      spans->ambient(), static_cast<u64>(held_.error()), 1);
  const std::string_view layer = marker_.substr(0, marker_.find('.'));
  const std::string_view err = to_string(held_.error());
  std::fprintf(stderr,
               "[mif.%.*s] destructor dropped sticky deferred error: %.*s\n",
               static_cast<int>(layer.size()), layer.data(),
               static_cast<int>(err.size()), err.data());
}

}  // namespace mif::rpc
