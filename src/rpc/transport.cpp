#include "rpc/transport.hpp"

#include <algorithm>

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
std::optional<Completion> CompletionQueue::poll() {
  std::lock_guard lock(mu_);
  auto best = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->done_ms > clock_ms_) continue;  // still in flight at the clock
    if (best == entries_.end() || before(*it, *best)) best = it;
  }
  std::optional<Completion> c;
  if (best != entries_.end()) {
    c.emplace(best->ticket, std::move(best->result),
              best->done_ms < 0 ? 0.0 : best->done_ms);
    entries_.erase(best);
  }
  return c;
}

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

}  // namespace mif::rpc
