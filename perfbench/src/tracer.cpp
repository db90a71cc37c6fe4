#include <string_view>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

namespace {

/// The src/ module a span phase belongs to.  Library phases keep their own
/// prefixes; the benchmark's wrapper spans use the layer they call into.
std::string_view layer_of(std::string_view name) {
  if (name == "rpc.shard") return "shard";
  if (name == "collective.exchange") return "client.collective";
  if (name == "osd.stripe_unit") return "osd.stripe_unit";
  if (name.starts_with("journal.")) return "mfs.journal";
  if (name.starts_with("repair.")) return "redundancy";
  const std::size_t dot = name.find('.');
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

}  // namespace

Tracer::Tracer() {
  mif::obs::Config cfg;
  cfg.span_capacity = kRing;
  spans_ = std::make_unique<mif::obs::SpanCollector>(cfg);
}

void Tracer::drain() {
  const auto t0 = Clock::now();
  const std::vector<mif::obs::SpanRecord> recs = spans_->spans();
  dropped_ += spans_->dropped();
  spans_->clear();
  // Self time = own duration minus the host-clock children's durations.
  // Simulated-clock records (disk.*, io.queue_wait) are leaves on another
  // timeline and never subtract from host time.
  std::unordered_map<u64, std::size_t> by_id;
  by_id.reserve(recs.size());
  std::vector<double> self(recs.size(), 0.0);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].clock != mif::obs::SpanClock::kHost) continue;
    by_id.emplace(recs[i].span_id, i);
    self[i] = recs[i].dur_us;
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const mif::obs::SpanRecord& r = recs[i];
    if (r.clock != mif::obs::SpanClock::kHost) continue;
    const auto parent = r.parent_id ? by_id.find(r.parent_id) : by_id.end();
    if (parent != by_id.end()) {
      self[parent->second] -= r.dur_us;
    } else {
      totals_.covered_us += r.dur_us;
    }
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].clock != mif::obs::SpanClock::kHost) continue;
    const std::string layer(layer_of(recs[i].name));
    totals_.self_us[layer] += self[i];
    ++totals_.spans[layer];
  }
  fold_s_ += seconds_since(t0);
}

void Tracer::reset() {
  spans_->clear();
  totals_ = {};
  dropped_ = 0;
  fold_s_ = 0.0;
}

}  // namespace perfbench
