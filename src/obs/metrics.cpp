#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>

namespace mif::obs {

void Histo::merge_from(const Histogram& other) {
  std::lock_guard lock(mu_);
  h_.merge(other);
}

namespace {

template <typename Map, typename... Args>
auto& get_or_create(std::mutex& mu, Map& map, std::string_view name,
                    Args&&... args) {
  std::lock_guard lock(mu);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>(
                         std::forward<Args>(args)...))
             .first;
  }
  return *it->second;
}

template <typename Map>
auto* find_in(std::mutex& mu, const Map& map, std::string_view name) {
  std::lock_guard lock(mu);
  auto it = map.find(name);
  return it == map.end() ? nullptr : it->second.get();
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return get_or_create(mu_, counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return get_or_create(mu_, gauges_, name);
}

Histo& MetricsRegistry::histogram(std::string_view name, std::size_t buckets) {
  return get_or_create(mu_, histograms_, name, buckets);
}

Stat& MetricsRegistry::stat(std::string_view name) {
  return get_or_create(mu_, stats_, name);
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  return find_in(mu_, counters_, name);
}
const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  return find_in(mu_, gauges_, name);
}
const Histo* MetricsRegistry::find_histogram(std::string_view name) const {
  return find_in(mu_, histograms_, name);
}
const Stat* MetricsRegistry::find_stat(std::string_view name) const {
  return find_in(mu_, stats_, name);
}

u64 MetricsRegistry::counter_value(std::string_view name) const {
  const Counter* c = find_counter(name);
  return c ? c->value() : 0;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size() +
              stats_.size());
  for (const auto& [k, v] : counters_) out.push_back(k);
  for (const auto& [k, v] : gauges_) out.push_back(k);
  for (const auto& [k, v] : histograms_) out.push_back(k);
  for (const auto& [k, v] : stats_) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [k, c] : counters_) c->set(0);
  for (auto& [k, g] : gauges_) g->set(0.0);
  for (auto& [k, h] : histograms_) h->reset();
  for (auto& [k, s] : stats_) s->reset();
}

Json MetricsRegistry::to_json() const {
  std::lock_guard lock(mu_);
  Json doc;
  Json& counters = doc["counters"];
  counters = Json::Object{};
  for (const auto& [name, c] : counters_) counters[name] = c->value();
  Json& gauges = doc["gauges"];
  gauges = Json::Object{};
  for (const auto& [name, g] : gauges_) gauges[name] = g->value();
  Json& histograms = doc["histograms"];
  histograms = Json::Object{};
  for (const auto& [name, h] : histograms_) {
    const Histogram snap = h->snapshot();
    Json entry;
    entry["count"] = snap.count();
    for (const QuantileSpec& qs : kQuantiles)
      entry[qs.key] = snap.quantile(qs.q);
    if (h->tail_quantiles()) {
      for (const QuantileSpec& qs : kTailQuantiles)
        entry[qs.key] = snap.quantile(qs.q);
    }
    Json::Array buckets;
    for (std::size_t i = 0; i < snap.buckets(); ++i) {
      if (snap.bucket(i) == 0) continue;
      Json::Array pair;
      pair.emplace_back(u64{i});
      pair.emplace_back(snap.bucket(i));
      buckets.emplace_back(std::move(pair));
    }
    entry["buckets"] = std::move(buckets);
    histograms[name] = std::move(entry);
  }
  Json& stats = doc["stats"];
  stats = Json::Object{};
  for (const auto& [name, s] : stats_) {
    const RunningStats snap = s->snapshot();
    Json entry;
    entry["count"] = u64{snap.count()};
    entry["mean"] = snap.mean();
    entry["min"] = snap.min();
    entry["max"] = snap.max();
    entry["stddev"] = snap.stddev();
    entry["sum"] = snap.sum();
    stats[name] = std::move(entry);
  }
  return doc;
}

std::string MetricsRegistry::to_text() const {
  std::lock_guard lock(mu_);
  std::vector<std::pair<std::string, std::string>> lines;
  auto line = [&](const std::string& name, std::string text) {
    lines.emplace_back(name, std::move(text));
  };
  for (const auto& [name, c] : counters_) {
    std::ostringstream os;
    os << name << " = " << c->value();
    line(name, os.str());
  }
  for (const auto& [name, g] : gauges_) {
    std::ostringstream os;
    os << name << " = " << g->value();
    line(name, os.str());
  }
  for (const auto& [name, h] : histograms_) {
    const Histogram snap = h->snapshot();
    std::ostringstream os;
    os << name << " (n=" << snap.count() << ")";
    for (const QuantileSpec& qs : kQuantiles)
      os << " " << qs.key << "=" << snap.quantile(qs.q);
    if (h->tail_quantiles()) {
      for (const QuantileSpec& qs : kTailQuantiles)
        os << " " << qs.key << "=" << snap.quantile(qs.q);
    }
    line(name, os.str());
  }
  for (const auto& [name, s] : stats_) {
    const RunningStats snap = s->snapshot();
    std::ostringstream os;
    os << name << " (n=" << snap.count() << ") mean=" << snap.mean()
       << " min=" << snap.min() << " max=" << snap.max();
    line(name, os.str());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& [name, text] : lines) {
    out += text;
    out += '\n';
  }
  return out;
}

}  // namespace mif::obs
