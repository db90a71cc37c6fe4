#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/span.hpp"

namespace mif::obs {

Timeline::Timeline(Config cfg)
    : capacity_(cfg.timeline_capacity >= 2 ? cfg.timeline_capacity
                                           : Config{}.timeline_capacity),
      interval_ms_(cfg.sample_interval_ms > 0.0
                       ? cfg.sample_interval_ms
                       : Config{}.sample_interval_ms) {}

void Timeline::set_clock(std::function<double()> clock) {
  std::lock_guard lock(mu_);
  clock_ = std::move(clock);
}

void Timeline::set_label(std::string label) {
  std::lock_guard lock(mu_);
  label_ = std::move(label);
}

void Timeline::add_prepare(std::function<void()> fn) {
  std::lock_guard lock(mu_);
  prepare_.push_back(std::move(fn));
}

void Timeline::add_gauge(std::string name, GaugeProvider fn) {
  std::lock_guard lock(mu_);
  Series& s = series_[std::move(name)];
  s.fn = std::move(fn);
  // Late registration: pad with zeros so every series shares the time axis.
  s.values.resize(times_.size(), 0.0);
}

void Timeline::maybe_decimate_locked() {
  if (times_.size() < capacity_) return;
  // Keep even indices: the very first sample survives, and the caller
  // appends the new (newest) row right after, so both ends of the run stay
  // represented.  The interval doubles so future samples keep the new grid.
  auto decimate = [](std::vector<double>& v) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < v.size(); r += 2) v[w++] = v[r];
    v.resize(w);
  };
  decimate(times_);
  for (auto& [name, s] : series_) decimate(s.values);
  interval_ms_ *= 2.0;
  ++downsamples_;
}

void Timeline::sample_locked(double now, bool overwrite) {
  for (const auto& fn : prepare_) fn();
  if (overwrite && !times_.empty()) {
    times_.back() = std::max(times_.back(), now);
    for (auto& [name, s] : series_) {
      const double v = s.fn ? s.fn() : 0.0;
      s.values.back() = v;
      s.last = v;
      s.min = std::min(s.min, v);
      s.max = std::max(s.max, v);
    }
    return;
  }
  maybe_decimate_locked();
  times_.push_back(now);
  ++total_samples_;
  for (auto& [name, s] : series_) {
    const double v = s.fn ? s.fn() : 0.0;
    s.values.push_back(v);
    s.last = v;
    if (s.count == 0) {
      s.min = s.max = v;
    } else {
      s.min = std::min(s.min, v);
      s.max = std::max(s.max, v);
    }
    ++s.count;
  }
}

void Timeline::tick() {
  std::lock_guard lock(mu_);
  if (!clock_) return;
  const double now = clock_();
  if (!times_.empty() && now < next_due_) return;
  if (!times_.empty() && now <= times_.back()) return;
  sample_locked(now, /*overwrite=*/false);
  next_due_ = now + interval_ms_;
}

void Timeline::mark_epoch(std::string_view label) {
  std::lock_guard lock(mu_);
  if (!clock_) return;
  const double now = clock_();
  // Keep the shared time axis strictly increasing: a mark landing on (or
  // before) the previous sample's timestamp re-samples that row in place.
  const bool overwrite = !times_.empty() && now <= times_.back();
  sample_locked(now, overwrite);
  epochs_.emplace_back(overwrite ? times_.back() : now, std::string(label));
  next_due_ = std::max(next_due_, now + interval_ms_);
}

double Timeline::interval_ms() const {
  std::lock_guard lock(mu_);
  return interval_ms_;
}

std::size_t Timeline::sample_count() const {
  std::lock_guard lock(mu_);
  return times_.size();
}

u64 Timeline::total_samples() const {
  std::lock_guard lock(mu_);
  return total_samples_;
}

u64 Timeline::downsamples() const {
  std::lock_guard lock(mu_);
  return downsamples_;
}

std::vector<double> Timeline::times() const {
  std::lock_guard lock(mu_);
  return times_;
}

std::vector<double> Timeline::series(std::string_view name) const {
  std::lock_guard lock(mu_);
  auto it = series_.find(name);
  return it == series_.end() ? std::vector<double>{} : it->second.values;
}

double Timeline::last(std::string_view name) const {
  std::lock_guard lock(mu_);
  auto it = series_.find(name);
  return it == series_.end() ? 0.0 : it->second.last;
}

Json Timeline::to_json() const {
  std::lock_guard lock(mu_);
  Json doc;
  doc["interval_ms"] = interval_ms_;
  doc["total_samples"] = total_samples_;
  doc["downsamples"] = downsamples_;
  Json::Array epochs;
  for (const auto& [t, label] : epochs_) {
    Json e;
    e["label"] = label;
    e["t_ms"] = t;
    epochs.push_back(std::move(e));
  }
  doc["epochs"] = std::move(epochs);
  Json::Array times;
  times.reserve(times_.size());
  for (double t : times_) times.push_back(Json(t));
  doc["times_ms"] = std::move(times);
  Json& series = doc["series"];
  series = Json::Object{};
  for (const auto& [name, s] : series_) {
    Json entry;
    entry["min"] = s.min;
    entry["max"] = s.max;
    entry["last"] = s.last;
    entry["count"] = s.count;
    Json::Array values;
    values.reserve(s.values.size());
    for (double v : s.values) values.push_back(Json(v));
    entry["values"] = std::move(values);
    series[name] = std::move(entry);
  }
  return doc;
}

Json chrome_trace_json(const SpanCollector& c,
                       const std::vector<const Timeline*>& timelines) {
  Json doc = chrome_trace_json(c);
  Json::Array& events = doc["traceEvents"].as_array();
  u64 pid = 3;  // pids 1/2 are the host/sim span tracks
  for (const Timeline* tl : timelines) {
    if (!tl) continue;
    const Json snap = tl->to_json();
    {
      Json e;
      e["name"] = "process_name";
      e["ph"] = "M";
      e["pid"] = pid;
      e["tid"] = u64{0};
      Json args;
      args["name"] = tl->label().empty()
                         ? "mif timeline " + std::to_string(pid - 3)
                         : tl->label();
      e["args"] = std::move(args);
      events.push_back(std::move(e));
    }
    const Json::Array& times = snap.at("times_ms").as_array();
    for (const auto& [name, series] : snap.at("series").as_object()) {
      const Json::Array& values = series.at("values").as_array();
      for (std::size_t i = 0; i < times.size() && i < values.size(); ++i) {
        Json e;
        e["name"] = name;
        e["cat"] = "gauge";
        e["ph"] = "C";
        e["ts"] = times[i].as_double() * 1000.0;  // ms → µs
        e["pid"] = pid;
        e["tid"] = u64{0};
        Json args;
        args["value"] = values[i].as_double();
        e["args"] = std::move(args);
        events.push_back(std::move(e));
      }
    }
    for (const Json& epoch : snap.at("epochs").as_array()) {
      Json e;
      e["name"] = epoch.at("label").as_string();
      e["cat"] = "epoch";
      e["ph"] = "i";
      e["s"] = "p";  // process-scoped instant
      e["ts"] = epoch.at("t_ms").as_double() * 1000.0;
      e["pid"] = pid;
      e["tid"] = u64{0};
      events.push_back(std::move(e));
    }
    ++pid;
  }
  return doc;
}

bool write_chrome_trace(const SpanCollector& c,
                        const std::vector<const Timeline*>& timelines,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    const std::string text = chrome_trace_json(c, timelines).dump(1);
    ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
         std::fputc('\n', f) != EOF;
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "obs: cannot write chrome trace to %s\n",
                 path.c_str());
    return false;
  }
  std::fprintf(stderr, "obs: chrome trace written to %s\n", path.c_str());
  return true;
}

}  // namespace mif::obs
