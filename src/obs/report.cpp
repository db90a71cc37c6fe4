#include "obs/report.hpp"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

namespace mif::obs {

namespace {

/// The value of a value-taking `flag` at argv[i], in either spelling:
/// `--flag <v>` (consumes the next argument) or `--flag=<v>`.  nullopt when
/// argv[i] is a different argument.  A missing value — the flag given last,
/// an empty `--flag=`, or a value that is itself a flag (`--json --quick`)
/// — fails fast with status 2 instead of silently dropping the flag or
/// swallowing the next one.
std::optional<std::string_view> flag_value(std::string_view bench_name,
                                           std::string_view flag, int argc,
                                           char** argv, int& i) {
  const std::string_view arg = argv[i];
  std::string_view value;
  if (arg == flag) {
    if (i + 1 < argc) value = argv[++i];
  } else if (arg.size() > flag.size() && arg.starts_with(flag) &&
             arg[flag.size()] == '=') {
    value = arg.substr(flag.size() + 1);
  } else {
    return std::nullopt;
  }
  if (value.empty() || value.starts_with("--")) {
    std::fprintf(stderr, "%s: %s needs a value\n",
                 std::string(bench_name).c_str(), std::string(flag).c_str());
    std::exit(2);
  }
  return value;
}

/// Strict positive-integer parse for count-valued flags.  atoi-style
/// leniency let `--pipeline-depth garbage` silently mean depth 0 (i.e. the
/// default chain) — a bench invocation that LOOKS configured but is not.
/// Mirrors the --timeseries treatment: bad values fail fast with status 2.
u32 parse_count_flag(std::string_view bench_name, std::string_view flag,
                     std::string_view value) {
  const std::string v(value);
  char* end = nullptr;
  const long n = std::strtol(v.c_str(), &end, 10);
  if (end == v.c_str() || (end && *end != '\0') || n <= 0) {
    std::fprintf(stderr,
                 "%s: bad %s '%s': expected a positive integer\n",
                 std::string(bench_name).c_str(), std::string(flag).c_str(),
                 v.c_str());
    std::exit(2);
  }
  return static_cast<u32>(n);
}

/// Parse a `--kill-osd` spec: `<target>@<at_ms>` with a non-negative
/// simulated millisecond timestamp.  Anything else fails fast with status 2.
void parse_kill_spec(std::string_view bench_name, std::string_view value,
                     u32* target, double* at_ms) {
  const std::string v(value);
  const std::size_t at = v.find('@');
  bool ok = at != std::string::npos && at > 0 && at + 1 < v.size();
  if (ok) {
    char* end = nullptr;
    const std::string id = v.substr(0, at);
    const long t = std::strtol(id.c_str(), &end, 10);
    ok = end != id.c_str() && *end == '\0' && t >= 0;
    if (ok) *target = static_cast<u32>(t);
    const std::string ms = v.substr(at + 1);
    end = nullptr;
    const double m = std::strtod(ms.c_str(), &end);
    ok = ok && end != ms.c_str() && *end == '\0' && m >= 0.0;
    if (ok) *at_ms = m;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "%s: bad --kill-osd '%s': expected <target>@<at_ms> (e.g. "
                 "1@2.5)\n",
                 std::string(bench_name).c_str(), v.c_str());
    std::exit(2);
  }
}

}  // namespace

BenchReport::BenchReport(std::string_view bench_name, int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view flag) {
      return flag_value(bench_name, flag, argc, argv, i);
    };
    const auto count = [&](std::string_view flag, std::string_view v) {
      return parse_count_flag(bench_name, flag, v);
    };
    std::optional<std::string_view> v;
    if ((v = value("--json"))) {
      path_ = *v;
    } else if ((v = value("--trace"))) {
      trace_path_ = *v;
    } else if (arg == "--quick") {
      quick_ = true;
    } else if (arg == "--timeseries") {
      timeseries_ = true;
    } else if (arg.rfind("--timeseries=", 0) == 0) {
      timeseries_ = true;
      const std::string interval(arg.substr(13));
      char* end = nullptr;
      timeline_cfg_.sample_interval_ms = std::strtod(interval.c_str(), &end);
      if (end == interval.c_str() || (end && *end != '\0'))
        timeline_cfg_.sample_interval_ms = 0.0;  // force validate() to fail
      if (const std::string err = validate(timeline_cfg_); !err.empty()) {
        std::fprintf(stderr, "%s: bad --timeseries interval '%s': %s\n",
                     std::string(bench_name).c_str(), interval.c_str(),
                     err.c_str());
        std::exit(2);
      }
    } else if ((v = value("--pipeline-depth"))) {
      pipeline_depth_ = count("--pipeline-depth", *v);
    } else if ((v = value("--mds-shards"))) {
      mds_shards_ = count("--mds-shards", *v);
    } else if ((v = value("--collective-aggregators"))) {
      collective_aggregators_ = count("--collective-aggregators", *v);
    } else if ((v = value("--list-io"))) {
      list_io_runs_ = count("--list-io", *v);
    } else if ((v = value("--qos"))) {
      qos_mbps_ = count("--qos", *v);
    } else if ((v = value("--adaptive-depth"))) {
      adaptive_depth_ = count("--adaptive-depth", *v);
    } else if ((v = value("--replicas"))) {
      replicas_ = count("--replicas", *v);
    } else if ((v = value("--kill-osd"))) {
      kill_armed_ = true;
      parse_kill_spec(bench_name, *v, &kill_target_, &kill_at_ms_);
    } else if (arg == "--attribution") {
      attribution_ = true;
    }
  }
  if (kill_armed_ && replicas_ < 2) {
    // Killing a target on an unreplicated mount can only lose data: the
    // combination is a harness misuse, not a scenario.
    std::fprintf(stderr,
                 "%s: --kill-osd requires --replicas >= 2 (an unreplicated "
                 "mount cannot survive a target loss)\n",
                 std::string(bench_name).c_str());
    std::exit(2);
  }
  if (adaptive_depth_ == 1) {
    // The adaptive window floor is 2: a ceiling of 1 can never arm the
    // controller and silently degenerating to the sync chain would make the
    // invocation LOOK adaptive while it is not.
    std::fprintf(stderr,
                 "%s: bad --adaptive-depth '1': the adaptive ceiling must be "
                 ">= 2\n",
                 std::string(bench_name).c_str());
    std::exit(2);
  }
  doc_["schema_version"] = kReportSchemaVersion;
  doc_["bench"] = bench_name;
  doc_["runs"] = Json::Array{};
}

void BenchReport::add_run(std::string_view name, Json config, Json results,
                          Json metrics, Json timeseries, Json attribution) {
  Json run;
  run["name"] = name;
  run["config"] = std::move(config);
  run["results"] = std::move(results);
  if (!metrics.is_null()) run["metrics"] = std::move(metrics);
  if (!timeseries.is_null()) run["timeseries"] = std::move(timeseries);
  if (!attribution.is_null()) run["attribution"] = std::move(attribution);
  doc_["runs"].as_array().push_back(std::move(run));
}

bool BenchReport::write() const {
  if (path_.empty()) return true;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    const std::string text = doc_.dump(2);
    ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
         std::fputc('\n', f) != EOF;
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "obs: cannot write JSON report to %s\n",
                 path_.c_str());
    return false;
  }
  std::fprintf(stderr, "obs: JSON report written to %s\n", path_.c_str());
  return true;
}

}  // namespace mif::obs
