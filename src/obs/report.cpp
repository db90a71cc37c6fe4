#include "obs/report.hpp"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "core/pfs.hpp"
#include "redundancy/redundancy.hpp"

namespace mif::obs {

namespace {

/// Reports a harness misuse on stderr and exits with status 2, the one
/// status every bad invocation shares.
[[noreturn]] __attribute__((format(printf, 2, 3))) void usage_error(
    std::string_view bench_name, const char* fmt, ...) {
  std::fprintf(stderr, "%s: ", std::string(bench_name).c_str());
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
  std::exit(2);
}

// ---- the flag table: every harness flag, once, grouped by value type -----

struct Switch {
  std::string_view name;
  bool BenchFlags::*field;
};
struct Path {
  std::string_view name;
  std::string BenchFlags::*field;
};
struct Count {
  std::string_view name;
  u32 BenchFlags::*field;
  u32 min;
};

constexpr Switch kSwitches[] = {
    {"--quick", &BenchFlags::quick},
    {"--attribution", &BenchFlags::attribution},
};
constexpr Path kPaths[] = {
    {"--json", &BenchFlags::json},
    {"--trace", &BenchFlags::trace},
};
// An adaptive ceiling of 1 could never arm the controller (its window floor
// is 2): accepting it would make the run LOOK adaptive while it is not.
constexpr Count kCounts[] = {
    {"--pipeline-depth", &BenchFlags::pipeline_depth, 1},
    {"--adaptive-depth", &BenchFlags::adaptive_depth, 2},
    {"--mds-shards", &BenchFlags::mds_shards, 1},
    {"--list-io", &BenchFlags::list_io_runs, 1},
    {"--qos", &BenchFlags::qos_mbps, 1},
    {"--replicas", &BenchFlags::replicas, 1},
};
// Two flags with their own syntax.
constexpr std::string_view kTimeseries = "--timeseries";  // [=<interval_ms>]
constexpr std::string_view kKillOsd = "--kill-osd";       // <id>@<at_ms>

template <typename Entry, std::size_t N>
const Entry* find_flag(const Entry (&table)[N], std::string_view name) {
  for (const Entry& e : table) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

/// Strict integer parse into [min, max].  A lenient parse would let
/// `--pipeline-depth garbage` mean the default chain, and a cast would let
/// 4294967304 mean 8: an invocation that LOOKS configured but is not.
std::optional<u32> parse_u32(const std::string& v, u32 min) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE || n < min ||
      n > std::numeric_limits<u32>::max()) {
    return std::nullopt;
  }
  return static_cast<u32>(n);
}

u32 parse_count(std::string_view bench_name, const Count& flag,
                std::string_view value) {
  const std::string v(value);
  const std::optional<u32> n = parse_u32(v, flag.min);
  if (!n) {
    usage_error(bench_name, "bad %s '%s': expected an integer in [%u, %u]",
                std::string(flag.name).c_str(), v.c_str(), flag.min,
                std::numeric_limits<u32>::max());
  }
  return *n;
}

/// `--timeseries=<interval_ms>`: the sampling interval must pass
/// obs::validate, so `--timeseries=0` cannot mount a broken recorder.
void parse_interval(std::string_view bench_name, std::string_view value,
                    Config* cfg) {
  const std::string v(value);
  char* end = nullptr;
  cfg->sample_interval_ms = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') cfg->sample_interval_ms = 0.0;
  if (const std::string err = validate(*cfg); !err.empty()) {
    usage_error(bench_name, "bad --timeseries interval '%s': %s", v.c_str(),
                err.c_str());
  }
}

/// `--kill-osd <target>@<at_ms>`: a target id and a finite, non-negative
/// simulated millisecond timestamp (a kill at `inf` would never happen).
void parse_kill_spec(std::string_view bench_name, std::string_view value,
                     BenchFlags* flags) {
  const std::string v(value);
  const std::size_t at = v.find('@');
  std::optional<u32> target;
  double at_ms = -1.0;
  if (at != std::string::npos) {
    target = parse_u32(v.substr(0, at), 0);
    const std::string ms = v.substr(at + 1);
    char* end = nullptr;
    at_ms = std::strtod(ms.c_str(), &end);
    if (end == ms.c_str() || *end != '\0') at_ms = -1.0;
  }
  if (!target || !(at_ms >= 0.0 && std::isfinite(at_ms))) {
    usage_error(bench_name,
                "bad --kill-osd '%s': expected <target>@<at_ms> (e.g. 1@2.5)",
                v.c_str());
  }
  flags->kill_osd = true;
  flags->kill_target = *target;
  flags->kill_at_ms = at_ms;
}

}  // namespace

BenchReport::BenchReport(std::string_view bench_name, int argc, char** argv)
    : bench_(bench_name) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const bool inline_value = eq != std::string_view::npos;
    // `--flag=<v>`, or `--flag <v>` (consuming the next argument).  A value
    // that is itself a flag (`--json --quick`) counts as missing rather than
    // being swallowed.
    const auto value = [&]() -> std::string_view {
      std::string_view v;
      if (inline_value) {
        v = arg.substr(eq + 1);
      } else if (i + 1 < argc) {
        v = argv[++i];
      }
      if (v.empty() || v.starts_with("--")) {
        usage_error(bench_name, "%s needs a value",
                    std::string(name).c_str());
      }
      return v;
    };
    if (const Switch* s = find_flag(kSwitches, name)) {
      if (inline_value) {
        usage_error(bench_name, "%s takes no value",
                    std::string(name).c_str());
      }
      flags_.*s->field = true;
    } else if (const Path* p = find_flag(kPaths, name)) {
      flags_.*p->field = value();
    } else if (const Count* c = find_flag(kCounts, name)) {
      flags_.*c->field = parse_count(bench_name, *c, value());
    } else if (name == kTimeseries) {
      flags_.timeseries = true;
      if (inline_value) {
        parse_interval(bench_name, arg.substr(eq + 1), &flags_.timeline);
      }
    } else if (name == kKillOsd) {
      parse_kill_spec(bench_name, value(), &flags_);
    } else {
      usage_error(bench_name, "unknown argument '%s'", argv[i]);
    }
  }
  if (flags_.kill_osd && flags_.replicas < 2) {
    // Killing a target on an unreplicated mount can only lose data: the
    // combination is a harness misuse, not a scenario.
    usage_error(bench_name,
                "--kill-osd requires --replicas >= 2 (an unreplicated mount "
                "cannot survive a target loss)");
  }
  doc_["schema_version"] = kReportSchemaVersion;
  doc_["bench"] = bench_name;
  doc_["runs"] = Json::Array{};
}

void BenchReport::overlay(core::ClusterConfig& cfg) const {
  if (flags_.pipeline_depth) cfg.rpc.pipeline_depth = flags_.pipeline_depth;
  if (flags_.adaptive_depth) {
    cfg.rpc.adaptive_depth_max = flags_.adaptive_depth;
  }
  if (flags_.mds_shards) cfg.mds.shards = flags_.mds_shards;
  if (flags_.list_io_runs) cfg.list_io_max_runs = flags_.list_io_runs;
}

void BenchReport::describe(Json& config) const {
  if (flags_.pipeline_depth >= 2) {
    config["pipeline_depth"] = flags_.pipeline_depth;
  }
  if (flags_.adaptive_depth) config["adaptive_depth"] = flags_.adaptive_depth;
  if (flags_.mds_shards >= 2) config["mds_shards"] = flags_.mds_shards;
  if (flags_.list_io_runs) config["list_io_runs"] = flags_.list_io_runs;
}

void BenchReport::check_redundancy(u32 num_targets) const {
  if (flags_.replicas == 0) return;
  redundancy::Policy policy;
  policy.replicas = flags_.replicas;
  if (const std::string err = redundancy::validate(policy, num_targets);
      !err.empty()) {
    usage_error(bench_, "bad --replicas %u: %s", flags_.replicas,
                err.c_str());
  }
  if (flags_.kill_osd && flags_.kill_target >= num_targets) {
    usage_error(bench_, "bad --kill-osd target %u: the mount has %u targets",
                flags_.kill_target, num_targets);
  }
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
  if (flags_.json.empty()) return true;
  std::FILE* f = std::fopen(flags_.json.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    const std::string text = doc_.dump(2);
    ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
         std::fputc('\n', f) != EOF;
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "obs: cannot write JSON report to %s\n",
                 flags_.json.c_str());
    return false;
  }
  std::fprintf(stderr, "obs: JSON report written to %s\n",
               flags_.json.c_str());
  return true;
}

}  // namespace mif::obs
