// Unit tests for the observability layer: metrics registry registration and
// lookup, histogram quantiles, JSON round-trip, trace-ring wraparound and
// per-stream filtering, the publish() mapping of subsystem stats, and the
// bench harness's flag table with its ClusterConfig overlay.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "core/pfs.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace mif::obs {
namespace {

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  Counter& a = reg.counter("alloc.ondemand.layout_miss");
  Counter& b = reg.counter("alloc.ondemand.layout_miss");
  EXPECT_EQ(&a, &b);  // same object: cached references stay live
  a.inc(3);
  b.inc(2);
  EXPECT_EQ(reg.counter_value("alloc.ondemand.layout_miss"), 5u);
}

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  EXPECT_EQ(reg.find_stat("nope"), nullptr);
  EXPECT_EQ(reg.counter_value("nope"), 0u);
  EXPECT_TRUE(reg.names().empty());
}

TEST(MetricsRegistry, NamesSortedAcrossKinds) {
  MetricsRegistry reg;
  reg.stat("z.stat");
  reg.counter("b.counter");
  reg.gauge("a.gauge");
  reg.histogram("m.histo");
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "a.gauge");
  EXPECT_EQ(names[1], "b.counter");
  EXPECT_EQ(names[2], "m.histo");
  EXPECT_EQ(names[3], "z.stat");
}

TEST(MetricsRegistry, HistogramQuantilesThroughRegistry) {
  MetricsRegistry reg;
  Histo& h = reg.histogram("alloc.extents_per_file");
  for (u64 v = 1; v <= 1000; ++v) h.add(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_LE(h.quantile(0.5), h.quantile(0.99));
  // p99 of 1..1000 lives in the top log2 bucket ([512, 1024)).
  EXPECT_GE(h.quantile(0.99), 512u);
}

TEST(MetricsRegistry, StatAndGauge) {
  MetricsRegistry reg;
  reg.gauge("osd.0.space.utilisation").set(0.75);
  Stat& s = reg.stat("sim.disk.position_ms");
  s.add(2.0);
  s.add(6.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("osd.0.space.utilisation")->value(), 0.75);
  EXPECT_DOUBLE_EQ(s.snapshot().mean(), 4.0);
}

TEST(MetricsRegistry, ResetZeroesButKeepsReferences) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Histo& h = reg.histogram("h");
  Stat& s = reg.stat("s");
  c.inc(7);
  h.add(9);
  s.add(1.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(s.snapshot().empty());
  c.inc();  // the pinned object is still the registered one
  EXPECT_EQ(reg.counter_value("c"), 1u);
}

TEST(MetricsRegistry, JsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter("alloc.ondemand.layout_miss").inc(42);
  reg.counter("mds.rpcs").inc(7);
  reg.gauge("osd.0.space.free_blocks").set(1024.0);
  Histo& h = reg.histogram("alloc.extents_per_file");
  for (u64 v : {1u, 2u, 4u, 200u}) h.add(v);
  Stat& s = reg.stat("sim.disk.position_ms");
  s.add(3.5);

  const std::string text = reg.to_json().dump(2);
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("counters").at("alloc.ondemand.layout_miss").as_u64(),
            42u);
  EXPECT_EQ(parsed->at("counters").at("mds.rpcs").as_u64(), 7u);
  EXPECT_DOUBLE_EQ(
      parsed->at("gauges").at("osd.0.space.free_blocks").as_double(), 1024.0);
  const Json& histo = parsed->at("histograms").at("alloc.extents_per_file");
  EXPECT_EQ(histo.at("count").as_u64(), 4u);
  EXPECT_TRUE(histo.at("buckets").is_array());
  const Json& stat = parsed->at("stats").at("sim.disk.position_ms");
  EXPECT_EQ(stat.at("count").as_u64(), 1u);
  EXPECT_DOUBLE_EQ(stat.at("mean").as_double(), 3.5);
}

TEST(MetricsRegistry, TextExportOneLinePerMetric) {
  MetricsRegistry reg;
  reg.counter("b").inc(2);
  reg.gauge("a").set(1.0);
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("a = "), std::string::npos);
  EXPECT_NE(text.find("b = 2"), std::string::npos);
  // Sorted: gauge "a" precedes counter "b".
  EXPECT_LT(text.find("a = "), text.find("b = 2"));
}

// --- Json -------------------------------------------------------------------

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("{\"a\": }").has_value());
  EXPECT_FALSE(Json::parse("[1, 2,]").has_value());
  EXPECT_FALSE(Json::parse("{} trailing").has_value());
}

TEST(Json, DumpParseRoundTripPreservesStructure) {
  Json doc;
  doc["int"] = u64{18446744073709551615ull};  // max u64 survives
  doc["neg"] = i64{-42};
  doc["str"] = "with \"quotes\" and \\ and \n";
  doc["null"] = nullptr;
  doc["flag"] = true;
  Json::Array arr;
  arr.emplace_back(1);
  arr.emplace_back(2.5);
  doc["arr"] = arr;
  for (int indent : {-1, 2}) {
    const auto back = Json::parse(doc.dump(indent));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == doc);
  }
}

TEST(Json, AtOnMissingKeyReturnsNull) {
  Json doc;
  doc["a"] = 1;
  EXPECT_TRUE(doc.at("missing").is_null());
  EXPECT_FALSE(doc.contains("missing"));
  EXPECT_TRUE(doc.contains("a"));
}

// --- TraceBuffer ------------------------------------------------------------

TEST(TraceBuffer, RecordsInOrder) {
  TraceBuffer t(16);
  t.record(TraceEventType::kLayoutMiss, InodeNo{1}, StreamId{1, 0}, 0, 1);
  t.record(TraceEventType::kPreAllocLayout, InodeNo{1}, StreamId{1, 0}, 2, 4);
  t.record(TraceEventType::kJournalCommit, 3, 0);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].type, TraceEventType::kLayoutMiss);
  EXPECT_EQ(evs[1].type, TraceEventType::kPreAllocLayout);
  EXPECT_EQ(evs[1].arg0, 2u);
  EXPECT_EQ(evs[1].arg1, 4u);
  EXPECT_EQ(evs[2].inode, 0u);  // subsystem event: not file-scoped
  EXPECT_LT(evs[0].seq, evs[1].seq);
  EXPECT_LT(evs[1].seq, evs[2].seq);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TraceBuffer, RingWrapsAndKeepsNewest) {
  TraceBuffer t(4);
  for (u64 i = 0; i < 10; ++i)
    t.record(TraceEventType::kLazyFree, InodeNo{1}, StreamId{1, 0}, i);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.capacity(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  // Chronological tail: args 6..9, seq still globally increasing.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[i].arg0, 6u + i);
    EXPECT_EQ(evs[i].seq, 6u + i);
  }
}

TEST(TraceBuffer, RecordSideFilterRejectsOtherStreams) {
  TraceBuffer t(16);
  t.set_filter(InodeNo{1}, StreamId{2, 0});
  t.record(TraceEventType::kLayoutMiss, InodeNo{1}, StreamId{2, 0});
  t.record(TraceEventType::kLayoutMiss, InodeNo{1}, StreamId{3, 0});  // other
  t.record(TraceEventType::kLayoutMiss, InodeNo{9}, StreamId{2, 0});  // other
  t.record(TraceEventType::kJournalCommit, 1, 0);  // not stream-scoped
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.filtered(), 3u);
  t.clear_filter();
  t.record(TraceEventType::kLayoutMiss, InodeNo{9}, StreamId{2, 0});
  EXPECT_EQ(t.size(), 2u);
}

TEST(TraceBuffer, ReadSideFilterSelectsOneStream) {
  TraceBuffer t(16);
  for (u32 s = 0; s < 3; ++s)
    for (u64 i = 0; i < 2; ++i)
      t.record(TraceEventType::kLayoutMiss, InodeNo{1}, StreamId{s, 0}, i);
  const auto one = t.events(InodeNo{1}, StreamId{1, 0});
  ASSERT_EQ(one.size(), 2u);
  for (const auto& ev : one)
    EXPECT_EQ(ev.stream, (StreamId{1, 0}).key());
  EXPECT_TRUE(t.events(InodeNo{2}, StreamId{1, 0}).empty());
}

TEST(TraceBuffer, DumpNamesEveryEventType) {
  TraceBuffer t(16);
  t.record(TraceEventType::kLayoutMiss, InodeNo{1}, StreamId{1, 0}, 0, 1);
  t.record(TraceEventType::kStreamDemote, InodeNo{1}, StreamId{1, 0}, 4, 8);
  t.record(TraceEventType::kCacheEvict, 77, 1);
  const std::string text = t.dump();
  EXPECT_NE(text.find("layout_miss"), std::string::npos);
  EXPECT_NE(text.find("stream_demote"), std::string::npos);
  EXPECT_NE(text.find("cache_evict"), std::string::npos);
}

TEST(TraceBuffer, JsonExportRoundTrips) {
  TraceBuffer t(8);
  t.record(TraceEventType::kPreAllocLayout, InodeNo{5}, StreamId{2, 0}, 2, 4);
  const auto parsed = Json::parse(t.to_json().dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("capacity").as_u64(), 8u);
  const auto& evs = parsed->at("events").as_array();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].at("type").as_string(), "pre_alloc_layout");
  EXPECT_EQ(evs[0].at("inode").as_u64(), 5u);
  EXPECT_EQ(evs[0].at("arg1").as_u64(), 4u);
}

TEST(TraceBuffer, ClearDropsRecordsKeepsCapacity) {
  TraceBuffer t(4);
  for (int i = 0; i < 6; ++i) t.record(TraceEventType::kLazyFree, 1, 0);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.capacity(), 4u);
  t.record(TraceEventType::kLazyFree, 9, 0);
  EXPECT_EQ(t.events().back().arg0, 9u);
}

// --- publish() mapping ------------------------------------------------------

TEST(Publish, AllocatorStatsKeysMatchTheAlgorithm) {
  MetricsRegistry reg;
  alloc::AllocatorStats s;
  s.layout_misses = 11;
  s.prealloc_promotions = 22;
  s.released_blocks = 33;
  s.reserved_blocks = 44;
  publish(reg, "alloc.ondemand", s);
  EXPECT_EQ(reg.counter_value("alloc.ondemand.layout_miss"), 11u);
  EXPECT_EQ(reg.counter_value("alloc.ondemand.pre_alloc_layout"), 22u);
  EXPECT_EQ(reg.counter_value("alloc.ondemand.released_blocks"), 33u);
  EXPECT_DOUBLE_EQ(reg.find_gauge("alloc.ondemand.reserved_blocks")->value(),
                   44.0);
}

TEST(Publish, RepublishUnderSamePrefixAccumulates) {
  // Per-target stats published under one shared prefix sum up — that is how
  // the cluster aggregates are built.
  MetricsRegistry reg;
  block::CacheStats s;
  s.hits = 10;
  s.misses = 2;
  publish(reg, "cache", s);
  publish(reg, "cache", s);
  EXPECT_EQ(reg.counter_value("cache.hits"), 20u);
  EXPECT_EQ(reg.counter_value("cache.misses"), 4u);
}

TEST(Publish, MetricKeyIsDotSafe) {
  // to_string(kOnDemand) is "on-demand" — unusable inside a dotted key.
  EXPECT_EQ(metric_key(alloc::AllocatorMode::kOnDemand), "ondemand");
  EXPECT_EQ(join_key("alloc", metric_key(alloc::AllocatorMode::kOnDemand)),
            "alloc.ondemand");
}

// --- BenchReport ------------------------------------------------------------

TEST(BenchReport, ParsesArgsAndWritesSchema) {
  const char* path = "obs_test_report.json";
  const char* argv[] = {"bench", "--quick", "--json", path};
  BenchReport report("unit_bench", 4, const_cast<char**>(argv));
  EXPECT_TRUE(report.quick());
  ASSERT_TRUE(report.json_enabled());

  Json config;
  config["streams"] = 8;
  Json results;
  results["mbps"] = 123.5;
  report.add_run("streams=8", std::move(config), std::move(results));
  ASSERT_TRUE(report.write());

  FILE* f = std::fopen(path, "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path);

  const auto doc = Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("schema_version").as_u64(), kReportSchemaVersion);
  EXPECT_EQ(doc->at("bench").as_string(), "unit_bench");
  const auto& runs = doc->at("runs").as_array();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].at("name").as_string(), "streams=8");
  EXPECT_EQ(runs[0].at("config").at("streams").as_u64(), 8u);
  EXPECT_DOUBLE_EQ(runs[0].at("results").at("mbps").as_double(), 123.5);
}

TEST(BenchReport, EqualsFormAndDisabledWrite) {
  const char* argv[] = {"bench", "--json=eq_form.json"};
  BenchReport r("b", 2, const_cast<char**>(argv));
  EXPECT_TRUE(r.json_enabled());
  EXPECT_FALSE(r.quick());

  BenchReport off("b", 0, nullptr);
  EXPECT_FALSE(off.json_enabled());
  EXPECT_TRUE(off.write());  // disabled: a no-op, not an error
  std::remove("eq_form.json");
}

/// A BenchReport parsed from `args` (argv[0] is supplied).
BenchReport report_from(std::vector<std::string> args) {
  std::vector<char*> argv{const_cast<char*>("bench")};
  for (std::string& a : args) argv.push_back(a.data());
  return BenchReport("bench", static_cast<int>(argv.size()), argv.data());
}

TEST(BenchFlags, EveryFlagInBothSpellingsSetsItsField) {
  for (const bool equals : {false, true}) {
    SCOPED_TRACE(equals ? "--flag=<v>" : "--flag <v>");
    std::vector<std::string> args{"--quick", "--attribution",
                                  "--timeseries=25"};
    const auto value_flag = [&](const std::string& flag,
                                const std::string& value) {
      if (equals) {
        args.push_back(flag + "=" + value);
      } else {
        args.push_back(flag);
        args.push_back(value);
      }
    };
    value_flag("--json", "r.json");
    value_flag("--trace", "t.json");
    value_flag("--pipeline-depth", "3");
    value_flag("--adaptive-depth", "4");
    value_flag("--mds-shards", "5");
    value_flag("--list-io", "6");
    value_flag("--qos", "7");
    value_flag("--replicas", "2");
    value_flag("--kill-osd", "1@2.5");
    const BenchReport report = report_from(args);
    const BenchFlags& f = report.flags();
    EXPECT_TRUE(f.quick);
    EXPECT_TRUE(report.quick());
    EXPECT_TRUE(f.attribution);
    EXPECT_EQ(f.json, "r.json");
    EXPECT_TRUE(report.json_enabled());
    EXPECT_EQ(f.trace, "t.json");
    EXPECT_EQ(f.pipeline_depth, 3u);
    EXPECT_EQ(f.adaptive_depth, 4u);
    EXPECT_EQ(f.mds_shards, 5u);
    EXPECT_EQ(f.list_io_runs, 6u);
    EXPECT_EQ(f.qos_mbps, 7u);
    EXPECT_EQ(f.replicas, 2u);
    EXPECT_TRUE(f.kill_osd);
    EXPECT_EQ(f.kill_target, 1u);
    EXPECT_DOUBLE_EQ(f.kill_at_ms, 2.5);
    EXPECT_TRUE(f.timeseries);
    EXPECT_DOUBLE_EQ(f.timeline.sample_interval_ms, 25.0);
  }
  // The bare --timeseries keeps the default sampling interval; the largest
  // u32 is still a count.
  const BenchReport bare =
      report_from({"--timeseries", "--qos", "4294967295"});
  EXPECT_TRUE(bare.flags().timeseries);
  EXPECT_DOUBLE_EQ(bare.flags().timeline.sample_interval_ms,
                   Config{}.sample_interval_ms);
  EXPECT_EQ(bare.flags().qos_mbps, 4294967295u);
}

/// The overlay's four fields, then neighbours it must leave alone.
auto mount_fields(const core::ClusterConfig& c) {
  return std::tuple{c.rpc.pipeline_depth,   c.rpc.adaptive_depth_max,
                    c.mds.shards,           c.list_io_max_runs,
                    c.num_targets,          c.mds.placement,
                    c.redundancy.replicas,  c.rpc.inject_faults,
                    c.rpc.qos.enabled,      c.rpc.kind,
                    c.client_readahead_max_blocks};
}

TEST(BenchReport, OverlaySetsExactlyTheFourMountFields) {
  const core::ClusterConfig defaults;
  core::ClusterConfig cfg;
  report_from({"--quick", "--replicas", "2", "--qos", "3"}).overlay(cfg);
  EXPECT_EQ(mount_fields(cfg), mount_fields(defaults));

  report_from({"--pipeline-depth", "3", "--adaptive-depth", "4",
               "--mds-shards", "5", "--list-io", "6", "--replicas", "2",
               "--kill-osd", "1@2"})
      .overlay(cfg);
  auto want = mount_fields(defaults);
  std::get<0>(want) = 3;
  std::get<1>(want) = 4;
  std::get<2>(want) = 5;
  std::get<3>(want) = 6;
  EXPECT_EQ(mount_fields(cfg), want);
}

TEST(BenchReport, DescribeRecordsOnlyNonDefaultMounts) {
  Json config;
  config["streams"] = 8;
  report_from({"--pipeline-depth", "1", "--mds-shards", "1"})
      .describe(config);
  EXPECT_EQ(config.as_object().size(), 1u);

  report_from({"--pipeline-depth", "2", "--adaptive-depth", "4",
               "--mds-shards", "2", "--list-io", "6"})
      .describe(config);
  EXPECT_EQ(config.as_object().size(), 5u);
  EXPECT_EQ(config.at("pipeline_depth").as_u64(), 2u);
  EXPECT_EQ(config.at("adaptive_depth").as_u64(), 4u);
  EXPECT_EQ(config.at("mds_shards").as_u64(), 2u);
  EXPECT_EQ(config.at("list_io_runs").as_u64(), 6u);
}

TEST(BenchReportDeathTest, MisuseExitsWithStatusTwo) {
  using ::testing::ExitedWithCode;
  EXPECT_EXIT(report_from({"--pipline-depth", "8"}), ExitedWithCode(2),
              "unknown argument '--pipline-depth'");
  EXPECT_EXIT(report_from({"stray"}), ExitedWithCode(2),
              "unknown argument 'stray'");
  EXPECT_EXIT(report_from({"--quick=1"}), ExitedWithCode(2),
              "--quick takes no value");
  EXPECT_EXIT(report_from({"--pipeline-depth", "4294967296"}),
              ExitedWithCode(2), "bad --pipeline-depth '4294967296'");
  EXPECT_EXIT(report_from({"--replicas=0"}), ExitedWithCode(2),
              "bad --replicas '0'");
  EXPECT_EXIT(report_from({"--json"}), ExitedWithCode(2),
              "--json needs a value");
  EXPECT_EXIT(report_from({"--adaptive-depth", "1"}), ExitedWithCode(2),
              "bad --adaptive-depth '1'");
  EXPECT_EXIT(report_from({"--kill-osd", "1@2"}), ExitedWithCode(2),
              "--kill-osd requires --replicas >= 2");
  EXPECT_EXIT(report_from({"--replicas", "2", "--kill-osd", "1@"}),
              ExitedWithCode(2), "bad --kill-osd '1@'");
  // Non-finite times: a recorder that never samples, a kill that never fires.
  EXPECT_EXIT(report_from({"--timeseries=inf"}), ExitedWithCode(2),
              "bad --timeseries interval 'inf'");
  EXPECT_EXIT(report_from({"--replicas", "2", "--kill-osd", "1@inf"}),
              ExitedWithCode(2), "bad --kill-osd '1@inf'");
  EXPECT_EXIT(report_from({"--replicas", "2", "--kill-osd=1@1e999"}),
              ExitedWithCode(2), "bad --kill-osd '1@1e999'");
}

TEST(BenchReportDeathTest, CheckRedundancyBoundsTheMount) {
  using ::testing::ExitedWithCode;
  report_from({}).check_redundancy(4);  // unreplicated: nothing to check
  const BenchReport kill =
      report_from({"--replicas", "2", "--kill-osd", "3@1"});
  kill.check_redundancy(4);  // target 3 of 4: in range
  EXPECT_EXIT(kill.check_redundancy(3), ExitedWithCode(2),
              "bad --kill-osd target 3: the mount has 3 targets");
  EXPECT_EXIT(report_from({"--replicas", "5"}).check_redundancy(4),
              ExitedWithCode(2), "bad --replicas 5");
}

}  // namespace
}  // namespace mif::obs
