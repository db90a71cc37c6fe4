// Tests for the end-to-end span tracer: nesting/causality, trace-id
// propagation through the full client → MDS → OSD → disk stack, slow-log
// retention, metrics export and the Chrome-trace JSON shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/pfs.hpp"
#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/span.hpp"

namespace mif::obs {
namespace {

/// Busy-wait so a span's host-clock duration is at least `us`.
void spin_us(const SpanCollector& c, double us) {
  const double until = c.now_us() + us;
  while (c.now_us() < until) {
  }
}

TEST(Span, NullCollectorIsNoOp) {
  ScopedSpan span(nullptr, "client.write", 1, 2);
  EXPECT_FALSE(span.context().valid());
  EXPECT_FALSE(span.root());
}

TEST(Span, RootOpensTraceChildInheritsIt) {
  SpanCollector c;
  u64 root_trace = 0, root_span = 0, child_span = 0;
  {
    ScopedSpan root(&c, "client.write");
    EXPECT_TRUE(root.root());
    EXPECT_TRUE(root.context().valid());
    root_trace = root.context().trace_id;
    root_span = root.context().span_id;
    {
      ScopedSpan child(&c, "osd.stripe_unit");
      EXPECT_FALSE(child.root());
      EXPECT_EQ(child.context().trace_id, root_trace);
      EXPECT_NE(child.context().span_id, root_span);
      child_span = child.context().span_id;
    }
  }
  const auto spans = c.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Children complete before their parent (LIFO scopes).
  EXPECT_EQ(spans[0].span_id, child_span);
  EXPECT_EQ(spans[0].parent_id, root_span);
  EXPECT_EQ(spans[1].span_id, root_span);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
}

TEST(Span, ChildDurationsSumWithinParent) {
  SpanCollector c;
  {
    ScopedSpan root(&c, "client.write");
    for (int i = 0; i < 3; ++i) {
      ScopedSpan child(&c, "osd.stripe_unit");
      spin_us(c, 50.0);
    }
  }
  const auto spans = c.spans();
  ASSERT_EQ(spans.size(), 4u);
  const SpanRecord& root = spans.back();
  EXPECT_EQ(root.parent_id, 0u);
  double child_sum = 0.0;
  for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
    EXPECT_EQ(spans[i].parent_id, root.span_id);
    // Causality: a child starts and ends inside its parent.
    EXPECT_GE(spans[i].start_us, root.start_us);
    EXPECT_LE(spans[i].start_us + spans[i].dur_us,
              root.start_us + root.dur_us + 1e-6);
    child_sum += spans[i].dur_us;
  }
  EXPECT_LE(child_sum, root.dur_us + 1e-6);
  EXPECT_GE(root.dur_us, 150.0);  // three 50 µs children
}

TEST(Span, AmbientReflectsInnermostOpenSpan) {
  SpanCollector c;
  EXPECT_FALSE(c.ambient().valid());
  {
    ScopedSpan root(&c, "client.read");
    EXPECT_EQ(c.ambient().span_id, root.context().span_id);
    {
      ScopedSpan child(&c, "osd.stripe_unit");
      EXPECT_EQ(c.ambient().span_id, child.context().span_id);
    }
    EXPECT_EQ(c.ambient().span_id, root.context().span_id);
  }
  EXPECT_FALSE(c.ambient().valid());
  // Two collectors on one thread never see each other's ambient context.
  SpanCollector other;
  ScopedSpan root(&c, "client.read");
  EXPECT_FALSE(other.ambient().valid());
}

TEST(Span, RecordSimUsesSimClockAndMillisecondInput) {
  SpanCollector c;
  c.record_sim("disk.seek", /*track=*/3, /*start_ms=*/1.5, /*dur_ms=*/0.25,
               SpanContext{}, /*arg0=*/7);
  const auto spans = c.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].clock, SpanClock::kSim);
  EXPECT_EQ(spans[0].track, 3u);
  EXPECT_DOUBLE_EQ(spans[0].start_us, 1500.0);
  EXPECT_DOUBLE_EQ(spans[0].dur_us, 250.0);
  EXPECT_EQ(spans[0].arg0, 7u);
}

TEST(Span, RingOverwritesOldestAndCountsDrops) {
  Config cfg;
  cfg.span_capacity = 4;
  SpanCollector c(cfg);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span(&c, "client.write", static_cast<u64>(i));
  }
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.capacity(), 4u);
  EXPECT_EQ(c.total_spans(), 10u);
  EXPECT_EQ(c.dropped(), 6u);
  // The survivors are the four newest, still in completion order.
  const auto spans = c.spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(spans[i].arg0, 6 + i);
}

// The critical-path section reads only the ring's survivors, so it says
// how many spans the ring dropped.
TEST(Span, CriticalPathReportsDroppedSpans) {
  Config cfg;
  cfg.span_capacity = 8;
  SpanCollector c(cfg);
  for (u64 t = 1; t <= 5; ++t) {
    ScopedSpan root(&c, "client.write", t);
    for (int k = 0; k < 3; ++k)
      c.record_sim("disk.transfer", 0, 0.0, 0.5, c.ambient());
  }
  EXPECT_EQ(c.total_spans(), 20u);
  EXPECT_EQ(c.dropped(), 12u);
  EXPECT_EQ(analyze_critical_path(c).at("spans_dropped").as_u64(), 12u);

  SpanCollector roomy;
  {
    ScopedSpan root(&roomy, "client.write", 1);
    roomy.record_sim("disk.transfer", 0, 0.0, 0.5, roomy.ambient());
  }
  EXPECT_EQ(analyze_critical_path(roomy).at("spans_dropped").as_u64(), 0u);
}

TEST(Span, SlowLogRetainsExactlyTopKByDuration) {
  constexpr int kRoots = SpanCollector::kSlowK + 4;
  SpanCollector c;
  for (int i = 0; i < kRoots; ++i) {
    ScopedSpan root(&c, "client.write", static_cast<u64>(i));
    spin_us(c, 30.0 + 40.0 * i);
  }
  // Self-consistent check (immune to scheduler noise): the slow log must
  // hold exactly the K slowest roots actually recorded, slowest first.
  std::vector<SpanRecord> roots = c.spans();
  ASSERT_EQ(roots.size(), std::size_t{kRoots});
  std::sort(roots.begin(), roots.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.dur_us > b.dur_us;
            });
  const auto slow = c.slow_traces();
  ASSERT_EQ(slow.size(), SpanCollector::kSlowK);
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].trace_id, roots[i].trace_id) << "rank " << i;
    EXPECT_DOUBLE_EQ(slow[i].dur_us, roots[i].dur_us);
    EXPECT_EQ(slow[i].root_name, "client.write");
    // The retained tree carries the root span itself.
    ASSERT_FALSE(slow[i].spans.empty());
    EXPECT_EQ(slow[i].spans.back().parent_id, 0u);
  }
  for (std::size_t i = 1; i < slow.size(); ++i)
    EXPECT_GE(slow[i - 1].dur_us, slow[i].dur_us);
}

TEST(Span, SlowLogKeepsFullSpanTree) {
  SpanCollector c;
  {
    ScopedSpan root(&c, "client.write");
    ScopedSpan child(&c, "osd.stripe_unit");
    c.record_sim("disk.seek", 0, 0.0, 1.0, c.ambient());
  }
  const auto slow = c.slow_traces();
  ASSERT_EQ(slow.size(), 1u);
  std::set<std::string> names;
  for (const SpanRecord& s : slow[0].spans) names.emplace(s.name);
  EXPECT_TRUE(names.count("client.write"));
  EXPECT_TRUE(names.count("osd.stripe_unit"));
  EXPECT_TRUE(names.count("disk.seek"));
}

TEST(Span, PropagatesThroughFullStack) {
  core::ClusterConfig cluster;
  cluster.num_targets = 3;
  cluster.target.allocator = alloc::AllocatorMode::kOnDemand;
  core::ParallelFileSystem fs(cluster);
  SpanCollector c;
  fs.set_spans(&c);

  auto client = fs.connect(ClientId{1});
  auto fh = client.create("/spans.dat");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(client.write(*fh, 0, 0, 256 * 1024).ok());
  fs.drain_data();
  ASSERT_TRUE(client.close(*fh).ok());

  // client.create reached the MDS: one trace holds both layers.
  const auto spans = c.spans();
  u64 create_trace = 0, write_trace = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "client.create") create_trace = s.trace_id;
    if (s.name == "client.write") write_trace = s.trace_id;
  }
  ASSERT_NE(create_trace, 0u);
  ASSERT_NE(write_trace, 0u);
  EXPECT_NE(create_trace, write_trace);

  std::set<std::string> create_phases, write_phases;
  for (const SpanRecord& s : spans) {
    if (s.trace_id == create_trace) create_phases.emplace(s.name);
    if (s.trace_id == write_trace) write_phases.emplace(s.name);
  }
  EXPECT_TRUE(create_phases.count("mds.create"));
  EXPECT_TRUE(write_phases.count("osd.stripe_unit"));
  EXPECT_TRUE(write_phases.count("alloc.decide"));

  // Detach: no further spans are recorded.
  fs.set_spans(nullptr);
  const std::size_t before = c.size();
  ASSERT_TRUE(client.open("/spans.dat").ok());
  EXPECT_EQ(c.size(), before);
}

TEST(Span, ExportPublishesPerPhaseQuantiles) {
  SpanCollector c;
  for (int i = 0; i < 16; ++i) {
    ScopedSpan span(&c, "client.write");
    spin_us(c, 20.0);
  }
  MetricsRegistry reg;
  c.export_metrics(reg);
  const Json j = reg.to_json();
  const auto& histo = j.as_object().at("histograms").as_object();
  ASSERT_TRUE(histo.count("span.client.write"));
  const auto& h = histo.at("span.client.write").as_object();
  EXPECT_EQ(h.at("count").as_u64(), 16u);
  for (const char* q : {"p50", "p95", "p99"}) {
    ASSERT_TRUE(h.count(q)) << q;
    EXPECT_GE(h.at(q).as_double(), 20e3);  // ns: every span spun ≥ 20 µs
  }
  const auto& stats = j.as_object().at("stats").as_object();
  ASSERT_TRUE(stats.count("span.client.write.us"));
  EXPECT_EQ(j.as_object().at("counters").as_object().at("span.total").as_u64(),
            16u);
}

TEST(Span, ChromeTraceJsonIsWellFormed) {
  SpanCollector c;
  {
    ScopedSpan root(&c, "client.write", 42);
    ScopedSpan child(&c, "osd.stripe_unit");
    c.record_sim("disk.transfer", 1, 2.0, 3.0, c.ambient());
  }
  const Json doc = chrome_trace_json(c);
  // Round-trips through the parser (well-formed JSON text).
  auto reparsed = Json::parse(doc.dump(2));
  ASSERT_TRUE(reparsed.has_value());

  const auto& obj = reparsed->as_object();
  ASSERT_TRUE(obj.count("traceEvents"));
  const auto& events = obj.at("traceEvents").as_array();
  std::size_t complete = 0;
  std::set<u64> pids;
  for (const Json& e : events) {
    const auto& ev = e.as_object();
    ASSERT_TRUE(ev.count("ph"));
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "M") continue;  // metadata (process/thread names)
    EXPECT_EQ(ph, "X");
    ++complete;
    ASSERT_TRUE(ev.count("name"));
    ASSERT_TRUE(ev.count("ts"));
    ASSERT_TRUE(ev.count("dur"));
    ASSERT_TRUE(ev.count("pid"));
    ASSERT_TRUE(ev.count("tid"));
    EXPECT_GE(ev.at("ts").as_double(), 0.0);
    EXPECT_GE(ev.at("dur").as_double(), 0.0);
    pids.insert(ev.at("pid").as_u64());
  }
  EXPECT_EQ(complete, 3u);
  // Host spans on pid 1, sim-disk spans on pid 2 — never mixed.
  EXPECT_EQ(pids, (std::set<u64>{1u, 2u}));
  ASSERT_TRUE(obj.count("slowTraces"));
}

TEST(Span, ClearDropsDataKeepsIdentity) {
  SpanCollector c;
  u64 first_trace = 0;
  {
    ScopedSpan span(&c, "client.write");
    first_trace = span.context().trace_id;
  }
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.slow_traces().empty());
  ScopedSpan span(&c, "client.write");
  EXPECT_GT(span.context().trace_id, first_trace);  // ids keep counting
}

// A recorder claims its sim track once per collector; two mounts sharing a
// collector get distinct tracks and labels, the labels survive clear(), and
// the Chrome writer names each sim lane from its label.
TEST(Span, SimTracksAreLabelledPerMount) {
  SpanCollector c;
  Sinks mount_a, mount_b;
  SimTrack disk_a(mount_a, "osd 0 disk");
  SimTrack disk_b(mount_b, "osd 0 disk");
  const u32 a = disk_a.id(c);
  EXPECT_EQ(disk_a.id(c), a);
  const u32 b = disk_b.id(c);
  EXPECT_NE(a, b);
  c.record_sim("disk.seek", a, 0.0, 1.0, {});
  c.clear();
  c.record_sim("disk.transfer", a, 1.0, 1.0, {});
  c.record_sim("disk.transfer", b, 1.0, 1.0, {});
  const std::vector<std::string> labels = c.track_labels();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[a], "osd 0 disk (mount 0)");
  EXPECT_EQ(labels[b], "osd 0 disk (mount 1)");

  const auto doc = Json::parse(chrome_trace_json(c).dump());
  ASSERT_TRUE(doc.has_value());
  std::set<std::string> lanes;
  for (const Json& e : doc->at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "M" && e.at("pid").as_u64() == 2 &&
        e.at("name").as_string() == "thread_name")
      lanes.insert(e.at("args").at("name").as_string());
  }
  EXPECT_EQ(lanes, (std::set<std::string>{"osd 0 disk (mount 0)",
                                          "osd 0 disk (mount 1)"}));

  // Another collector hands out its own ids, numbering its own mounts.
  SpanCollector other;
  EXPECT_EQ(disk_b.id(other), 0u);
  EXPECT_EQ(other.track_labels(),
            std::vector<std::string>{"osd 0 disk (mount 0)"});
}

TEST(Span, SharedObsConfigSizesSpanRing) {
  Config cfg;
  cfg.span_capacity = 16;
  SpanCollector spans(cfg);
  EXPECT_EQ(spans.capacity(), 16u);
}

}  // namespace
}  // namespace mif::obs
