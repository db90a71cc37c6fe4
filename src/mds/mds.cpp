#include "mds/mds.hpp"

#include <algorithm>

#include "obs/attrib.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"

namespace mif::mds {

namespace {
/// CPU microseconds charged per extent the MDS touches (merge/index/send).
constexpr double kCpuUsPerExtent = 20.0;
/// Fixed CPU microseconds per RPC (decode, dispatch, encode).
constexpr double kCpuUsPerRpc = 2.0;
}  // namespace

Mds::Mds(MdsConfig cfg, obs::Sinks* mount, std::string_view name)
    : cfg_(cfg),
      sinks_(mount ? *mount : own_sinks_),
      fs_(cfg.mfs, sinks_, name),
      cpu_track_(sinks_, std::string(name) + " cpu") {}

Mds::TimelineTick::~TimelineTick() {
  if (obs::Timeline* tl = m.sinks_.timeline) tl->tick();
}

void Mds::charge_cpu(double cpu_ms) {
  stats_.cpu_ms += cpu_ms;
  obs::Attribution* const attrib = sinks_.attrib;
  if (!attrib || cpu_ms <= 0.0) return;
  attrib->charge_mds(obs::ambient_principal(), cpu_ms);
  if (obs::SpanCollector* spans = sinks_.spans) {
    // Cumulative CPU clock: stats_.cpu_ms just grew by exactly cpu_ms.
    spans->record_sim("mds.cpu", cpu_track_.id(*spans), stats_.cpu_ms - cpu_ms,
                      cpu_ms, spans->ambient());
  }
}

void Mds::account_rpc() {
  ++stats_.rpcs;
  charge_cpu(kCpuUsPerRpc / 1000.0);
}

void Mds::charge_extents(u64 n) {
  stats_.extent_ops += n;
  charge_cpu(static_cast<double>(n) * kCpuUsPerExtent / 1000.0);
}

Result<InodeNo> Mds::mkdir(std::string_view path) {
  TimelineTick tick(*this);
  return fs_.mkdir(path);
}

Result<InodeNo> Mds::create(std::string_view path) {
  TimelineTick tick(*this);
  obs::ScopedSpan span(sinks_.spans, "mds.create");
  return fs_.create(path);
}

Status Mds::stat(std::string_view path) {
  TimelineTick tick(*this);
  // A stat is a pure namespace lookup: one path walk, no layout work.
  obs::ScopedSpan span(sinks_.spans, "mds.lookup");
  return fs_.stat(path);
}

Status Mds::utime(std::string_view path) {
  TimelineTick tick(*this);
  return fs_.utime(path);
}

Status Mds::unlink(std::string_view path) {
  TimelineTick tick(*this);
  return fs_.unlink(path);
}

Result<InodeNo> Mds::rename(std::string_view from, std::string_view to) {
  TimelineTick tick(*this);
  return fs_.rename(from, to);
}

Result<OpenResult> Mds::open_getlayout(std::string_view path) {
  TimelineTick tick(*this);
  obs::ScopedSpan span(sinks_.spans, "mds.open_getlayout");
  auto ino = [&] {
    obs::ScopedSpan lookup(sinks_.spans, "mds.lookup");
    return fs_.resolve(path);
  }();
  if (!ino) return ino.error();
  mfs::Inode* node = fs_.find(*ino);
  if (!node) return Errc::kNotFound;
  if (Status s = fs_.getlayout(*ino); !s) return s.error();
  // The MDS serves the layout it last persisted from the storage targets.
  // The transport charges the reply transfer from the extent count it finds
  // in the response envelope — fragmented files cost bandwidth too.
  const u64 extents = node->last_synced_extents;
  charge_extents(extents);
  return OpenResult{*ino, extents};
}

Result<std::vector<mfs::DirEntry>> Mds::readdir_stats(std::string_view path) {
  TimelineTick tick(*this);
  return fs_.readdir(path, /*plus=*/true);
}

Result<std::vector<mfs::DirEntry>> Mds::readdir(std::string_view path) {
  TimelineTick tick(*this);
  return fs_.readdir(path, /*plus=*/false);
}

Status Mds::report_extents(InodeNo file, u64 extent_count) {
  TimelineTick tick(*this);
  // The MDS merges the newly grown part of the layout into its index; CPU
  // is paid per extent it has to process, i.e. the delta since the last
  // report.
  obs::ScopedSpan span(sinks_.spans, "mds.report_extents", file.v,
                       extent_count);
  mfs::Inode* node = fs_.find(file);
  if (!node) return Errc::kNotFound;
  const u64 before = node->last_synced_extents;
  const u64 delta = extent_count > before ? extent_count - before
                                          : before - extent_count;
  charge_extents(delta);
  return fs_.sync_file_layout(file, extent_count);
}

void Mds::add_timeline_gauges(obs::Timeline& tl, const std::string& prefix) {
  tl.add_gauge(prefix + ".rpcs",
               [this] { return static_cast<double>(stats_.rpcs); });
  tl.add_gauge(prefix + ".journal.backlog_blocks", [this] {
    return static_cast<double>(fs_.journal().backlog_blocks());
  });
  tl.add_gauge(prefix + ".cache.resident_blocks", [this] {
    return static_cast<double>(fs_.cache().resident_blocks());
  });
  tl.add_gauge(prefix + ".disk.queue_depth", [this] {
    return static_cast<double>(fs_.io().queue_depth());
  });
}

void Mds::set_timeline(obs::Timeline* tl) {
  sinks_.timeline = tl;
  frag_lens_.reset();
  if (!tl) return;
  tl->set_clock([this] { return fs_.elapsed_ms(); });
  add_timeline_gauges(*tl, "mds");
  tl->add_gauge("mds.disk.busy_frac", [this] {
    const double now = fs_.disk().now_ms();
    return now > 0.0 ? fs_.disk().stats().busy_ms() / now : 0.0;
  });
  tl->add_gauge("mds.disk.head_block", [this] {
    return static_cast<double>(fs_.disk().head().v);
  });
  frag_lens_ = std::make_unique<obs::FragLens>();
  frag_lens_->add_source([this](obs::FragSnapshot& s) {
    fs_.layout().scan_fragmentation(
        [&s](u64 extents) { s.add_file(extents); },
        [&s](double degree, u64 files) { s.add_dir(degree, files); });
  });
  frag_lens_->add_source([this](obs::FragSnapshot& s) {
    s.free_run_count += fs_.space().add_free_runs(s.free_runs);
    s.free_blocks += fs_.space().free_blocks();
  });
  frag_lens_->bind(*tl);
}

double Mds::cpu_utilization() const {
  const double elapsed = std::max(fs_.elapsed_ms(), 1e-9);
  return std::min(1.0, stats_.cpu_ms / elapsed);
}

void Mds::export_metrics(obs::MetricsRegistry& reg,
                         std::string_view prefix) const {
  obs::publish(reg, prefix, stats_);
  reg.gauge(obs::join_key(prefix, "cpu_utilization")).set(cpu_utilization());
  fs_.export_metrics(reg, obs::join_key(prefix, "mfs"));
}

}  // namespace mif::mds
