// Metadata server: the MFS wrapped with the protocol the clients speak.
//
// Adds what the paper's evaluation measures beyond raw block traffic:
//   * aggregated operation pairs (§II-A2): open-getlayout and readdir-stat
//     (readdirplus) are single RPCs that touch co-located metadata;
//   * MDS CPU accounting — Table I correlates extent counts with MDS CPU
//     utilisation ("the less extents … to be operated, such as merging and
//     indexing, the less CPU load involved in MDS").
//
// Network cost is NOT charged here: every handler below is reached through
// an rpc::Transport envelope (src/rpc/), and the transport charges
// sim::Network from the envelope's actual wire size in one place.  The
// transport calls account_rpc() once per delivered metadata envelope so RPC
// counts and per-RPC CPU stay with the server they load.
#pragma once

#include <memory>
#include <string_view>

#include "mfs/mfs.hpp"
#include "obs/fraglens.hpp"
#include "shard/map.hpp"

namespace mif::obs {
class Attribution;
class MetricsRegistry;
class SpanCollector;
class Timeline;
}

namespace mif::mds {

struct MdsConfig {
  mfs::MfsConfig mfs{};
  /// CPU microseconds charged per extent the MDS touches (merge/index/send).
  double cpu_us_per_extent{20.0};
  /// Fixed CPU microseconds per RPC (decode, dispatch, encode).
  double cpu_us_per_rpc{2.0};
  /// Metadata servers the cluster mounts.  1 = the classic single-MDS stack
  /// (no shard routing is built at all); >= 2 mounts one full Mds per shard
  /// behind shard::ShardedTransport.
  u32 shards{1};
  /// How the sharded namespace is placed across servers (ignored for
  /// shards == 1); the transport stack reads it back from the servers.
  shard::Policy placement{shard::Policy::kSubtree};
};

struct MdsStats {
  u64 rpcs{0};
  u64 extent_ops{0};  // extents merged/indexed/shipped
  double cpu_ms{0.0};
};

struct OpenResult {
  InodeNo ino{};
  u64 extent_count{0};
};

class Mds {
 public:
  explicit Mds(MdsConfig cfg = {});

  // --- namespace RPC handlers ----------------------------------------------
  Result<InodeNo> mkdir(std::string_view path);
  Result<InodeNo> create(std::string_view path);
  Status stat(std::string_view path);
  Status utime(std::string_view path);
  Status unlink(std::string_view path);
  Result<InodeNo> rename(std::string_view from, std::string_view to);

  /// Aggregated open: resolve + getlayout in ONE request (pNFS block-mode /
  /// Lustre open behaviour, §II-A2).  Ships the extent list to the client,
  /// charging CPU per extent.
  Result<OpenResult> open_getlayout(std::string_view path);

  /// Aggregated readdir + stat of every child (readdirplus, §II-A2).
  Result<std::vector<mfs::DirEntry>> readdir_stats(std::string_view path);

  /// Plain readdir (no inode fetch in normal mode).
  Result<std::vector<mfs::DirEntry>> readdir(std::string_view path);

  /// Storage targets report a file's grown layout; the MDS persists it and
  /// pays CPU for every extent it has to merge/index.
  Status report_extents(InodeNo file, u64 extent_count);

  /// One delivered RPC envelope: count it and pay the fixed dispatch CPU.
  /// Called by the transport, exactly once per (non-free) metadata op.
  void account_rpc();

  // --- observability -------------------------------------------------------
  const MdsConfig& config() const { return cfg_; }
  mfs::Mfs& fs() { return fs_; }
  const MdsStats& stats() const { return stats_; }
  MdsStats snapshot() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Attach a trace sink to the metadata stack (journal, cache).
  void set_trace(obs::TraceBuffer* trace) { fs_.set_trace(trace); }

  /// Attach a span collector: namespace RPCs record `mds.*` phases and the
  /// metadata stack (journal, MDS disk) records its own (nullptr detaches).
  void set_spans(obs::SpanCollector* spans) {
    spans_ = spans;
    fs_.set_spans(spans);
  }

  /// Attach cost attribution: handler CPU is charged to the ambient
  /// principal (`mds.cpu` sim spans ride a cumulative CPU clock when spans
  /// are also attached), and the metadata disk's scheduler stamps/charges
  /// its submitters too.  nullptr detaches.
  void set_attribution(obs::Attribution* attrib);

  /// Publish MDS RPC/CPU counters plus the whole MFS stack under
  /// `<prefix>.…`.
  void export_metrics(obs::MetricsRegistry& reg,
                      std::string_view prefix) const;

  /// Attach a flight recorder (obs/timeline.hpp): wires this server's own
  /// gauges — journal backlog, cache occupancy, metadata-disk queue depth /
  /// busy fraction / head position, RPC count — plus a fragmentation lens
  /// over the namespace and the metadata free space, and ticks the timeline
  /// at the end of every handler.  nullptr detaches.
  void set_timeline(obs::Timeline* tl);

  /// Tick-only attachment: the owner (core::ParallelFileSystem) registers
  /// cluster-level gauges itself; this server merely drives sampling from
  /// its handler boundaries — the safe points where no block operation is
  /// mid-flight.
  void set_timeline_ticker(obs::Timeline* tl) { timeline_ = tl; }

  obs::Timeline* timeline() { return timeline_; }
  const obs::FragLens* frag_lens() const { return frag_lens_.get(); }

  /// CPU utilisation over the run so far: CPU time ÷ elapsed (disk) time.
  double cpu_utilization() const;

  void finish() { fs_.finish(); }

 private:
  void charge_extents(u64 n);
  /// Accumulate handler CPU and, with attribution on, charge the ambient
  /// principal (plus an `mds.cpu` sim span when spans are attached).
  void charge_cpu(double cpu_ms);

  /// RAII handler hook: declared before any ScopedSpan so the sample is
  /// taken after the span closed and the handler's block traffic settled.
  struct TimelineTick {
    Mds& m;
    explicit TimelineTick(Mds& mds) : m(mds) {}
    ~TimelineTick();
  };

  MdsConfig cfg_;
  mfs::Mfs fs_;
  MdsStats stats_;
  obs::SpanCollector* spans_{nullptr};
  obs::Attribution* attrib_{nullptr};
  obs::Timeline* timeline_{nullptr};
  std::unique_ptr<obs::FragLens> frag_lens_;
  /// Lazily-reserved namespace for `mds.cpu` sim spans.
  bool cpu_ns_set_{false};
  u32 cpu_ns_{0};
};

}  // namespace mif::mds
