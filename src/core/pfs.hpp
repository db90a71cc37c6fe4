// MiF public API: the Redbud parallel file system facade.
//
// Wires one metadata server (MFS + journal + metadata disk) to a set of
// storage targets (data disks + PAG free space + the configured allocator)
// behind the stripe layout, and hands out per-node clients.  The two MiF
// techniques are mount options:
//
//   mif::ClusterConfig cfg;
//   cfg.target.allocator = mif::alloc::AllocatorMode::kOnDemand;  // §III
//   cfg.mds.mfs.mode = mif::mfs::DirectoryMode::kEmbedded;        // §IV
//   mif::ParallelFileSystem fs{cfg};
//   auto client = fs.connect(ClientId{1});
//   auto fh = client.create("/data/ckpt.odb");
//   client.write(*fh, /*pid=*/0, /*offset=*/0, /*len=*/1 << 20);
#pragma once

#include <memory>
#include <vector>

#include "client/client_fs.hpp"
#include "mds/mds.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "osd/storage_target.hpp"
#include "osd/striping.hpp"
#include "redundancy/redundancy.hpp"
#include "redundancy/repair.hpp"
#include "rpc/client.hpp"
#include "rpc/stack.hpp"

namespace mif::core {

struct ClusterConfig {
  std::size_t num_targets{5};  // the paper stripes over five disks (§V-C)
  osd::StripeLayout stripe{5, 16};
  osd::TargetConfig target{};
  mds::MdsConfig mds{};
  /// Transport between clients and servers.  The default (kInproc,
  /// synchronous) preserves the paper figures exactly; see rpc/stack.hpp.
  /// rpc.pipeline_depth >= 2 mounts the async completion-queue transport
  /// (issue-many-then-drain on the striped data path); its disk-service
  /// model is wired to `target.geometry` automatically at mount.
  /// rpc.adaptive_depth_max >= 2 floats that window in [2, max], driven by
  /// the live per-OSD scheduler queue gauges (wired automatically).
  /// rpc.kind == kFormation stages envelopes per destination and packs
  /// size-bounded, urgency-ordered frames (rpc.formation knobs; validated
  /// by rpc::validate(FormationConfig)).  rpc.qos.enabled mounts the
  /// per-client token-bucket scheduler (rpc::validate(QosConfig)); its
  /// refill clock is wired to the cluster-max target timeline at mount.
  rpc::TransportOptions rpc{};
  /// Client sequential-read prefetch cap in blocks (Lustre-style per-file
  /// readahead; 2048 blocks = 8 MiB).  0 disables client readahead.
  u64 client_readahead_max_blocks{2048};
  /// List-I/O lowering: when > 0, clients ship noncontiguous accesses as
  /// kWriteList/kReadList (or the strided datatype flavor) envelopes holding
  /// up to this many runs each, instead of one per-block envelope per stripe
  /// slice, and CollectiveWriter runs proper two-phase exchange+write.
  /// 0 (default) keeps the per-block data path byte-identical to the paper
  /// figures.
  u64 list_io_max_runs{0};
  /// Striped redundancy: redundancy.replicas >= 2 mounts N-way replication
  /// per stripe unit (copy c of a unit with primary target p lives on
  /// (p + c) % width, in the tagged subfile redundancy::replica_ino).
  /// Clients fan replica writes through the async path, re-route reads
  /// around dead targets, and the online RepairService rebuilds a killed
  /// target from survivors at tick_timeline()/drain_data() safe points.
  /// The default (replicas = 1) mounts none of it — byte-identical figures.
  redundancy::Policy redundancy{};
};

class ParallelFileSystem {
 public:
  explicit ParallelFileSystem(ClusterConfig cfg = {});

  /// A client session for cluster node `id`.
  client::ClientFs connect(ClientId id);

  // --- namespace (proxied to the MDS) -------------------------------------
  /// Shard 0 — THE metadata server of a classic single-MDS mount.
  mds::Mds& mds() { return *mds_[0]; }
  /// Metadata shard `i` (mds.shards of them; see mds(i) for i >= 1 only
  /// when mounted with shards >= 2).
  mds::Mds& mds(std::size_t i) { return *mds_[i]; }
  std::size_t mds_shards() const { return mds_.size(); }
  /// Unmount-style finish of every metadata shard (journal flush + disk
  /// idle); what workloads call instead of mds().finish().
  void finish_mds() {
    for (auto& m : mds_) m->finish();
  }

  // --- RPC layer ------------------------------------------------------------
  /// The typed stub every cross-node call goes through (clients, workloads).
  rpc::Client& rpc() { return *rpc_client_; }
  /// The transport chain itself (metrics, formation/fault decorators).
  rpc::TransportStack& transport() { return rpc_stack_; }
  const rpc::TransportStack& transport() const { return rpc_stack_; }

  // --- data path -----------------------------------------------------------
  std::size_t num_targets() const { return targets_.size(); }
  osd::StorageTarget& target(std::size_t i) { return *targets_[i]; }
  const osd::StripeLayout& stripe() const { return cfg_.stripe; }

  /// fallocate the file to `total_blocks` (static preallocation baseline).
  Status preallocate(InodeNo ino, u64 total_blocks);

  /// Release allocator reservations for a file on every target.
  void close_file(InodeNo ino);

  /// Free the file's data everywhere.
  void delete_file(InodeNo ino);

  /// Total extents mapping this file across all targets — the Table I
  /// "Seg Counts" metric.
  u64 file_extents(InodeNo ino) const;

  // --- redundancy & repair ---------------------------------------------------
  /// The mounted replication policy (cfg.redundancy).
  const redundancy::Policy& redundancy_policy() const {
    return cfg_.redundancy;
  }
  /// Per-target liveness (kill-OSD faults flip entries dead; repair revives
  /// them).  Always present — all-alive on an unreplicated mount.
  redundancy::HealthMap& health() { return *health_; }
  const redundancy::HealthMap& health() const { return *health_; }
  /// Degraded-path counters (clients bump these when re-routing).
  redundancy::Stats& redundancy_stats() { return *red_stats_; }
  /// The online rebuild service (nullptr unless redundancy.replicas >= 2).
  redundancy::RepairService* repair() { return repair_.get(); }
  const redundancy::RepairService* repair() const { return repair_.get(); }

  /// Flush every target queue.
  void drain_data();

  /// Data-path wall clock: the slowest target timeline (a striped request
  /// completes when its last member disk does).
  double data_elapsed_ms() const;

  /// Aggregate data-disk counters.
  sim::DiskStats data_stats() const;

  void reset_data_stats();

  // --- observability -------------------------------------------------------
  /// Attach one trace sink to the whole cluster: every target's allocator
  /// state machine plus the MDS journal and buffer cache.  nullptr detaches.
  void set_trace(obs::TraceBuffer* trace);

  /// Attach one span collector to the whole cluster: client ops become root
  /// spans, MDS RPCs / allocator decisions / journal commits become child
  /// phases, and every disk (data disks on tracks 0..N-1, metadata disk on
  /// track 255) records its simulated mechanical phases.  nullptr detaches.
  void set_spans(obs::SpanCollector* spans);

  /// The attached collector (nullptr when none); clients read this per op.
  obs::SpanCollector* spans() const { return spans_; }

  /// Attach a flight recorder (obs/timeline.hpp) to the whole cluster:
  /// cluster-max sim clock, per-OSD disk gauges (queue depth, busy
  /// fraction, head position), async-pipeline inflight/stall gauges when
  /// the completion-queue transport is mounted, per-shard op counts when
  /// sharded, per-MDS journal/cache gauges, and a fragmentation lens
  /// (OSD subfile extent distribution + data free-space runs + namespace
  /// degree).  Sampling is driven from MDS handler boundaries and from
  /// tick_timeline() — never from threaded data-path internals.  nullptr
  /// detaches.
  void set_timeline(obs::Timeline* tl);
  obs::Timeline* timeline() const { return timeline_; }
  /// Safe-point sample hook for single-threaded drivers (workload loops,
  /// phase boundaries).  Cheap when no timeline is attached or none is due.
  void tick_timeline();
  /// The cluster fragmentation lens (nullptr until set_timeline).
  const obs::FragLens* frag_lens() const { return frag_lens_.get(); }

  /// Attach a cost-attribution ledger (obs/attrib.hpp) to the whole
  /// cluster: the transport tags/charges network cost per principal, every
  /// IO scheduler (data targets and each shard's metadata disk) stamps
  /// submitters and splits merged dispatches back to them, and MDS handler
  /// CPU is charged to the ambient principal.  nullptr detaches.
  void set_attribution(obs::Attribution* attrib);
  obs::Attribution* attribution() const { return attrib_; }

  /// The attribution report: `principals` (per-principal cost accounts),
  /// `global` (the independent cluster-wide totals the ledger must
  /// conserve against), and `fairness` (Jain's index over per-client
  /// attributed milliseconds).  Null JSON when no ledger is attached.
  obs::Json attribution_json() const;

  /// Publish the entire stack into `reg`: per-instance metrics
  /// (`osd.<i>.…`, `mds.…`) plus cluster-wide aggregates
  /// (`alloc.<mode>.layout_miss`, `alloc.extents_per_file`,
  /// `sim.disk.position_ms`, …).  With a timeline attached, also the
  /// lens's end-of-run `frag.*` snapshot.
  void export_metrics(obs::MetricsRegistry& reg) const;

  /// One-shot convenience: fresh registry → export_metrics → to_json().
  obs::Json metrics_json() const;

  const ClusterConfig& config() const { return cfg_; }

 private:
  /// Register timeline gauges for principals that appeared since the last
  /// safe point (tick_timeline calls this BEFORE ticking — add_gauge and
  /// tick share the timeline mutex, so gauges cannot be added from a tick).
  void sync_attrib_gauges();

  ClusterConfig cfg_;
  /// One Mds per metadata shard; size 1 unless cfg.mds.shards >= 2.
  std::vector<std::unique_ptr<mds::Mds>> mds_;
  std::vector<std::unique_ptr<osd::StorageTarget>> targets_;
  rpc::TransportStack rpc_stack_;
  std::unique_ptr<rpc::Client> rpc_client_;
  obs::SpanCollector* spans_{nullptr};
  obs::Attribution* attrib_{nullptr};
  obs::Timeline* timeline_{nullptr};
  /// attrib.* gauge bookkeeping: fixed gauges bound once, one total_ms
  /// gauge per principal key seen so far.
  bool attrib_gauges_bound_{false};
  std::vector<u64> attrib_gauge_keys_;
  /// Disk busy time discarded by reset_data_stats(): workloads reset the
  /// counters before their measured phase, but the attribution ledger is
  /// lifetime-cumulative, so the conservation comparand adds this back.
  double reset_disk_ms_{0.0};
  std::unique_ptr<obs::FragLens> frag_lens_;
  /// Heap-pinned (closures capture raw pointers, never `this`): target
  /// liveness + degraded counters exist on every mount; the repair service
  /// only when replication is on.
  std::unique_ptr<redundancy::HealthMap> health_;
  std::unique_ptr<redundancy::Stats> red_stats_;
  std::unique_ptr<redundancy::RepairService> repair_;
};

}  // namespace mif::core
