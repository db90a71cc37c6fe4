#include "core/pfs.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <string>

#include "obs/attrib.hpp"
#include "obs/export.hpp"
#include "obs/fraglens.hpp"
#include "obs/timeline.hpp"

namespace mif::core {

namespace {

/// Cluster clock: the furthest-ahead simulated timeline, metadata servers
/// included.  Captures the heap-pinned targets/servers, NOT the
/// ParallelFileSystem — benches move the PFS value around.
std::function<double()> cluster_clock(std::vector<osd::StorageTarget*> tgts,
                                      std::vector<mds::Mds*> servers) {
  return [tgts = std::move(tgts), servers = std::move(servers)] {
    double now = 0.0;
    for (osd::StorageTarget* t : tgts) now = std::max(now, t->sim_now_ms());
    for (mds::Mds* m : servers) now = std::max(now, m->fs().elapsed_ms());
    return now;
  };
}

}  // namespace

ParallelFileSystem::ParallelFileSystem(ClusterConfig cfg)
    : cfg_(cfg),
      stripe_{static_cast<u32>(cfg.num_targets)},
      sinks_(std::make_unique<obs::Sinks>()) {
  assert(cfg_.num_targets >= 1);
  const std::size_t shards = std::max<u32>(cfg_.mds.shards, 1);
  mds_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    // Servers are named like their metric prefixes: "mds", or "mds i".
    mds_.push_back(std::make_unique<mds::Mds>(
        cfg_.mds, sinks_.get(),
        shards == 1 ? "mds" : "mds " + std::to_string(i)));
  }
  targets_.reserve(cfg_.num_targets);
  for (std::size_t i = 0; i < cfg_.num_targets; ++i) {
    targets_.push_back(std::make_unique<osd::StorageTarget>(
        cfg_.target, *sinks_, "osd " + std::to_string(i)));
  }
  rpc::Endpoints eps;
  for (auto& m : mds_) eps.mds.push_back(m.get());
  for (auto& t : targets_) eps.osds.push_back(t.get());
  // Fail fast on an unmountable QoS or redundancy config (benches validate
  // user flags with exit 2 before getting here; this guards programmatic use).
  assert(rpc::validate(cfg_.rpc.qos).empty());
  assert(redundancy::validate(cfg_.redundancy, stripe_.width).empty());
  rpc_stack_ = rpc::TransportStack(std::move(eps), cfg_.rpc, *sinks_);
  rpc_client_ = std::make_unique<rpc::Client>(rpc_stack_.top());
  // Closures below capture raw pointers to the heap-pinned targets, NOT
  // `this` — benches move the PFS value around.
  std::vector<osd::StorageTarget*> tgts;
  for (auto& t : targets_) tgts.push_back(t.get());
  std::vector<mds::Mds*> servers;
  for (auto& m : mds_) servers.push_back(m.get());
  const std::function<double()> cluster_now = cluster_clock(tgts, servers);
  if (rpc::QosTransport* qos = rpc_stack_.qos()) {
    // Token buckets refill on the cluster-max simulated timeline — metadata
    // servers included, NOT just the data disks: when the scheduler parks a
    // client's whole data stream, the disks idle, and a data-only clock
    // would freeze the refill exactly when the backlog needs it (the
    // throttled state would be an absorbing state).
    qos->set_clock(cluster_now);
  }
  if (rpc::AsyncTransport* async = rpc_stack_.async();
      async && cfg_.rpc.adaptive_depth_max >= 2) {
    // The adaptive controller reads the live scheduler queue of the target
    // it is about to issue to (the PR 6 timeline gauges, sans timeline).
    async->set_queue_probe([tgts](u32 i) {
      return i < tgts.size() ? static_cast<double>(tgts[i]->queue_depth())
                             : 0.0;
    });
  }

  // Redundancy: target liveness + degraded counters exist on every mount
  // (all-alive, all-zero by default); the rebuild service only when the
  // policy replicates.
  health_ = std::make_unique<redundancy::HealthMap>();
  health_->resize(static_cast<u32>(cfg_.num_targets));
  red_stats_ = std::make_unique<redundancy::Stats>();
  if (cfg_.redundancy.enabled()) {
    repair_ = std::make_unique<redundancy::RepairService>(
        stripe_, cfg_.redundancy, *health_, tgts, *rpc_client_,
        cfg_.list_io_max_runs > 0
            ? cfg_.list_io_max_runs
            : redundancy::RepairService::kDefaultRunsPerEnvelope,
        *sinks_);
    repair_->set_clock(cluster_now);
  }
  if (rpc::FaultTransport* fault = rpc_stack_.fault()) {
    fault->set_kill_clock(cluster_now);
    redundancy::HealthMap* health = health_.get();
    redundancy::RepairService* rep = repair_.get();
    fault->set_kill_sink([tgts, health, rep](u32 t) {
      if (t >= tgts.size()) return;
      health->mark_dead(t);
      // The kill IS the disk replacement: the target forgets every block it
      // held and comes back formatted, so the rebuild starts from zero.
      tgts[t]->reset_contents();
      if (rep) rep->request(t);
    });
    fault->set_dead_probe([health](u32 t) { return !health->alive(t); });
  }
}

client::ClientFs ParallelFileSystem::connect(ClientId id) {
  return client::ClientFs(*this, id);
}

Status ParallelFileSystem::preallocate(InodeNo ino, u64 total_blocks) {
  // Split the whole-file reservation the way the stripe splits the data:
  // each target's local size is the largest local end of its slices.
  std::vector<u64> local_end(targets_.size(), 0);
  osd::slices_for(stripe_, FileBlock{0}, total_blocks,
                  [&local_end](const osd::StripeSlice& s) {
                    local_end[s.target] = std::max(
                        local_end[s.target], s.local_start.v + s.count);
                  });
  // Fan the per-target reservations out as tickets (one per OSD) and drain:
  // under an async transport the targets reserve concurrently.
  rpc::CompletionQueue& cq = rpc_client_->completions();
  std::vector<rpc::Ticket> pending;
  Status issued{};
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    if (local_end[t] == 0) continue;
    rpc::Ticket tk =
        rpc_client_->preallocate_async(static_cast<u32>(t), ino, local_end[t]);
    if (auto r = cq.try_take(tk)) {
      if (!*r) {
        issued = r->error();
        break;
      }
    } else {
      pending.push_back(tk);
    }
  }
  Status drained{};
  for (const rpc::Ticket& tk : pending) {
    if (Status st = rpc_client_->wait(tk); !st && drained.ok()) drained = st;
  }
  return issued.ok() ? drained : issued;
}

void ParallelFileSystem::close_file(InodeNo ino) {
  std::vector<rpc::Ticket> tickets;
  tickets.reserve(targets_.size());
  for (u32 t = 0; t < targets_.size(); ++t) {
    tickets.push_back(rpc_client_->close_file_async(t, ino));
    // Replica subfiles hold their own allocator reservations.
    for (u32 c = 1; c <= cfg_.redundancy.copies(); ++c) {
      tickets.push_back(
          rpc_client_->close_file_async(t, redundancy::replica_ino(ino, c)));
    }
  }
  for (const rpc::Ticket& tk : tickets) (void)rpc_client_->wait(tk);
}

void ParallelFileSystem::delete_file(InodeNo ino) {
  std::vector<rpc::Ticket> tickets;
  tickets.reserve(targets_.size());
  for (u32 t = 0; t < targets_.size(); ++t) {
    tickets.push_back(rpc_client_->delete_file_async(t, ino));
    for (u32 c = 1; c <= cfg_.redundancy.copies(); ++c) {
      tickets.push_back(
          rpc_client_->delete_file_async(t, redundancy::replica_ino(ino, c)));
    }
  }
  for (const rpc::Ticket& tk : tickets) (void)rpc_client_->wait(tk);
}

u64 ParallelFileSystem::file_extents(InodeNo ino) const {
  u64 n = 0;
  for (const auto& t : targets_) n += t->extent_count(ino);
  return n;
}

void ParallelFileSystem::drain_data() {
  // Anything the formation layer still stages has to reach the targets
  // before their queues can drain, and every outstanding ticket must retire
  // (drain-on-unmount: errors with no claimant are swallowed here, like a
  // close(2) after failed writeback).
  (void)rpc_client_->flush();
  (void)rpc_stack_.top().completions().wait_all();
  for (auto& t : targets_) t->drain();
  // Phase/unmount barrier: any queued rebuild runs to completion here.  The
  // repair traffic itself flows through the transport, so flush and drain
  // once more behind it.
  if (repair_ && repair_->pending()) {
    repair_->drain();
    (void)rpc_client_->flush();
    (void)rpc_stack_.top().completions().wait_all();
    for (auto& t : targets_) t->drain();
  }
  // Phase boundary in every workload — a natural safe point to sample.
  tick_timeline();
}

double ParallelFileSystem::data_elapsed_ms() const {
  double t = 0.0;
  for (const auto& tgt : targets_) t = std::max(t, tgt->elapsed_ms());
  return t;
}

sim::DiskStats ParallelFileSystem::data_stats() const {
  sim::DiskStats total;
  for (const auto& t : targets_) {
    const sim::DiskStats& s = t->disk().stats();
    total.requests += s.requests;
    total.positionings += s.positionings;
    total.skips += s.skips;
    total.sequential_hits += s.sequential_hits;
    total.blocks_read += s.blocks_read;
    total.blocks_written += s.blocks_written;
    total.seek_ms += s.seek_ms;
    total.rotation_ms += s.rotation_ms;
    total.skip_ms += s.skip_ms;
    total.transfer_ms += s.transfer_ms;
  }
  return total;
}

void ParallelFileSystem::reset_data_stats() {
  for (auto& t : targets_) {
    t->drain();
    // The attribution ledger is lifetime-cumulative while workloads reset
    // the disk counters between setup and the measured phase; bank the
    // discarded busy time so attribution_json's conservation comparand
    // still covers every millisecond ever charged.
    reset_disk_ms_ += t->disk().stats().busy_ms();
    t->disk().reset_stats();
    t->io().reset_stats();
  }
}

void ParallelFileSystem::tick_timeline() {
  // Safe point: one bounded repair pump before sampling, so the timeline
  // gauges see the rebuild ramp (kFilesPerPump keeps foreground flowing).
  if (repair_ && repair_->pending()) (void)repair_->pump();
  // Gauges for principals that appeared since the last safe point must be
  // registered BEFORE the tick — add_gauge and tick share the timeline's
  // mutex, so a gauge callback can never register another gauge.
  obs::Timeline* const tl = sinks_->timeline;
  if (tl && sinks_->attrib) sync_attrib_gauges(*tl);
  if (tl) tl->tick();
}

void ParallelFileSystem::sync_attrib_gauges(obs::Timeline& tl) {
  obs::Attribution* a = sinks_->attrib;  // raw ledger pointer, NOT `this` —
                                         // benches move the PFS value around.
  if (!attrib_gauges_bound_) {
    attrib_gauges_bound_ = true;
    tl.add_gauge("attrib.principals", [a] {
      return static_cast<double>(a->accounts().size());
    });
    tl.add_gauge("attrib.fairness", [a] { return a->fairness(); });
  }
  for (const auto& [key, acct] : a->accounts()) {
    if (std::find(attrib_gauge_keys_.begin(), attrib_gauge_keys_.end(),
                  key) != attrib_gauge_keys_.end()) {
      continue;
    }
    attrib_gauge_keys_.push_back(key);
    const u64 k = key;
    tl.add_gauge(
        "attrib." + obs::Principal::from_key(key).label() + ".total_ms",
        [a, k] {
          const auto accts = a->accounts();
          const auto it = accts.find(k);
          return it == accts.end() ? 0.0 : it->second.total_ms();
        });
  }
}

obs::Json ParallelFileSystem::attribution_json() const {
  const obs::Attribution* attrib = sinks_->attrib;
  if (!attrib) return obs::Json{};
  obs::Json j;
  j["principals"] = attrib->to_json();
  // The independent cluster totals the per-principal ledger must conserve
  // against (the attrib_test / bench-gate invariant): sums over principals
  // equal these to within FP accumulation order.
  obs::Json global;
  double disk_ms = reset_disk_ms_ + data_stats().busy_ms();
  double mds_cpu = 0.0;
  for (const auto& m : mds_) {
    disk_ms += m->fs().disk().stats().busy_ms();
    mds_cpu += m->stats().cpu_ms;
  }
  global["disk_ms"] = disk_ms;
  const sim::NetworkStats& mn = rpc_stack_.meta_network().stats();
  const sim::NetworkStats& dn = rpc_stack_.data_network().stats();
  global["net_ms"] = mn.time_ms + dn.time_ms;
  global["net_bytes"] = mn.bytes + dn.bytes;
  global["mds_cpu_ms"] = mds_cpu;
  if (const rpc::AsyncTransport* async = rpc_stack_.async()) {
    global["stall_ms"] = async->report().stall_ms;
  }
  if (const rpc::FaultTransport* fault = rpc_stack_.fault()) {
    global["fault_delay_ms"] = fault->stats().delay_total_ms;
  }
  j["global"] = global;
  j["fairness"] = attrib->fairness();
  return j;
}

void ParallelFileSystem::set_timeline(obs::Timeline* tl) {
  // The shards tick it from their handler boundaries through the shared
  // attachment; the cluster registers every gauge itself (per-shard
  // Mds::set_timeline would collide on the lens names).
  sinks_->timeline = tl;
  frag_lens_.reset();
  attrib_gauges_bound_ = false;
  attrib_gauge_keys_.clear();
  if (!tl) return;

  // Gauge closures capture raw pointers to the heap-pinned servers/targets
  // (unique_ptr-held), NOT `this` — benches move the PFS value around.
  std::vector<osd::StorageTarget*> tgts;
  for (auto& t : targets_) tgts.push_back(t.get());
  std::vector<mds::Mds*> servers;
  for (auto& m : mds_) servers.push_back(m.get());

  // A sample is stamped with the time the cluster as a whole has reached.
  tl->set_clock(cluster_clock(tgts, servers));

  for (std::size_t i = 0; i < tgts.size(); ++i) {
    osd::StorageTarget* t = tgts[i];
    const std::string p = "osd." + std::to_string(i);
    tl->add_gauge(p + ".queue_depth", [t] {
      return static_cast<double>(t->queue_depth());
    });
    tl->add_gauge(p + ".busy_frac", [t] { return t->busy_fraction(); });
    tl->add_gauge(p + ".head_block", [t] {
      return static_cast<double>(t->head_block());
    });
  }

  if (rpc::AsyncTransport* async = rpc_stack_.async()) {
    tl->add_gauge("rpc.pipeline.inflight", [async] {
      return static_cast<double>(async->inflight());
    });
    tl->add_gauge("rpc.pipeline.stalls", [async] {
      return static_cast<double>(async->report().stalls);
    });
    tl->add_gauge("rpc.pipeline.stall_ms",
                  [async] { return async->report().stall_ms; });
    tl->add_gauge("rpc.pipeline.depth", [async] {
      return static_cast<double>(async->report().depth);
    });
  }

  if (rpc::QosTransport* qos = rpc_stack_.qos()) {
    tl->add_gauge("qos.backlog",
                  [qos] { return static_cast<double>(qos->backlog()); });
    tl->add_gauge("qos.backlog_bytes", [qos] {
      return static_cast<double>(qos->backlog_bytes());
    });
  }

  if (cfg_.redundancy.enabled()) {
    redundancy::HealthMap* health = health_.get();
    redundancy::Stats* red = red_stats_.get();
    tl->add_gauge("redundancy.dead_targets", [health] {
      return static_cast<double>(health->dead_count());
    });
    tl->add_gauge("redundancy.degraded_reads", [red] {
      return static_cast<double>(
          red->degraded_reads.load(std::memory_order_relaxed));
    });
    if (redundancy::RepairService* rep = repair_.get()) {
      tl->add_gauge("repair.backlog", [rep] {
        return static_cast<double>(rep->backlog());
      });
      tl->add_gauge("repair.blocks_rebuilt", [rep] {
        return static_cast<double>(rep->stats().blocks_rebuilt);
      });
    }
  }

  if (shard::ShardedTransport* sharded = rpc_stack_.sharded()) {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      tl->add_gauge("shard." + std::to_string(i) + ".ops", [sharded, i] {
        const shard::ShardStats s = sharded->stats();
        return i < s.ops_per_shard.size()
                   ? static_cast<double>(s.ops_per_shard[i])
                   : 0.0;
      });
    }
  }

  const bool single = servers.size() == 1;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    servers[i]->add_timeline_gauges(
        *tl, single ? "mds" : "mds." + std::to_string(i));
  }

  // Cluster fragmentation lens: the data-side per-subfile extent
  // distribution and free-space runs (the paper's Table I view), plus the
  // namespace's per-directory degree from every shard.
  frag_lens_ = std::make_unique<obs::FragLens>();
  for (osd::StorageTarget* t : tgts) {
    frag_lens_->add_source([t](obs::FragSnapshot& s) {
      t->for_each_extent_count([&s](u64 extents) { s.add_file(extents); });
      s.free_run_count += t->space().add_free_runs(s.free_runs);
      s.free_blocks += t->space().free_blocks();
    });
  }
  for (mds::Mds* m : servers) {
    frag_lens_->add_source([m](obs::FragSnapshot& s) {
      m->fs().layout().scan_fragmentation(
          [](u64) {},  // files counted on the data side (subfile extents)
          [&s](double degree, u64 files) { s.add_dir(degree, files); });
    });
  }
  frag_lens_->bind(*tl);
}

void ParallelFileSystem::export_metrics(obs::MetricsRegistry& reg) const {
  // Single-MDS mounts keep the historical "mds" prefix (byte-identity with
  // the pre-sharding reports); multi-shard mounts export per shard.
  if (mds_.size() == 1) {
    mds_[0]->export_metrics(reg, "mds");
  } else {
    for (std::size_t i = 0; i < mds_.size(); ++i) {
      mds_[i]->export_metrics(reg, "mds." + std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    targets_[i]->export_metrics(reg, "osd." + std::to_string(i));
  }
  // Per-op envelope counters, latency histograms, the meta/data aggregates
  // and both simulated networks — everything the transport charges.
  rpc_stack_.export_metrics(reg, "rpc");

  // Cluster-wide aggregates under the names the paper's algorithm uses.
  alloc::AllocatorStats agg;
  for (const auto& t : targets_) {
    const alloc::AllocatorStats s = t->allocator().stats();
    agg.extends += s.extends;
    agg.fresh_allocations += s.fresh_allocations;
    agg.allocated_blocks += s.allocated_blocks;
    agg.layout_misses += s.layout_misses;
    agg.prealloc_promotions += s.prealloc_promotions;
    agg.reserved_blocks += s.reserved_blocks;
    agg.released_blocks += s.released_blocks;
    agg.prealloc_disabled += s.prealloc_disabled;
  }
  const std::string mode =
      obs::join_key("alloc", obs::metric_key(cfg_.target.allocator));
  obs::publish(reg, mode, agg);

  obs::publish(reg, "sim.disk", data_stats());
  obs::Histo& extents = reg.histogram("alloc.extents_per_file");
  obs::Stat& position = reg.stat("sim.disk.position_ms");
  for (const auto& t : targets_) {
    t->add_extent_counts(extents);
    position.merge_from(t->disk().position_times_ms());
  }

  // Redundancy & repair counters — only on replicated mounts, so default
  // reports stay byte-identical.
  if (cfg_.redundancy.enabled()) {
    reg.counter("redundancy.replicas").inc(cfg_.redundancy.replicas);
    reg.counter("redundancy.degraded_reads")
        .inc(red_stats_->degraded_reads.load(std::memory_order_relaxed));
    reg.counter("redundancy.replica_writes")
        .inc(red_stats_->replica_writes.load(std::memory_order_relaxed));
    reg.counter("redundancy.degraded_writes")
        .inc(red_stats_->degraded_writes.load(std::memory_order_relaxed));
    reg.counter("redundancy.lost_routes")
        .inc(red_stats_->lost_routes.load(std::memory_order_relaxed));
    reg.counter("redundancy.deaths").inc(health_->deaths());
    reg.counter("redundancy.dead_targets").inc(health_->dead_count());
    if (repair_) {
      const redundancy::RepairStats& rs = repair_->stats();
      reg.counter("repair.requested").inc(rs.requested);
      reg.counter("repair.completed").inc(rs.completed);
      reg.counter("repair.files_rebuilt").inc(rs.files_rebuilt);
      reg.counter("repair.extents_rebuilt").inc(rs.extents_rebuilt);
      reg.counter("repair.blocks_rebuilt").inc(rs.blocks_rebuilt);
      reg.counter("repair.bytes_rebuilt").inc(rs.bytes_rebuilt);
      reg.counter("repair.rounds").inc(rs.rounds);
      reg.counter("repair.rollbacks").inc(rs.rollbacks);
      reg.counter("repair.unrecoverable").inc(rs.unrecoverable);
      reg.stat("repair.completed_at_ms").add(rs.completed_at_ms);
    }
  }

  // Per-phase request-span latency distributions (span.<phase>), when a
  // collector is attached.
  if (sinks_->spans) sinks_->spans->export_metrics(reg);

  // End-of-run fragmentation snapshot, when a timeline is attached (the
  // lens caches the last sample, so this equals the final series values —
  // the invariant the bench-JSON CI gate checks).  Guarded so default
  // reports stay byte-identical.
  if (frag_lens_) frag_lens_->export_metrics(reg, "frag");
}

obs::Json ParallelFileSystem::metrics_json() const {
  obs::MetricsRegistry reg;
  export_metrics(reg);
  return reg.to_json();
}

}  // namespace mif::core
