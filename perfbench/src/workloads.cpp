// The four benchmark workloads.  Each is a closed loop on one host thread:
// the next call is issued only after the previous one returned, and simulated
// clients/ranks are interleaved by this code, not run on host threads.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "client/collective.hpp"
#include "core/pfs.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using mif::ClientId;
using mif::InodeNo;
using mif::Rng;
using mif::client::ClientFs;
using mif::core::ParallelFileSystem;

constexpr double kMB = 1e6;

/// Host µs spent in `fn`, added to `acc_us`, under a benchmark-owned span
/// named after the layer being called (a string literal).
template <typename Fn>
void timed(double& acc_us, Tracer* t, const char* span, Fn&& fn) {
  mif::obs::ScopedSpan s(collector(t), span);
  const auto t0 = Clock::now();
  fn();
  acc_us +=
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// --- library statistics snapshots -------------------------------------------

struct MdsSnap {
  u64 extent_ops{0};
  double cpu_ms{0.0};
  u64 cache_hits{0};
  u64 cache_misses{0};
  u64 cache_evictions{0};
  u64 disk_accesses{0};
  double disk_busy_ms{0.0};
  double elapsed_ms{0.0};

  void add(mif::mds::Mds& m) {
    extent_ops += m.stats().extent_ops;
    cpu_ms += m.stats().cpu_ms;
    const auto& c = m.fs().cache().stats();
    cache_hits += c.hits;
    cache_misses += c.misses;
    cache_evictions += c.evictions;
    disk_accesses += m.fs().disk_accesses();
    disk_busy_ms += m.fs().disk().stats().busy_ms();
    elapsed_ms += m.fs().elapsed_ms();
  }
};

struct ClusterSnap {
  MdsSnap mds;
  u64 envelopes{0};
  u64 net_bytes{0};
  double stall_ms{0.0};
  u64 formation_queued{0};
  u64 formation_frames{0};
  std::vector<u64> shard_ops;
  u64 shard_meta_ops{0};
  u64 shard_fanout{0};
  u64 replica_writes{0};
  u64 layout_misses{0};
  u64 prealloc_promotions{0};
  mif::sim::DiskStats data{};
  double data_ms{0.0};
  u64 client_reads{0};
  u64 readahead_hits{0};
  u64 client_opens{0};
  u64 layout_cache_hits{0};
};

ClusterSnap snap(ParallelFileSystem& fs,
                 const std::vector<const ClientFs*>& clients) {
  ClusterSnap s;
  for (std::size_t i = 0; i < fs.mds_shards(); ++i) s.mds.add(fs.mds(i));
  mif::rpc::TransportStack& tr = fs.transport();
  for (std::size_t op = 0; op < mif::rpc::kOpCount; ++op)
    s.envelopes += tr.wire().op_counters(static_cast<mif::rpc::Op>(op)).count;
  s.net_bytes =
      tr.meta_network().stats().bytes + tr.data_network().stats().bytes;
  if (const auto* a = tr.async()) s.stall_ms = a->report().stall_ms;
  if (const auto* f = tr.formation()) {
    s.formation_queued = f->stats().queued;
    s.formation_frames = f->stats().frames;
  }
  if (const auto* sh = tr.sharded()) {
    const mif::shard::ShardStats st = sh->stats();
    s.shard_ops = st.ops_per_shard;
    s.shard_meta_ops = st.meta_ops;
    s.shard_fanout = st.fanout_requests;
  }
  s.replica_writes = fs.redundancy_stats().replica_writes.load();
  for (std::size_t i = 0; i < fs.num_targets(); ++i) {
    const mif::alloc::AllocatorStats a = fs.target(i).allocator().stats();
    s.layout_misses += a.layout_misses;
    s.prealloc_promotions += a.prealloc_promotions;
  }
  s.data = fs.data_stats();
  s.data_ms = fs.data_elapsed_ms();
  for (const ClientFs* c : clients) {
    s.client_reads += c->stats().reads;
    s.readahead_hits += c->stats().readahead_hits;
    s.client_opens += c->stats().opens;
    s.layout_cache_hits += c->stats().layout_cache_hits;
  }
  return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Free-space runs on the metadata volume(s): how fragmented the MDS free
/// space is when measuring starts.
u64 meta_free_runs(mif::mds::Mds& m) {
  mif::Histogram h;
  return m.fs().space().add_free_runs(h);
}

u64 meta_free_runs(ParallelFileSystem& fs) {
  u64 runs = 0;
  for (std::size_t i = 0; i < fs.mds_shards(); ++i)
    runs += meta_free_runs(fs.mds(i));
  return runs;
}

void add_mds_layers(Episode& e, const MdsSnap& a, const MdsSnap& b,
                    double ops) {
  e.layer["mds.cpu_ms_per_op"] = ratio(b.cpu_ms - a.cpu_ms, ops);
  e.layer["mds.extent_ops_per_op"] =
      ratio(static_cast<double>(b.extent_ops - a.extent_ops), ops);
  const double hits = static_cast<double>(b.cache_hits - a.cache_hits);
  const double misses = static_cast<double>(b.cache_misses - a.cache_misses);
  e.layer["mfs.cache_hit_ratio"] = ratio(hits, hits + misses);
  e.layer["mfs.cache_evictions_per_op"] =
      ratio(static_cast<double>(b.cache_evictions - a.cache_evictions), ops);
  e.layer["mfs.disk_accesses_per_op"] =
      ratio(static_cast<double>(b.disk_accesses - a.disk_accesses), ops);
  e.layer["sim.meta.disk_ms_per_op"] =
      ratio(b.disk_busy_ms - a.disk_busy_ms, ops);
}

/// User-visible work of a measured phase, the bases of the per-layer ratios.
struct Work {
  double ops{0.0};
  double write_ops{0.0};
  double bytes_written{0.0};
  double bytes_read{0.0};
};

void add_cluster_layers(Episode& e, const ClusterSnap& a, const ClusterSnap& b,
                        const Work& w) {
  add_mds_layers(e, a.mds, b.mds, w.ops);
  const double moved = w.bytes_written + w.bytes_read;
  e.layer["client.readahead_hit_ratio"] =
      ratio(static_cast<double>(b.readahead_hits - a.readahead_hits),
            static_cast<double>(b.client_reads - a.client_reads));
  e.layer["client.layout_cache_hit_ratio"] =
      ratio(static_cast<double>(b.layout_cache_hits - a.layout_cache_hits),
            static_cast<double>(b.client_opens - a.client_opens));
  e.layer["rpc.envelopes_per_op"] =
      ratio(static_cast<double>(b.envelopes - a.envelopes), w.ops);
  e.layer["rpc.wire_bytes_per_user_byte"] =
      ratio(static_cast<double>(b.net_bytes - a.net_bytes), moved);
  e.layer["rpc.pipeline.stall_ms"] = b.stall_ms - a.stall_ms;
  e.layer["rpc.formation.msgs_per_frame"] =
      ratio(static_cast<double>(b.formation_queued - a.formation_queued),
            static_cast<double>(b.formation_frames - a.formation_frames));
  e.layer["shard.fanout_per_op"] =
      ratio(static_cast<double>(b.shard_fanout - a.shard_fanout),
            static_cast<double>(b.shard_meta_ops - a.shard_meta_ops));
  if (!b.shard_ops.empty()) {
    double sum = 0.0;
    double peak = 0.0;
    for (std::size_t i = 0; i < b.shard_ops.size(); ++i) {
      const double d = static_cast<double>(
          b.shard_ops[i] - (i < a.shard_ops.size() ? a.shard_ops[i] : 0));
      sum += d;
      peak = std::max(peak, d);
    }
    e.layer["shard.imbalance"] =
        ratio(peak, sum / static_cast<double>(b.shard_ops.size()));
  }
  e.layer["redundancy.replica_writes_per_write"] = ratio(
      static_cast<double>(b.replica_writes - a.replica_writes), w.write_ops);
  e.layer["alloc.layout_miss_per_mb"] =
      ratio(static_cast<double>(b.layout_misses - a.layout_misses),
            w.bytes_written / kMB);
  e.layer["alloc.pre_alloc_layout_per_mb"] = ratio(
      static_cast<double>(b.prealloc_promotions - a.prealloc_promotions),
      w.bytes_written / kMB);
  e.layer["sim.data.positionings_per_mb"] = ratio(
      static_cast<double>(b.data.positionings - a.data.positionings),
      moved / kMB);
  e.layer["sim.data.dispatches_per_mb"] = ratio(
      static_cast<double>(b.data.requests - a.data.requests), moved / kMB);
  const double position_ms = (b.data.seek_ms + b.data.rotation_ms +
                              b.data.skip_ms) -
                             (a.data.seek_ms + a.data.rotation_ms +
                              a.data.skip_ms);
  e.layer["sim.data.position_ms_share"] =
      ratio(position_ms, b.data.busy_ms() - a.data.busy_ms());
}

/// Host self time per layer from the traced episode's spans, plus the
/// benchmark-timed layer figures.  `ops` is the number of timed calls.
void add_host_layers(Episode& e, Tracer* t, double ops, double drain_us,
                     double finish_us) {
  e.layer["core.drain_us"] = ratio(drain_us, ops);
  e.layer["mds.finish_us"] = ratio(finish_us, ops);
  if (!t) return;
  t->drain();
  const SpanTotals& s = t->totals();
  auto self = [&](const char* layer) {
    const auto it = s.self_us.find(layer);
    return it == s.self_us.end() ? 0.0 : it->second;
  };
  e.layer["client.self_us"] = ratio(self("client"), ops);
  e.layer["client.collective.exchange_us"] =
      ratio(self("client.collective"), ops);
  const auto rpc_spans = s.spans.find("rpc");
  e.layer["rpc.self_us"] =
      ratio(self("rpc"), rpc_spans == s.spans.end()
                             ? 0.0
                             : static_cast<double>(rpc_spans->second));
  e.layer["shard.self_us"] = ratio(self("shard"), ops);
  e.layer["mds.self_us"] = ratio(self("mds"), ops);
  e.layer["mfs.journal.self_us"] = ratio(self("mfs.journal"), ops);
  e.layer["alloc.self_us"] = ratio(self("alloc"), ops);
  e.layer["osd.stripe_unit.self_us"] = ratio(self("osd.stripe_unit"), ops);
  e.layer["core.unspanned_share"] =
      std::max(0.0, 1.0 - ratio(s.covered_us, e.measure_s * 1e6));
  e.layer["obs.spans_dropped"] = static_cast<double>(t->dropped());
}

/// Correctness gate shared by the cluster workloads: fsck of every storage
/// target and every metadata shard, and each listed file's extent count as
/// the cluster reports it equal to what the targets report over RPC.
/// Returns the blocks mapped across all targets.
u64 check_cluster(Episode& e, ParallelFileSystem& fs,
                  const std::vector<InodeNo>& files) {
  u64 mapped = 0;
  for (std::size_t i = 0; i < fs.num_targets(); ++i) {
    const auto r = fs.target(i).verify();
    e.check(r.ok(), "StorageTarget::verify failed on target " +
                        std::to_string(i));
    mapped += r.mapped_blocks;
  }
  for (std::size_t i = 0; i < fs.mds_shards(); ++i) {
    e.check(fs.mds(i).fs().layout().verify().ok(),
            "DirLayout::verify failed on MDS " + std::to_string(i));
  }
  for (InodeNo ino : files) {
    u64 remote = 0;
    for (u32 t = 0; t < fs.num_targets(); ++t) {
      const auto n = fs.rpc().target_extents(t, ino);
      e.check(n.ok(), "target_extents RPC failed");
      remote += n.value_or(0);
    }
    e.check(fs.file_extents(ino) == remote,
            "file_extents != sum of target_extents for inode " +
                std::to_string(ino.v));
  }
  return mapped;
}

/// Fisher-Yates shuffle driven by the workload's seeded generator.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.uniform(0, i - 1)]);
}

/// `n` flags of which exactly `n / every` are set, at seeded positions.
std::vector<char> seeded_subset(u32 n, u32 every, Rng& rng) {
  std::vector<char> v(n, 0);
  std::fill(v.begin(), v.begin() + n / every, 1);
  shuffle(v, rng);
  return v;
}

double sim_seconds(const ClusterSnap& a, const ClusterSnap& b) {
  return ((b.data_ms - a.data_ms) + (b.mds.elapsed_ms - a.mds.elapsed_ms)) *
         1e-3;
}

}  // namespace

// --- shared_stream -----------------------------------------------------------

Episode run_shared_stream(const SharedStreamOptions& o, u64 seed, Tracer* t) {
  Episode e;
  const auto s0 = Clock::now();
  mif::core::ClusterConfig cfg;
  cfg.num_targets = 5;
  cfg.target.allocator = mif::alloc::AllocatorMode::kOnDemand;
  ParallelFileSystem fs(cfg);
  ClientFs client = fs.connect(ClientId{1});
  const auto fh = client.create("/shared.odb");
  constexpr u32 tpc = 4;                 // pids per client
  constexpr u64 kRequestBlocks = 4;      // 16 KiB writes
  constexpr u64 kReadSegments = 1024;
  const u32 processes = o.clients * tpc;
  std::vector<ClientFs> nodes;
  nodes.reserve(o.clients);
  for (u32 n = 0; n < o.clients; ++n)
    nodes.push_back(fs.connect(ClientId{2 + n}));
  e.setup_s = seconds_since(s0);
  e.check(fh.ok(), "create /shared.odb failed");
  if (!fh) return e;

  std::vector<const ClientFs*> all{&client};
  for (const ClientFs& c : nodes) all.push_back(&c);
  fs.set_spans(collector(t));
  e.layer["block.meta_free_runs"] = static_cast<double>(meta_free_runs(fs));
  const ClusterSnap a = snap(fs, all);
  double drain_us = 0.0;
  double finish_us = 0.0;
  const auto m0 = Clock::now();
  const double f0 = t ? t->folding_s() : 0.0;

  // Phase 1: every stream extends its own region of the shared file; a
  // stream advances with probability `pacing` per scheduler step.
  const u64 rounds = (o.blocks_per_process + kRequestBlocks - 1) /
                     kRequestBlocks;
  Rng rng(seed);
  std::vector<u64> next(processes, 0);
  u64 remaining = static_cast<u64>(processes) * rounds;
  while (remaining > 0) {
    for (u32 p = 0; p < processes; ++p) {
      if (next[p] >= rounds) continue;
      if (o.pacing < 1.0 && !rng.chance(o.pacing)) continue;
      const u64 off = next[p] * kRequestBlocks;
      const u64 len = std::min(kRequestBlocks, o.blocks_per_process - off);
      const u64 start = static_cast<u64>(p) * o.blocks_per_process + off;
      ClientFs& c = nodes[p / tpc];
      (void)e.ops.time(OpClass::kWrite, [&] {
        return c.write(*fh, p % tpc, mif::blocks_to_bytes(start),
                       mif::blocks_to_bytes(len));
      });
      maybe_drain(t);
      ++next[p];
      --remaining;
    }
  }
  timed(drain_us, t, "core.drain", [&] { fs.drain_data(); });
  const double phase1_ms = fs.data_elapsed_ms() - a.data_ms;
  (void)e.ops.time(OpClass::kClose, [&] { return client.close(*fh); });
  const u64 extents = fs.file_extents(fh->ino);

  // Phase 2: the file is split into segments, each read sequentially.
  const ClusterSnap mid = snap(fs, all);
  const u64 total_blocks = static_cast<u64>(processes) * o.blocks_per_process;
  const u64 seg = std::max<u64>(1, total_blocks / kReadSegments);
  const auto rfh =
      e.ops.time(OpClass::kOpen, [&] { return client.open("/shared.odb"); });
  if (rfh) {
    for (u64 start = 0; start < total_blocks; start += seg) {
      const u64 len = std::min(seg, total_blocks - start);
      (void)e.ops.time(OpClass::kRead, [&] {
        return client.read(*rfh, mif::blocks_to_bytes(start),
                           mif::blocks_to_bytes(len));
      });
      maybe_drain(t);
    }
  }
  timed(drain_us, t, "core.drain", [&] { fs.drain_data(); });
  const double phase2_ms = fs.data_elapsed_ms() - mid.data_ms;
  const u64 positionings = fs.data_stats().positionings - mid.data.positionings;
  timed(finish_us, t, "mds.finish", [&] { fs.finish_mds(); });
  e.measure_s = seconds_since(m0) - (t ? t->folding_s() - f0 : 0.0);
  const ClusterSnap b = snap(fs, all);

  const double ops = static_cast<double>(e.ops.total_attempted());
  const double bytes = static_cast<double>(mif::blocks_to_bytes(total_blocks));
  e.sim["phase1_ms"] = phase1_ms;
  e.sim["phase2_ms"] = phase2_ms;
  e.sim["positionings"] = static_cast<double>(positionings);
  e.sim["mds_cpu"] =
      fs.mds().stats().cpu_ms / std::max(phase1_ms + phase2_ms, 1e-9);
  e.sim["sim_data_mbps"] = bytes / (phase2_ms * 1e-3) / kMB;
  e.sim["sim_extents_per_file"] = static_cast<double>(extents);
  e.sim["sim_ops_per_s"] = ops / sim_seconds(a, b);
  add_cluster_layers(e, a, b, {ops, static_cast<double>(processes * rounds),
                               bytes, bytes});
  add_host_layers(e, t, ops, drain_us, finish_us);
  fs.set_spans(nullptr);

  const u64 mapped = check_cluster(e, fs, {fh->ino});
  e.check(mapped >= total_blocks, "mapped blocks " + std::to_string(mapped) +
                                      " < blocks written " +
                                      std::to_string(total_blocks));
  return e;
}

// --- mds_aging ---------------------------------------------------------------

mif::mds::MdsConfig aging_mds_config() {
  mif::mds::MdsConfig cfg;
  cfg.mfs.mode = mif::mfs::DirectoryMode::kNormal;
  cfg.mfs.discipline = mif::mfs::LookupDiscipline::kLinearScan;
  cfg.mfs.geometry.capacity_blocks = 128 * 1024;  // 512 MiB metadata volume
  cfg.mfs.journal_area_blocks = 4096;
  cfg.mfs.cache_blocks = 512;
  cfg.mfs.alloc_groups = 4;
  return cfg;
}

Episode run_mds_aging(const MdsAgingOptions& o, u64 seed, Tracer* t) {
  constexpr double kDeleteFraction = 0.5;
  constexpr u64 kExtentsPerFile = 64;  // survivors pin mapping blocks
  constexpr u32 kMaxRounds = 400;
  Episode e;
  const auto s0 = Clock::now();
  mif::mds::Mds mds(aging_mds_config());
  Rng rng(seed);
  // Churn: create a directory of files with fragmented mappings, unlink a
  // seeded share of them, until the volume reaches the target utilisation.
  u32 round = 0;
  while (round == 0 ||
         (mds.fs().space().utilisation() < o.target_utilisation &&
          round < kMaxRounds)) {
    const std::string dir = "churn" + std::to_string(round);
    e.check(mds.mkdir(dir).ok(), "mkdir " + dir + " failed");
    std::vector<std::string> names;
    names.reserve(o.files_per_round);
    bool full = false;
    for (u32 f = 0; f < o.files_per_round; ++f) {
      const std::string path = dir + "/f" + std::to_string(f);
      const auto ino = mds.create(path);
      if (!ino) {
        full = true;
        break;
      }
      e.check(mds.report_extents(*ino, kExtentsPerFile).ok(),
              "report_extents failed");
      names.push_back(path);
    }
    for (const std::string& path : names) {
      if (rng.chance(kDeleteFraction))
        e.check(mds.unlink(path).ok(), "churn unlink failed");
    }
    ++round;
    if (full) break;
  }
  const double utilisation = mds.fs().space().utilisation();
  mds.finish();
  mds.fs().cache().invalidate_all();
  e.setup_s = seconds_since(s0);
  e.check(utilisation >= o.target_utilisation,
          "aging stopped at utilisation " + std::to_string(utilisation));

  mds.set_spans(collector(t));
  e.layer["block.meta_free_runs"] = static_cast<double>(meta_free_runs(mds));
  MdsSnap a;
  a.add(mds);
  double finish_us = 0.0;
  const auto m0 = Clock::now();
  const double f0 = t ? t->folding_s() : 0.0;

  // Measured phase: creates spread over the newest aged directories, then
  // the same files unlinked, each half closed by a journal flush.  It runs
  // `repeats` times on the one aged volume: the unlinks give the directories
  // back their aged contents, so every repetition issues the same calls.
  // Only the first repetition's simulated results are reported.
  const u32 dirs = std::min<u32>(o.measure_dirs, std::max<u32>(1, round));
  for (u32 rep = 0; rep < o.repeats; ++rep) {
    if (rep > 0) mds.fs().cache().invalidate_all();
    std::vector<std::string> paths;
    const double c0 = mds.fs().elapsed_ms();
    const u64 ca0 = mds.fs().disk_accesses();
    for (u32 f = 0; f < o.measure_files; ++f) {
      for (u32 d = 0; d < dirs; ++d) {
        std::string path = "churn" + std::to_string(round - 1 - d) + "/m" +
                           std::to_string(f);
        const auto ino = e.ops.time(OpClass::kCreate, [&] {
          mif::obs::ScopedSpan s(collector(t), "mds.call");
          return mds.create(path);
        });
        maybe_drain(t);
        if (ino) paths.push_back(std::move(path));
      }
    }
    timed(finish_us, t, "mds.finish", [&] { mds.finish(); });
    const double create_ms = mds.fs().elapsed_ms() - c0;
    const u64 create_accesses = mds.fs().disk_accesses() - ca0;

    mds.fs().cache().invalidate_all();
    const double d0 = mds.fs().elapsed_ms();
    const u64 da0 = mds.fs().disk_accesses();
    for (const std::string& path : paths) {
      (void)e.ops.time(OpClass::kUnlink, [&] {
        mif::obs::ScopedSpan s(collector(t), "mds.call");
        return mds.unlink(path);
      });
      maybe_drain(t);
    }
    timed(finish_us, t, "mds.finish", [&] { mds.finish(); });
    if (rep > 0) continue;
    const double delete_ms = mds.fs().elapsed_ms() - d0;
    const double n = static_cast<double>(paths.size());
    e.rep_calls = e.ops.calls.size();
    e.sim["rounds"] = round;
    e.sim["utilisation_reached"] = utilisation;
    e.sim["create_ops_per_sec"] = n / std::max(create_ms * 1e-3, 1e-12);
    e.sim["delete_ops_per_sec"] = n / std::max(delete_ms * 1e-3, 1e-12);
    e.sim["create_disk_accesses"] = static_cast<double>(create_accesses);
    e.sim["delete_disk_accesses"] =
        static_cast<double>(mds.fs().disk_accesses() - da0);
    e.sim["sim_ops_per_s"] =
        static_cast<double>(e.rep_calls) /
        ((mds.fs().elapsed_ms() - a.elapsed_ms) * 1e-3);
  }
  e.measure_s = seconds_since(m0) - (t ? t->folding_s() - f0 : 0.0);
  MdsSnap b;
  b.add(mds);

  const double ops = static_cast<double>(e.ops.total_attempted());
  add_mds_layers(e, a, b, ops);
  add_host_layers(e, t, ops, 0.0, finish_us);
  mds.set_spans(nullptr);

  e.check(mds.fs().layout().verify().ok(), "DirLayout::verify failed");
  return e;
}

// --- small_files -------------------------------------------------------------

Episode run_small_files(u64 seed, Tracer* t) {
  constexpr u32 kBaseFiles = 5000;
  constexpr u32 kTransactions = 15000;
  constexpr u32 kSubdirectories = 100;
  constexpr u64 kMinFileBytes = 512;
  constexpr u64 kMaxFileBytes = 16 * 1024;
  constexpr u64 kCacheBlocks = 16384;  // holds the whole working set
  struct LiveFile {
    std::string path;
    InodeNo ino{};
    u64 size{0};
  };
  Episode e;
  const auto s0 = Clock::now();
  mif::core::ClusterConfig cfg;
  cfg.num_targets = 4;
  cfg.target.allocator = mif::alloc::AllocatorMode::kOnDemand;
  cfg.mds.mfs.mode = mif::mfs::DirectoryMode::kEmbedded;
  cfg.mds.mfs.cache_blocks = kCacheBlocks;
  ParallelFileSystem fs(cfg);
  ClientFs client = fs.connect(ClientId{1});
  Rng rng(seed);
  for (u32 d = 0; d < kSubdirectories; ++d)
    e.check(fs.rpc().mkdir("s" + std::to_string(d)).ok(), "mkdir failed");

  std::vector<LiveFile> files;
  files.reserve(kBaseFiles + kTransactions);
  u64 serial = 0;
  // One PostMark create: create, write the whole file, close.  `log` is
  // null while pre-filling the base pool (set-up is not per-call timed).
  auto make_file = [&](OpLog* log) {
    const u32 d = static_cast<u32>(rng.uniform(0, kSubdirectories - 1));
    LiveFile f;
    f.path = "s" + std::to_string(d) + "/p" + std::to_string(serial++);
    f.size = rng.uniform(kMinFileBytes, kMaxFileBytes);
    auto run = [&](OpClass c, auto&& fn) {
      return log ? log->time(c, fn) : fn();
    };
    const auto fh =
        run(OpClass::kCreate, [&] { return client.create(f.path); });
    if (!fh) {
      e.check(log != nullptr, "base-pool create failed");
      return;
    }
    f.ino = fh->ino;
    const mif::Status w =
        run(OpClass::kWrite, [&] { return client.write(*fh, 0, 0, f.size); });
    const mif::Status c =
        run(OpClass::kClose, [&] { return client.close(*fh); });
    if (!log) e.check(w.ok() && c.ok(), "base-pool write failed");
    files.push_back(std::move(f));
  };
  for (u32 i = 0; i < kBaseFiles; ++i) make_file(nullptr);
  e.setup_s = seconds_since(s0);

  fs.set_spans(collector(t));
  e.layer["block.meta_free_runs"] = static_cast<double>(meta_free_runs(fs));
  const ClusterSnap a = snap(fs, {&client});
  double drain_us = 0.0;
  double finish_us = 0.0;
  u64 bytes_written = 0;
  u64 bytes_read = 0;
  // Exactly half the transactions create (the rest delete) and exactly half
  // read (the rest append), so every seed issues the same mix of calls.
  const std::vector<char> creates = seeded_subset(kTransactions, 2, rng);
  const std::vector<char> reads = seeded_subset(kTransactions, 2, rng);
  const auto m0 = Clock::now();
  const double f0 = t ? t->folding_s() : 0.0;
  for (u32 tx = 0; tx < kTransactions; ++tx) {
    if (creates[tx]) {
      const std::size_t before = files.size();
      make_file(&e.ops);
      if (files.size() > before) bytes_written += files.back().size;
    } else if (!files.empty()) {
      const std::size_t i = rng.uniform(0, files.size() - 1);
      (void)e.ops.time(OpClass::kUnlink, [&] {
        const mif::Status s = fs.rpc().unlink(files[i].path);
        fs.delete_file(files[i].ino);
        return s;
      });
      files[i] = std::move(files.back());
      files.pop_back();
    }
    maybe_drain(t);
    if (files.empty()) continue;
    LiveFile& f = files[rng.uniform(0, files.size() - 1)];
    const auto fh =
        e.ops.time(OpClass::kOpen, [&] { return client.open(f.path); });
    if (!fh) continue;
    if (reads[tx]) {
      const u64 len = std::max<u64>(f.size, 1);
      (void)e.ops.time(OpClass::kRead,
                       [&] { return client.read(*fh, 0, len); });
      bytes_read += len;
    } else {
      const u64 grow = rng.uniform(kMinFileBytes, kMaxFileBytes);
      (void)e.ops.time(OpClass::kWrite,
                       [&] { return client.write(*fh, 0, f.size, grow); });
      f.size += grow;
      bytes_written += grow;
      (void)e.ops.time(OpClass::kClose, [&] { return client.close(*fh); });
    }
    maybe_drain(t);
  }
  timed(drain_us, t, "core.drain", [&] { fs.drain_data(); });
  timed(finish_us, t, "mds.finish", [&] { fs.finish_mds(); });
  e.measure_s = seconds_since(m0) - (t ? t->folding_s() - f0 : 0.0);
  const ClusterSnap b = snap(fs, {&client});

  const double ops = static_cast<double>(e.ops.total_attempted());
  const double sim_s = sim_seconds(a, b);
  e.sim["transactions_per_sec"] = kTransactions / sim_s;
  e.sim["sim_ops_per_s"] = ops / sim_s;
  u64 extents = 0;
  u64 blocks = 0;
  std::vector<InodeNo> inos;
  inos.reserve(files.size());
  for (const LiveFile& f : files) {
    extents += fs.file_extents(f.ino);
    blocks += mif::bytes_to_blocks(f.size);
    inos.push_back(f.ino);
  }
  e.sim["sim_extents_per_file"] =
      ratio(static_cast<double>(extents), static_cast<double>(files.size()));
  const double write_ops = static_cast<double>(
      e.ops.attempted[static_cast<std::size_t>(OpClass::kWrite)]);
  add_cluster_layers(e, a, b,
                     {ops, write_ops, static_cast<double>(bytes_written),
                      static_cast<double>(bytes_read)});
  add_host_layers(e, t, ops, drain_us, finish_us);
  fs.set_spans(nullptr);

  const u64 mapped = check_cluster(e, fs, inos);
  e.check(mapped >= blocks, "mapped blocks " + std::to_string(mapped) +
                                " < live file blocks " +
                                std::to_string(blocks));
  return e;
}

// --- stacked_collective ------------------------------------------------------

Episode run_stacked_collective(u64 seed, Tracer* t) {
  constexpr u32 kRanks = 64;
  constexpr u64 kRequestBytes = 16 * 1024;
  constexpr u32 kRounds = 512;  // per phase: 1024 rounds, so rounds have a p99
  /// One round in this many, placed by the seed, is followed by the
  /// metadata burst.
  constexpr u32 kMetadataEvery = 2;
  Episode e;
  const auto s0 = Clock::now();
  mif::core::ClusterConfig cfg;
  cfg.num_targets = 8;
  cfg.target.allocator = mif::alloc::AllocatorMode::kOnDemand;
  cfg.list_io_max_runs = 64;
  cfg.rpc.pipeline_depth = 8;
  cfg.rpc.kind = mif::rpc::TransportOptions::Kind::kFormation;
  cfg.mds.shards = 3;
  cfg.mds.placement = mif::shard::Policy::kHash;
  cfg.redundancy.replicas = 2;
  ParallelFileSystem fs(cfg);
  ClientFs client = fs.connect(ClientId{1});
  const auto fh = client.create("/ior.dat");
  Rng rng(seed);
  // Rank directory names carry a seeded tag.  Under hash placement the
  // pathnames decide which shard serves each small file, so the seed also
  // sets how the metadata load spreads over the shards.
  std::vector<std::string> rank_dir;
  for (u32 p = 0; p < kRanks; ++p) {
    rank_dir.push_back("r" + std::to_string(p) + "." +
                       std::to_string(rng.uniform(0, 999999)));
    e.check(fs.rpc().mkdir(rank_dir.back()).ok(), "mkdir failed");
  }
  mif::client::CollectiveWriter coll(client);
  e.setup_s = seconds_since(s0);
  e.check(fh.ok(), "create /ior.dat failed");
  if (!fh) return e;

  fs.set_spans(collector(t));
  e.layer["block.meta_free_runs"] = static_cast<double>(meta_free_runs(fs));
  const ClusterSnap a = snap(fs, {&client});
  double drain_us = 0.0;
  double finish_us = 0.0;
  u64 serial = 0;
  const u64 bytes_per_rank = kRequestBytes * kRounds;
  auto round_requests = [&](u32 r) {
    std::vector<mif::client::IoRequest> reqs;
    reqs.reserve(kRanks);
    for (u32 p = 0; p < kRanks; ++p)
      reqs.push_back({p, p * bytes_per_rank + r * kRequestBytes,
                      kRequestBytes});
    shuffle(reqs, rng);
    return reqs;
  };
  // The metadata burst: every rank creates a small file in its own
  // directory, then every rank unlinks it again.  Like a collective round,
  // each half is one timed call that fails if any rank's call fails.
  auto burst = [&] {
    std::vector<std::string> paths;
    paths.reserve(kRanks);
    for (u32 p = 0; p < kRanks; ++p)
      paths.push_back(rank_dir[p] + "/m" + std::to_string(serial++));
    (void)e.ops.time(OpClass::kCreate, [&] {
      bool ok = true;
      for (const std::string& path : paths) ok &= client.create(path).ok();
      return ok;
    });
    (void)e.ops.time(OpClass::kUnlink, [&] {
      bool ok = true;
      for (const std::string& path : paths) ok &= fs.rpc().unlink(path).ok();
      return ok;
    });
  };
  const std::vector<char> write_bursts =
      seeded_subset(kRounds, kMetadataEvery, rng);
  const std::vector<char> read_bursts =
      seeded_subset(kRounds, kMetadataEvery, rng);
  const auto m0 = Clock::now();
  const double f0 = t ? t->folding_s() : 0.0;
  for (u32 r = 0; r < kRounds; ++r) {
    auto reqs = round_requests(r);
    (void)e.ops.time(OpClass::kWrite,
                     [&] { return coll.write_round(*fh, std::move(reqs)); });
    if (write_bursts[r]) burst();
    maybe_drain(t);
  }
  timed(drain_us, t, "core.drain", [&] { fs.drain_data(); });
  const double write_ms = fs.data_elapsed_ms() - a.data_ms;
  (void)e.ops.time(OpClass::kClose, [&] { return client.close(*fh); });
  const u64 extents = fs.file_extents(fh->ino);

  const double r0 = fs.data_elapsed_ms();
  const auto rfh =
      e.ops.time(OpClass::kOpen, [&] { return client.open("/ior.dat"); });
  for (u32 r = 0; r < kRounds && rfh; ++r) {
    auto reqs = round_requests(r);
    (void)e.ops.time(OpClass::kRead,
                     [&] { return coll.read_round(*rfh, std::move(reqs)); });
    if (read_bursts[r]) burst();
    maybe_drain(t);
  }
  timed(drain_us, t, "core.drain", [&] { fs.drain_data(); });
  const double read_ms = fs.data_elapsed_ms() - r0;
  timed(finish_us, t, "mds.finish", [&] { fs.finish_mds(); });
  e.measure_s = seconds_since(m0) - (t ? t->folding_s() - f0 : 0.0);
  const ClusterSnap b = snap(fs, {&client});

  const double ops = static_cast<double>(e.ops.total_attempted());
  const double bytes = static_cast<double>(bytes_per_rank) * kRanks;
  e.sim["write_ms"] = write_ms;
  e.sim["read_ms"] = read_ms;
  e.sim["sim_data_mbps"] = bytes / (read_ms * 1e-3) / kMB;
  e.sim["sim_extents_per_file"] = static_cast<double>(extents);
  e.sim["sim_ops_per_s"] = ops / sim_seconds(a, b);
  add_cluster_layers(e, a, b,
                     {ops, static_cast<double>(kRounds), bytes, bytes});
  add_host_layers(e, t, ops, drain_us, finish_us);
  fs.set_spans(nullptr);

  const u64 mapped = check_cluster(e, fs, {fh->ino});
  const u64 expect = cfg.redundancy.replicas * mif::bytes_to_blocks(
                                                   static_cast<u64>(bytes));
  e.check(mapped >= expect, "mapped blocks " + std::to_string(mapped) +
                                " < replicas x blocks written " +
                                std::to_string(expect));
  return e;
}

}  // namespace perfbench
