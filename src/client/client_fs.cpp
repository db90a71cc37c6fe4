#include "client/client_fs.hpp"

#include <optional>

#include "core/pfs.hpp"
#include "obs/attrib.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"

namespace mif::client {

ClientFs::ClientFs(core::ParallelFileSystem& fs, ClientId id)
    : fs_(&fs), id_(id) {}

void ClientFs::export_metrics(obs::MetricsRegistry& reg,
                              std::string_view prefix) const {
  obs::publish(reg, prefix, stats_);
}

Result<FileHandle> ClientFs::create(std::string_view path) {
  obs::ScopedSpan span(fs_->spans(), "client.create", id_.v);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kMeta});
  auto ino = fs_->rpc().create(path);
  if (!ino) return ino.error();
  ++stats_.opens;
  return FileHandle{*ino, std::string(path)};
}

Result<FileHandle> ClientFs::open(std::string_view path) {
  obs::ScopedSpan span(fs_->spans(), "client.open", id_.v);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kMeta});
  ++stats_.opens;
  if (layout_cache_.find(path)) {
    // Layout already cached from an earlier open; the resolve envelope is a
    // free revalidation of the cached handle (traits(kResolve).free).
    ++stats_.layout_cache_hits;
    auto ino = fs_->rpc().resolve(path);
    if (!ino) return ino.error();
    return FileHandle{*ino, std::string(path)};
  }
  auto r = fs_->rpc().open_getlayout(path);
  if (!r) return r.error();
  cache_layout(path);
  return FileHandle{r->ino, std::string(path)};
}

void ClientFs::cache_layout(std::string_view path) {
  if (layout_cache_.find(path)) return;
  // With no ordinal freed, the bound ones are exactly [0, size()).
  u64 ordinal = layout_cache_.size();
  if (!free_layout_ordinals_.empty()) {
    ordinal = free_layout_ordinals_.back();
    free_layout_ordinals_.pop_back();
  }
  layout_cache_.insert(path, ordinal);
}

Result<FileHandle> ClientFs::rename(std::string_view from,
                                    std::string_view to) {
  obs::ScopedSpan span(fs_->spans(), "client.rename", id_.v);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kMeta});
  auto ino = fs_->rpc().rename(from, to);
  if (!ino) return ino.error();
  // A cross-shard rename mints a new inode; drop the stale cached layout so
  // the next open re-fetches under the new name.
  if (auto ordinal = layout_cache_.find(from)) {
    layout_cache_.erase(from);
    free_layout_ordinals_.push_back(static_cast<u32>(*ordinal));
  }
  return FileHandle{*ino, std::string(to)};
}

Status ClientFs::write(const FileHandle& fh, u32 pid, u64 offset_bytes,
                       u64 len_bytes) {
  std::vector<rpc::Ticket> tickets;
  Status issued = write_async(fh, pid, offset_bytes, len_bytes, tickets);
  Status drained = drain(tickets);
  return issued.ok() ? drained : issued;
}

u64 ClientFs::list_io_runs() const { return fs_->config().list_io_max_runs; }

ClientFs::Issue ClientFs::issue_context() {
  return Issue{fs_->rpc().completions(), std::max<u64>(list_io_runs(), 1),
               fs_->redundancy_policy().enabled()};
}

void ClientFs::gather_runs(
    u64 first, u64 last,
    std::map<u32, std::vector<BlockRun>>& per_target) const {
  osd::slices_for(fs_->stripe(), FileBlock{first}, last - first,
                  [&per_target](const osd::StripeSlice& s) {
                    util::append_run(per_target[s.target],
                                     BlockRun{s.local_start, s.count});
                  });
}

template <typename IssueOne>
Status ClientFs::issue_chunks(const Issue& io, u32 target,
                              std::span<const BlockRun> runs,
                              std::vector<rpc::Ticket>& out,
                              IssueOne issue_one) {
  for (std::size_t at = 0; at < runs.size(); at += io.max_runs) {
    const std::span<const BlockRun> chunk =
        runs.subspan(at, std::min<std::size_t>(io.max_runs, runs.size() - at));
    u64 blocks = 0;
    for (const BlockRun& r : chunk) blocks += r.count;
    obs::ScopedSpan unit(fs_->spans(), "osd.stripe_unit", target, blocks);
    const rpc::Ticket t = issue_one(chunk);
    if (auto r = io.cq.try_take(t)) {
      if (!*r) return r->error();
    } else {
      out.push_back(t);
    }
  }
  return {};
}

Status ClientFs::issue_write_runs(const Issue& io, const FileHandle& fh,
                                  StreamId stream, u32 target,
                                  std::span<const BlockRun> runs,
                                  std::vector<rpc::Ticket>& out) {
  const auto write_to = [&](u32 t, InodeNo ino) {
    return issue_chunks(io, t, runs, out, [&](std::span<const BlockRun> c) {
      return fs_->rpc().write_runs_async(t, ino, stream, c);
    });
  };
  if (!io.replicas) return write_to(target, fh.ino);
  // Replica fan: the same local runs go to the primary and to every copy's
  // rotated target, under the tagged subfile ino (the copies keep the
  // primary's local addresses — the invariant degraded reads rely on).
  const redundancy::Policy& pol = fs_->redundancy_policy();
  redundancy::HealthMap& health = fs_->health();
  redundancy::Stats& red = fs_->redundancy_stats();
  u32 issued = 0;
  Status first{};
  for (u32 c = 0; c <= pol.copies(); ++c) {
    const u32 t =
        c == 0 ? target : redundancy::copy_target(fs_->stripe(), target, c);
    if (!health.alive(t)) {
      // Skip the dead copy: surviving replicas carry the data and the
      // repair service re-converges the replacement later.
      if (c == 0) red.degraded_writes.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const InodeNo ino =
        c == 0 ? fh.ino : redundancy::replica_ino(fh.ino, c);
    if (c > 0) red.replica_writes.fetch_add(1, std::memory_order_relaxed);
    if (Status st = write_to(t, ino); !st && first.ok()) first = st;
    ++issued;
  }
  if (issued == 0) {
    red.lost_routes.fetch_add(1, std::memory_order_relaxed);
    return Errc::kIo;
  }
  return first;
}

Status ClientFs::issue_read_runs(const Issue& io, const FileHandle& fh,
                                 u32 target, std::span<const BlockRun> runs,
                                 std::vector<rpc::Ticket>& out) {
  u32 t = target;
  InodeNo ino = fh.ino;
  if (io.replicas) {
    auto routed = route_read(target, fh.ino);
    if (!routed) return routed.error();
    t = routed->first;
    ino = routed->second;
  }
  return issue_chunks(io, t, runs, out, [&](std::span<const BlockRun> c) {
    return fs_->rpc().read_runs_async(t, ino, c);
  });
}

Result<std::pair<u32, InodeNo>> ClientFs::route_read(u32 target, InodeNo ino) {
  redundancy::HealthMap& health = fs_->health();
  if (health.alive(target)) return std::pair{target, ino};
  // Degraded read: the copies hold the same local block addresses under the
  // tagged subfile ino, so re-routing is a pure (target, ino) swap.
  const redundancy::Policy& pol = fs_->redundancy_policy();
  redundancy::Stats& red = fs_->redundancy_stats();
  for (u32 c = 1; c <= pol.copies(); ++c) {
    const u32 t = redundancy::copy_target(fs_->stripe(), target, c);
    if (health.alive(t)) {
      red.degraded_reads.fetch_add(1, std::memory_order_relaxed);
      return std::pair{t, redundancy::replica_ino(ino, c)};
    }
  }
  red.lost_routes.fetch_add(1, std::memory_order_relaxed);
  return Errc::kIo;
}

Status ClientFs::write_async(const FileHandle& fh, u32 pid, u64 offset_bytes,
                             u64 len_bytes, std::vector<rpc::Ticket>& out) {
  if (!fh.valid() || len_bytes == 0) return Errc::kInvalid;
  obs::ScopedSpan span(fs_->spans(), "client.write", fh.ino.v, len_bytes);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kData});
  const u64 first = offset_bytes / kBlockSize;
  const u64 last = (offset_bytes + len_bytes + kBlockSize - 1) / kBlockSize;
  const StreamId stream{id_.v, pid};
  const Issue io = issue_context();
  if (list_io_runs() > 0) {
    // List mode: a region spanning several stripe rounds becomes one merged
    // run set per target — one envelope each — instead of one per slice.
    std::map<u32, std::vector<BlockRun>> per_target;
    gather_runs(first, last, per_target);
    for (const auto& [target, runs] : per_target) {
      if (Status st = issue_write_runs(io, fh, stream, target, runs, out); !st)
        return st;
    }
  } else {
    // Per-block mode: each slice becomes one block_write envelope for the
    // primary, plus one per alive copy when the mount replicates.  A
    // failure that completes at issue stops issuing before the next slice.
    Status issued{};
    osd::slices_for(fs_->stripe(), FileBlock{first}, last - first,
                    [&](const osd::StripeSlice& s) {
                      if (!issued) return;
                      const BlockRun run{s.local_start, s.count};
                      issued = issue_write_runs(io, fh, stream, s.target,
                                                {&run, 1}, out);
                    });
    if (!issued) return issued;
  }
  ++stats_.writes;
  stats_.bytes_written += len_bytes;
  note_writes(fh.ino, 1);
  return {};
}

void ClientFs::note_writes(InodeNo ino, u32 writes) {
  // Periodic layout shipping: every so many writes the client pushes the
  // file's grown extent list to the MDS, which pays CPU to merge and index
  // it — the continual cost Table I correlates with fragmentation.
  u32& since = writes_since_report_[ino.v];
  since += writes;
  if (since < 64) return;
  since = 0;
  (void)fs_->rpc().report_extents(ino, remote_extents(ino));
}

Status ClientFs::drain(std::vector<rpc::Ticket>& tickets) {
  // Give time-based transport layers (QoS token refill) a chance to release
  // backlogged work before we block on the tickets it may be holding.
  fs_->rpc().pump();
  Status first{};
  for (const rpc::Ticket& t : tickets) {
    if (Status st = fs_->rpc().wait(t); !st && first.ok()) first = st;
  }
  tickets.clear();
  return first;
}

u64 ClientFs::remote_extents(InodeNo ino) {
  // Ask every target for its local subfile's extent count — what a client
  // really does before shipping a layout (it cannot read server memory).
  u64 n = 0;
  for (u32 t = 0; t < fs_->num_targets(); ++t) {
    n += fs_->rpc().target_extents(t, ino).value_or(0);
  }
  return n;
}

Status ClientFs::read_blocks(const FileHandle& fh, u64 first, u64 last) {
  // Issue every slice before claiming any completion, so reads (including
  // readahead top-ups) overlap across the striped targets too.
  std::vector<rpc::Ticket> pending;
  Status issued{};
  const Issue io = issue_context();
  if (list_io_runs() > 0) {
    std::map<u32, std::vector<BlockRun>> per_target;
    gather_runs(first, last, per_target);
    for (const auto& [target, runs] : per_target) {
      issued = issue_read_runs(io, fh, target, runs, pending);
      if (!issued) break;
    }
  } else {
    // Per-block mode: one block_read envelope per slice, routed around dead
    // targets when the mount replicates.
    osd::slices_for(fs_->stripe(), FileBlock{first}, last - first,
                    [&](const osd::StripeSlice& s) {
                      if (!issued) return;
                      const BlockRun run{s.local_start, s.count};
                      issued = issue_read_runs(io, fh, s.target, {&run, 1},
                                               pending);
                    });
  }
  Status drained = drain(pending);
  return issued.ok() ? drained : issued;
}

Status ClientFs::write_strided(const FileHandle& fh, u32 pid, u64 offset_bytes,
                               u64 piece_bytes, u64 stride_bytes, u64 count) {
  if (!fh.valid() || piece_bytes == 0 || count == 0) return Errc::kInvalid;
  if (list_io_runs() == 0) {
    // Per-block mode: exactly the caller loop this API replaces.
    for (u64 i = 0; i < count; ++i) {
      if (Status st =
              write(fh, pid, offset_bytes + i * stride_bytes, piece_bytes);
          !st)
        return st;
    }
    return {};
  }
  obs::ScopedSpan span(fs_->spans(), "client.write_strided", fh.ino.v,
                       count * piece_bytes);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kData});
  std::map<u32, std::vector<BlockRun>> per_target;
  for (u64 i = 0; i < count; ++i) {
    const u64 off = offset_bytes + i * stride_bytes;
    gather_runs(off / kBlockSize,
                (off + piece_bytes + kBlockSize - 1) / kBlockSize, per_target);
  }
  const StreamId stream{id_.v, pid};
  const Issue io = issue_context();
  std::vector<rpc::Ticket> tickets;
  Status issued{};
  for (const auto& [target, runs] : per_target) {
    issued = issue_write_runs(io, fh, stream, target, runs, tickets);
    if (!issued) break;
  }
  Status drained = drain(tickets);
  stats_.writes += count;
  stats_.bytes_written += count * piece_bytes;
  note_writes(fh.ino, static_cast<u32>(count));
  return issued.ok() ? drained : issued;
}

Status ClientFs::write_ranges_async(const FileHandle& fh, u32 pid,
                                    std::span<const util::ByteRange> ranges,
                                    std::vector<rpc::Ticket>& out) {
  if (!fh.valid() || list_io_runs() == 0) return Errc::kInvalid;
  u64 total = 0;
  for (const util::ByteRange& r : ranges) total += r.len;
  if (total == 0) return {};
  obs::ScopedSpan span(fs_->spans(), "client.write", fh.ino.v, total);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kData});
  std::map<u32, std::vector<BlockRun>> per_target;
  for (const util::ByteRange& r : ranges) {
    if (r.len == 0) continue;
    gather_runs(r.offset / kBlockSize,
                (r.end() + kBlockSize - 1) / kBlockSize, per_target);
  }
  const StreamId stream{id_.v, pid};
  const Issue io = issue_context();
  for (const auto& [target, runs] : per_target) {
    if (Status st = issue_write_runs(io, fh, stream, target, runs, out); !st)
      return st;
  }
  ++stats_.writes;
  stats_.bytes_written += total;
  return {};
}

Status ClientFs::read_ranges_async(const FileHandle& fh,
                                   std::span<const util::ByteRange> ranges,
                                   std::vector<rpc::Ticket>& out) {
  if (!fh.valid() || list_io_runs() == 0) return Errc::kInvalid;
  u64 total = 0;
  for (const util::ByteRange& r : ranges) total += r.len;
  if (total == 0) return {};
  obs::ScopedSpan span(fs_->spans(), "client.read", fh.ino.v, total);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kData});
  std::map<u32, std::vector<BlockRun>> per_target;
  for (const util::ByteRange& r : ranges) {
    if (r.len == 0) continue;
    gather_runs(r.offset / kBlockSize,
                (r.end() + kBlockSize - 1) / kBlockSize, per_target);
  }
  const Issue io = issue_context();
  for (const auto& [target, runs] : per_target) {
    if (Status st = issue_read_runs(io, fh, target, runs, out); !st) return st;
  }
  ++stats_.reads;
  stats_.bytes_read += total;
  return {};
}

Status ClientFs::fetch_range(const FileHandle& fh, u64 first, u64 last,
                             bool consume) {
  u64 run_start = kNoBlock;
  for (u64 b = first; b < last; ++b) {
    const u64 key = block_key(fh.ino, b);
    // Consuming hands a buffered block over, so it leaves the buffer.
    const bool resident =
        consume ? buffered_.erase(key) : buffered_.contains(key);
    if (resident) {
      if (run_start != kNoBlock) {
        if (Status st = read_blocks(fh, run_start, b); !st) return st;
        run_start = kNoBlock;
      }
    } else {
      if (!consume && buffered_.size() < (u64{1} << 20))
        buffered_.try_emplace(key);
      if (run_start == kNoBlock) run_start = b;
    }
  }
  if (run_start != kNoBlock) return read_blocks(fh, run_start, last);
  return {};
}

Status ClientFs::read(const FileHandle& fh, u64 offset_bytes, u64 len_bytes) {
  if (!fh.valid() || len_bytes == 0) return Errc::kInvalid;
  obs::ScopedSpan span(fs_->spans(), "client.read", fh.ino.v, len_bytes);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kData});
  const u64 first = offset_bytes / kBlockSize;
  const u64 last = (offset_bytes + len_bytes + kBlockSize - 1) / kBlockSize;
  ++stats_.reads;
  stats_.bytes_read += len_bytes;

  const u64 cursor_key = block_key(fh.ino, first);
  std::optional<ReadCursor> sequential;
  if (const ReadCursor* c = cursors_.find(cursor_key)) sequential = *c;

  // Hand the requested range to the application (buffered blocks served
  // from the readahead buffer, the rest from the targets).
  if (Status st = fetch_range(fh, first, last, /*consume=*/true); !st)
    return st;

  ReadCursor cur{last, last - first};
  if (sequential) {
    // Sequential continuation: double the window and prefetch ahead, as a
    // Lustre client would for a striped file region.
    cur = *sequential;
    cursors_.erase(cursor_key);
    cur.window = std::min(std::max(cur.window * 2, last - first),
                          kReadaheadMaxBlocks);
    if (last <= cur.prefetched_until) ++stats_.readahead_hits;
    // Hysteresis: top up only when the stream has consumed half the window,
    // so prefetch goes out in window-sized batches rather than per read.
    if (last + cur.window / 2 > cur.prefetched_until) {
      const u64 want_until = last + cur.window;
      const u64 from = std::max(last, cur.prefetched_until);
      if (Status st = fetch_range(fh, from, want_until, /*consume=*/false);
          !st)
        return st;
      stats_.readahead_blocks += want_until - from;
      cur.prefetched_until = want_until;
    }
  }
  if (cursors_.size() < 4096)
    cursors_[block_key(fh.ino, last)] = cur;
  return {};
}

Status ClientFs::close(const FileHandle& fh) {
  if (!fh.valid()) return Errc::kInvalid;
  obs::ScopedSpan span(fs_->spans(), "client.close", fh.ino.v);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kMeta});
  fs_->close_file(fh.ino);
  // Ship the final layout to the MDS; it persists the mapping and pays CPU
  // per extent — fragmented files are expensive here (Table I).
  const u64 extents = remote_extents(fh.ino);
  cache_layout(fh.path);
  return fs_->rpc().report_extents(fh.ino, extents);
}

}  // namespace mif::client
