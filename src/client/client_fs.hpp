// Client-side file system.
//
// One ClientFs per cluster node; write streams are (client id, thread pid)
// pairs exactly as the paper's allocator identifies them (§III-A).  The
// client congregates common operation pairs (open-getlayout) to reduce MDS
// interaction (§V-A) and keeps a layout cache so repeated opens of the same
// file do not re-fetch extents.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mfs/name_index.hpp"
#include "rpc/transport.hpp"
#include "util/result.hpp"
#include "util/runs.hpp"
#include "util/types.hpp"
#include "util/u64_map.hpp"

namespace mif::core {
class ParallelFileSystem;
}
namespace mif::obs {
class MetricsRegistry;
}

namespace mif::client {

struct FileHandle {
  InodeNo ino{};
  std::string path;
  bool valid() const { return ino.valid(); }
};

struct ClientStats {
  u64 opens{0};
  u64 layout_cache_hits{0};
  u64 writes{0};
  u64 reads{0};
  u64 bytes_written{0};
  u64 bytes_read{0};
  u64 readahead_hits{0};      // reads fully served from prefetched data
  u64 readahead_blocks{0};    // blocks fetched ahead of the application
};

class ClientFs {
 public:
  /// Sequential-read prefetch cap in blocks (Lustre-style per-file
  /// readahead; 2048 blocks = 8 MiB).
  static constexpr u64 kReadaheadMaxBlocks = 2048;

  ClientFs(core::ParallelFileSystem& fs, ClientId id);

  /// Create a file through the MDS and open it.
  Result<FileHandle> create(std::string_view path);

  /// Aggregated open-getlayout; hits the layout cache when this client
  /// already holds the layout.
  Result<FileHandle> open(std::string_view path);

  /// Rename `from` to `to` through the MDS.  Under a sharded mount a rename
  /// that crosses shard boundaries runs the two-phase protocol inside the
  /// transport; either way the returned handle is the entry at `to`.
  Result<FileHandle> rename(std::string_view from, std::string_view to);

  /// Write [offset, offset+len) bytes from the given thread.  Offsets and
  /// lengths are rounded outward to block granularity (the simulation
  /// tracks placement, not payload).  Internally issue-then-drain: every
  /// striped slice is issued as a ticket before any completion is claimed,
  /// so an async transport overlaps the slices across targets.
  Status write(const FileHandle& fh, u32 pid, u64 offset_bytes,
               u64 len_bytes);

  /// Issue the striped writes for [offset, offset+len) WITHOUT draining;
  /// outstanding tickets are appended to `out` for a later drain().  The
  /// collective writer uses this to keep a whole round's chunks in flight.
  /// Tickets that complete at issue (the sync chain) are claimed inline, so
  /// a failure there stops issuing exactly like the blocking loop did.
  Status write_async(const FileHandle& fh, u32 pid, u64 offset_bytes,
                     u64 len_bytes, std::vector<rpc::Ticket>& out);

  /// Strided write: `count` pieces of `piece_bytes`, starts `stride_bytes`
  /// apart.  With list I/O off this is exactly a caller loop of write();
  /// with list I/O on the whole pattern lowers into one list/datatype
  /// envelope per storage target (the MPI-IO datatype path).
  Status write_strided(const FileHandle& fh, u32 pid, u64 offset_bytes,
                       u64 piece_bytes, u64 stride_bytes, u64 count);

  /// List-I/O issue of a set of byte ranges: lowers the union into at most
  /// one envelope per storage target per list_io_max_runs runs, through the
  /// async path.  The collective aggregators' write arm.  Requires list I/O
  /// to be mounted (kInvalid otherwise).
  Status write_ranges_async(const FileHandle& fh, u32 pid,
                            std::span<const util::ByteRange> ranges,
                            std::vector<rpc::Ticket>& out);
  /// Read-side twin of write_ranges_async.
  Status read_ranges_async(const FileHandle& fh,
                           std::span<const util::ByteRange> ranges,
                           std::vector<rpc::Ticket>& out);

  /// Claim every ticket in `tickets` (clearing it); returns the first error
  /// in completion order — the sticky-error semantics of the sync path.
  Status drain(std::vector<rpc::Ticket>& tickets);

  /// Read [offset, offset+len) bytes.  Sequential streams are detected and
  /// prefetched Lustre-client-style: the window doubles while the stream
  /// stays sequential (up to kReadaheadMaxBlocks), so the storage targets
  /// see large per-region reads instead of the application's small front.
  Status read(const FileHandle& fh, u64 offset_bytes, u64 len_bytes);

  /// Close: releases allocator reservations on every target and reports the
  /// final layout to the MDS (which pays CPU per extent, Table I).
  Status close(const FileHandle& fh);

  ClientId id() const { return id_; }
  const ClientStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  /// Publish this client's counters under `<prefix>.…` into the registry.
  void export_metrics(obs::MetricsRegistry& reg,
                      std::string_view prefix) const;
  core::ParallelFileSystem& fs() { return *fs_; }

 private:
  /// What every slice of one client call issues through, looked up once per
  /// call (by issue_ranges) rather than once per slice.
  struct Issue {
    rpc::CompletionQueue& cq;
    u64 max_runs;   // runs per envelope: list_io_max_runs, or 1 per block
    bool replicas;  // the mount replicates (cfg.redundancy.replicas >= 2)
  };

  /// Issue block reads [first, last) to the striped targets and drain them.
  Status read_blocks(const FileHandle& fh, u64 first, u64 last);

  /// list_io_max_runs from the mount config; 0 = per-block mode.
  u64 list_io_runs() const;

  /// The one lowering of a data call's byte ranges into envelopes, in
  /// direction `D` (kWrite under `stream`, or kRead), behind write_async,
  /// read_blocks, write_strided and the two *_ranges_async calls.  Each range
  /// covers the blocks it touches (util::blocks_of); empty ones are skipped.
  /// Per-block mode walks each range's stripe slices in stripe order and
  /// issues one run per slice; list mode gathers every range into one merged
  /// run list per target and issues the lists in ascending target order.
  /// The first error that completes at issue stops issuing; tickets still
  /// outstanding are appended to `out`.
  template <rpc::Direction D>
  Status issue_ranges(const FileHandle& fh, StreamId stream,
                      std::span<const util::ByteRange> ranges,
                      std::vector<rpc::Ticket>& out);

  /// Ship one target's run list through the async path, one envelope per
  /// chunk of `io.max_runs` runs (rpc::Client lowers each to a block, list
  /// or strided op); tickets that complete at issue are claimed inline
  /// (sync-chain fast path).  With replication mounted, writes fan to the
  /// primary and every alive replica copy (a dead primary degrades the
  /// write; repair re-converges it later) and reads route to the first
  /// alive copy (redundancy.degraded_reads).
  Status issue_write_runs(const Issue& io, const FileHandle& fh,
                          StreamId stream, u32 target,
                          std::span<const BlockRun> runs,
                          std::vector<rpc::Ticket>& out);
  Status issue_read_runs(const Issue& io, const FileHandle& fh, u32 target,
                         std::span<const BlockRun> runs,
                         std::vector<rpc::Ticket>& out);

  /// The single-destination chunk loop behind both wrappers above:
  /// `issue_one(chunk)` is the bound write_runs_async or read_runs_async
  /// stub (its ino the primary or a redundancy::replica_ino-tagged
  /// subfile), the loop's only difference between the two.
  template <typename IssueOne>
  Status issue_chunks(const Issue& io, u32 target,
                      std::span<const BlockRun> runs,
                      std::vector<rpc::Ticket>& out, IssueOne issue_one);

  /// Health-aware read routing: a dead primary resolves to the first alive
  /// copy's (target, tagged ino); kIo when every copy is gone.
  Result<std::pair<u32, InodeNo>> route_read(u32 target, InodeNo ino);

  /// Sum the file's extent counts across all targets via get_extents
  /// envelopes (what a layout report ships to the MDS).
  u64 remote_extents(InodeNo ino);

  /// Count `writes` more writes of `ino`; every 64th ships the file's
  /// extent count to the MDS (the periodic layout report).
  void note_writes(InodeNo ino, u32 writes);

  /// Fetch [first, last), skipping blocks already sitting in the client's
  /// readahead buffer.  `consume` = the application is reading these blocks
  /// now (buffered ones are handed over and dropped); otherwise this is a
  /// prefetch and fetched blocks are retained.
  Status fetch_range(const FileHandle& fh, u64 first, u64 last, bool consume);

  /// Remember that this client holds `path`'s layout.
  void cache_layout(std::string_view path);

  struct ReadCursor {
    u64 prefetched_until{0};  // exclusive block bound already fetched
    u64 window{0};            // current readahead window (blocks)
  };

  static u64 block_key(InodeNo ino, u64 block) {
    return ino.v * 0x9e3779b97f4a7c15ULL + block * 0xff51afd7ed558ccdULL;
  }

  core::ParallelFileSystem* fs_;
  ClientId id_;
  /// Paths whose layout this client holds (the open aggregation's cache):
  /// a name index used as a set, its ordinals recycled through
  /// `free_layout_ordinals_`.
  mfs::NameIndex layout_cache_;
  std::vector<u32> free_layout_ordinals_;
  /// Sequential-read detectors: key = block_key(ino, next expected block).
  util::U64Map<ReadCursor> cursors_;
  /// Blocks prefetched but not yet consumed by the application, by
  /// block_key.
  util::U64Set buffered_;
  /// Writes since the last periodic layout report, per file.
  util::U64Map<u32> writes_since_report_;
  ClientStats stats_;
};

}  // namespace mif::client
