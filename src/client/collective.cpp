#include "client/collective.hpp"

#include <algorithm>

#include "core/pfs.hpp"
#include "obs/span.hpp"

namespace mif::client {

CollectiveWriter::CollectiveWriter(ClientFs& client, CollectiveConfig cfg)
    : client_(client), cfg_(cfg) {}

std::vector<util::ByteRange> CollectiveWriter::merge(
    std::vector<IoRequest> requests) {
  std::vector<util::ByteRange> ranges;
  ranges.reserve(requests.size());
  for (const IoRequest& r : requests)
    ranges.push_back(util::ByteRange{r.offset, r.len});
  return util::merge_ranges(std::move(ranges));
}

std::vector<std::vector<util::ByteRange>> CollectiveWriter::partition(
    const std::vector<util::ByteRange>& merged) const {
  u64 total = 0;
  for (const util::ByteRange& r : merged) total += r.len;
  const u32 n = std::max<u32>(cfg_.aggregators, 1);
  std::vector<std::vector<util::ByteRange>> domains(n);
  // Equal-byte contiguous shares in file order: aggregator a owns the a-th
  // `share` bytes of the covered region (ROMIO's fd_start/fd_end split).
  const u64 share = (total + n - 1) / n;
  u32 a = 0;
  u64 filled = 0;
  for (util::ByteRange r : merged) {
    while (r.len > 0) {
      if (a + 1 < n && filled >= share) {
        ++a;
        filled = 0;
      }
      const u64 take =
          a + 1 < n ? std::min<u64>(r.len, share - filled) : r.len;
      domains[a].push_back(util::ByteRange{r.offset, take});
      r.offset += take;
      r.len -= take;
      filled += take;
    }
  }
  return domains;
}

bool CollectiveWriter::two_phase() const {
  return client_.fs().config().list_io_max_runs > 0;
}

Status CollectiveWriter::two_phase_round(const FileHandle& fh,
                                         std::vector<IoRequest> requests,
                                         bool write) {
  // Phase 1 — exchange: the aggregators learn the round's request union,
  // merge it, and reorder it into per-aggregator file domains.  The span
  // prices this as a distinct pipeline stage (arg0 = requests exchanged).
  std::vector<std::vector<util::ByteRange>> domains;
  {
    obs::ScopedSpan span(client_.fs().spans(), "collective.exchange", fh.ino.v,
                         requests.size());
    domains = partition(merge(std::move(requests)));
  }
  // Phase 2 — I/O: each aggregator issues its domain as one list-I/O
  // envelope per OSD per cb_bytes chunk; the whole round's tickets stay in
  // flight until the closing drain (the MPI_File_*_all barrier).
  std::vector<rpc::Ticket> tickets;
  Status issued{};
  for (u32 a = 0; a < domains.size() && issued.ok(); ++a) {
    const u32 pid = 1'000'000 + a;
    std::vector<util::ByteRange> chunk;
    u64 chunk_bytes = 0;
    auto ship = [&]() -> Status {
      if (chunk.empty()) return {};
      Status s = write ? client_.write_ranges_async(fh, pid, chunk, tickets)
                       : client_.read_ranges_async(fh, chunk, tickets);
      if (s.ok()) {
        ++stats_.requests_out;
        stats_.bytes += chunk_bytes;
      }
      chunk.clear();
      chunk_bytes = 0;
      return s;
    };
    for (util::ByteRange r : domains[a]) {
      while (r.len > 0 && issued.ok()) {
        const u64 take = std::min(r.len, cfg_.cb_bytes - chunk_bytes);
        chunk.push_back(util::ByteRange{r.offset, take});
        chunk_bytes += take;
        r.offset += take;
        r.len -= take;
        if (chunk_bytes >= cfg_.cb_bytes) issued = ship();
      }
      if (!issued.ok()) break;
    }
    if (issued.ok()) issued = ship();
  }
  Status drained = client_.drain(tickets);
  Status flushed = client_.fs().rpc().flush();
  if (!issued.ok()) return issued;
  return drained.ok() ? flushed : drained;
}

Status CollectiveWriter::write_round(const FileHandle& fh,
                                     std::vector<IoRequest> requests) {
  ++stats_.rounds;
  stats_.requests_in += requests.size();
  if (two_phase()) return two_phase_round(fh, std::move(requests), true);
  u32 next_aggregator = 0;
  // Issue the whole round before draining: every aggregator chunk's striped
  // slices go out as tickets, so an async transport keeps the round's
  // requests in flight across all targets at once.
  std::vector<rpc::Ticket> tickets;
  for (const util::ByteRange& range : merge(std::move(requests))) {
    u64 pos = range.offset;
    const u64 end = range.offset + range.len;
    while (pos < end) {
      const u64 chunk = std::min(cfg_.cb_bytes, end - pos);
      // Each chunk is one big write from one aggregator stream; aggregators
      // rotate so targets stay busy in parallel.
      const u32 pid = 1'000'000 + (next_aggregator++ % cfg_.aggregators);
      if (Status s = client_.write_async(fh, pid, pos, chunk, tickets); !s) {
        (void)client_.drain(tickets);
        return s;
      }
      ++stats_.requests_out;
      stats_.bytes += chunk;
      pos += chunk;
    }
  }
  // A collective round is a synchronisation point (MPI_File_write_all
  // returns only when every aggregator's data is on the servers): drain the
  // round's tickets, then push out anything the formation layer still
  // stages; the first error in completion order wins.
  Status drained = client_.drain(tickets);
  Status flushed = client_.fs().rpc().flush();
  return drained.ok() ? flushed : drained;
}

Status CollectiveWriter::read_round(const FileHandle& fh,
                                    std::vector<IoRequest> requests) {
  ++stats_.rounds;
  stats_.requests_in += requests.size();
  if (two_phase()) return two_phase_round(fh, std::move(requests), false);
  for (const util::ByteRange& range : merge(std::move(requests))) {
    u64 pos = range.offset;
    const u64 end = range.offset + range.len;
    while (pos < end) {
      const u64 chunk = std::min(cfg_.cb_bytes, end - pos);
      if (Status s = client_.read(fh, pos, chunk); !s) return s;
      ++stats_.requests_out;
      stats_.bytes += chunk;
      pos += chunk;
    }
  }
  return client_.fs().rpc().flush();
}

}  // namespace mif::client
