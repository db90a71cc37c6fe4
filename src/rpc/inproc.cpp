#include "rpc/inproc.hpp"

#include <optional>

#include "mds/mds.hpp"
#include "obs/attrib.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"
#include "osd/storage_target.hpp"

namespace mif::rpc {

namespace {

bool is_dir(mds::Mds& m, InodeNo ino) {
  const mfs::Inode* node = m.fs().find(ino);
  return node && node->is_dir();
}

Result<Response> dispatch_mds(mds::Mds& m, const Request& req) {
  return std::visit(
      [&](const auto& r) -> Result<Response> {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, MkdirRequest>) {
          auto ino = m.mkdir(r.path);
          if (!ino) return ino.error();
          return Response{InodeResponse{*ino, true}};
        } else if constexpr (std::is_same_v<T, CreateRequest>) {
          auto ino = m.create(r.path);
          if (!ino) return ino.error();
          return Response{InodeResponse{*ino, false}};
        } else if constexpr (std::is_same_v<T, StatRequest>) {
          if (Status s = m.stat(r.path); !s) return s.error();
          return Response{VoidResponse{}};
        } else if constexpr (std::is_same_v<T, UtimeRequest>) {
          if (Status s = m.utime(r.path); !s) return s.error();
          return Response{VoidResponse{}};
        } else if constexpr (std::is_same_v<T, UnlinkRequest>) {
          if (Status s = m.unlink(r.path); !s) return s.error();
          return Response{VoidResponse{}};
        } else if constexpr (std::is_same_v<T, RenameRequest>) {
          auto ino = m.rename(r.from, r.to);
          if (!ino) return ino.error();
          return Response{InodeResponse{*ino, is_dir(m, *ino)}};
        } else if constexpr (std::is_same_v<T, ResolveRequest>) {
          // Revalidation of a client-cached handle: namespace lookup only,
          // no RPC/network accounting (traits(kResolve).free).
          auto ino = m.fs().resolve(r.path);
          if (!ino) return ino.error();
          return Response{InodeResponse{*ino, is_dir(m, *ino)}};
        } else if constexpr (std::is_same_v<T, OpenGetLayoutRequest>) {
          auto res = m.open_getlayout(r.path);
          if (!res) return res.error();
          return Response{OpenGetLayoutResponse{res->ino, res->extent_count}};
        } else if constexpr (std::is_same_v<T, ReaddirRequest>) {
          auto entries = m.readdir(r.path);
          if (!entries) return entries.error();
          return Response{ReaddirResponse{std::move(*entries), false}};
        } else if constexpr (std::is_same_v<T, ReaddirPlusRequest>) {
          auto entries = m.readdir_stats(r.path);
          if (!entries) return entries.error();
          return Response{ReaddirResponse{std::move(*entries), true}};
        } else if constexpr (std::is_same_v<T, ReportExtentsRequest>) {
          if (Status s = m.report_extents(r.ino, r.extent_count); !s)
            return s.error();
          return Response{VoidResponse{}};
        } else {
          return Errc::kInvalid;  // data op addressed to an MDS
        }
      },
      req);
}

/// The runs a data envelope names: a block or list envelope's own vector
/// (no copy), a strided one's expansion (the server expands the datatype).
template <typename T>
decltype(auto) runs_of(const T& r) {
  if constexpr (requires { r.runs(); }) {
    return r.runs();
  } else {
    return (r.runs);
  }
}

Result<Response> dispatch_osd(osd::StorageTarget& t, const Request& req) {
  return std::visit(
      [&](const auto& r) -> Result<Response> {
        using T = std::decay_t<decltype(r)>;
        constexpr OpTraits tr = traits(T::kOp);
        if constexpr (tr.meta) {
          return Errc::kInvalid;  // metadata op addressed to a target
        } else if constexpr (std::is_same_v<T, GetExtentsRequest>) {
          return Response{ExtentCountResponse{t.extent_count(r.ino)}};
        } else if constexpr (tr.direction == Direction::kWrite) {
          // One server pass over every run the envelope names.
          if (Status s = t.write_runs(r.ino, r.stream, runs_of(r)); !s)
            return s.error();
          return Response{VoidResponse{}};
        } else if constexpr (tr.direction == Direction::kRead) {
          if (Status s = t.read_runs(r.ino, runs_of(r)); !s) return s.error();
          return Response{BlockDataResponse{r.blocks()}};
        } else if constexpr (std::is_same_v<T, PreallocateRequest>) {
          if (Status s = t.preallocate(r.ino, r.total_blocks); !s)
            return s.error();
          return Response{VoidResponse{}};
        } else if constexpr (std::is_same_v<T, CloseFileRequest>) {
          t.close_file(r.ino);
          return Response{VoidResponse{}};
        } else {
          static_assert(std::is_same_v<T, DeleteFileRequest>);
          t.delete_file(r.ino);
          return Response{VoidResponse{}};
        }
      },
      req);
}

}  // namespace

InprocTransport::InprocTransport(Endpoints eps, const obs::Sinks& sinks)
    : Transport(sinks, queue_),
      eps_(std::move(eps)),
      net_track_{obs::SimTrack(sinks, "meta net"),
                 obs::SimTrack(sinks, "data net")} {}

double InprocTransport::charge(Address::Kind kind, u64 bytes) {
  const bool meta = kind == Address::Kind::kMds;
  std::lock_guard lock(net_mu_);
  const double cost = (meta ? meta_net_ : data_net_).rpc(bytes);
  // With attribution on, each network exchange also becomes a sim span on a
  // cumulative per-network clock (critical-path "network" segment).
  obs::SpanCollector* const spans = sinks().spans;
  if (sinks().attrib && spans) {
    double& clock = net_clock_[meta ? 0 : 1];
    spans->record_sim("net.exchange", net_track_[meta ? 0 : 1].id(*spans),
                      clock, cost, spans->ambient(), bytes);
    clock += cost;
  }
  return cost;
}

Result<Response> InprocTransport::dispatch(const Address& to,
                                           const Request& req) {
  const OpTraits& tr = traits(op_of(req));
  if (tr.meta != (to.kind == Address::Kind::kMds)) return Errc::kInvalid;
  if (tr.meta) {
    if (to.index >= eps_.mds.size()) return Errc::kInvalid;
    mds::Mds& m = *eps_.mds[to.index];
    // Count the RPC on the server before handling, so failed requests load
    // the MDS too (they were decoded and dispatched).
    if (!tr.free) m.account_rpc();
    return dispatch_mds(m, req);
  }
  if (to.index >= eps_.osds.size()) return Errc::kInvalid;
  return dispatch_osd(*eps_.osds[to.index], req);
}

double InprocTransport::settle(const Address& to, Op op,
                               const Result<Response>& resp,
                               const obs::Principal& p, double net_ms,
                               u64 net_bytes) {
  const OpTraits& tr = traits(op);
  PerOp& po = ops_[static_cast<std::size_t>(op)];
  po.count.fetch_add(1, std::memory_order_relaxed);
  double bulk_ms = 0.0;
  if (!resp) {
    po.errors.fetch_add(1, std::memory_order_relaxed);
  } else if (const u64 bulk = tr.free ? 0 : bulk_bytes(*resp); bulk > 0) {
    bulk_ms = charge(to.kind, bulk);
    po.bytes.fetch_add(bulk, std::memory_order_relaxed);
    net_ms += bulk_ms;
    net_bytes += bulk;
  }
  if (obs::Attribution* attrib = sinks().attrib) {
    attrib->count_rpc(p);
    if (net_ms > 0.0 || net_bytes > 0) attrib->charge_net(p, net_ms, net_bytes);
  }
  return bulk_ms;
}

Result<Response> InprocTransport::call(const Address& to, const Request& req) {
  const Op op = op_of(req);
  const OpTraits& tr = traits(op);
  PerOp& po = ops_[static_cast<std::size_t>(op)];
  const u64 wire = wire_bytes(req);
  obs::ScopedSpan span(sinks().spans, tr.span, to.index, wire);

  const u64 sent = tr.free ? 0 : wire;
  double cost_ms = tr.free ? 0.0 : charge(to.kind, wire);
  po.bytes.fetch_add(sent, std::memory_order_relaxed);
  Result<Response> resp = dispatch(to, req);
  const obs::Principal p =
      sinks().attrib ? obs::ambient_principal() : obs::Principal{};
  cost_ms += settle(to, op, resp, p, cost_ms, sent);
  // A lone call records its own exchange.
  po.latency_us.add(static_cast<u64>(cost_ms * 1000.0));
  return resp;
}

Status InprocTransport::call_batch(const Address& to,
                                   std::vector<Request> reqs) {
  if (reqs.empty()) return {};
  obs::Attribution* const attrib = sinks().attrib;
  // A flushed frame carries its contributors' principals (FormationTransport
  // runs the flush on whatever thread tripped the watermark — the ambient
  // there is the flusher, not the contributors).
  const auto [fp, fp_n] = obs::frame_principals();
  const bool tagged = attrib && fp != nullptr && fp_n == reqs.size();
  if (reqs.size() == 1) {
    std::optional<obs::ScopedPrincipal> tag;
    if (tagged) tag.emplace(fp[0]);
    Result<Response> r = call(to, reqs.front());
    return r ? Status{} : Status{r.error()};
  }
  // One wire frame: a single shared header plus every envelope's body (and
  // data payload).  This — not the dispatch below — is what formation buys.
  // Each envelope is sized once, here: its op counts its wire bytes, and
  // with a ledger attached its body is its byte share of the frame (the
  // first also carries the shared header), so the shares sum to the frame.
  u64 frame = kHeaderBytes;
  std::vector<u64> share_bytes;
  if (attrib) share_bytes.reserve(reqs.size());
  for (const Request& r : reqs) {
    const u64 wire = wire_bytes(r);
    frame += wire - kHeaderBytes;
    ops_[static_cast<std::size_t>(op_of(r))].bytes.fetch_add(
        wire, std::memory_order_relaxed);
    if (attrib) share_bytes.push_back(wire - kHeaderBytes);
  }
  obs::ScopedSpan span(sinks().spans, "rpc.frame", to.index, reqs.size());
  double cost_ms = charge(to.kind, frame);

  // Frame-cost split, pro-rata by bytes: ms shares are byte-weighted, last
  // takes the remainder so they sum to the charge exactly.
  std::vector<double> share_ms;
  if (attrib) {
    share_bytes[0] += kHeaderBytes;
    share_ms.resize(reqs.size());
    double left = cost_ms;
    for (std::size_t i = 0; i + 1 < reqs.size(); ++i) {
      share_ms[i] = cost_ms * static_cast<double>(share_bytes[i]) /
                    static_cast<double>(frame);
      left -= share_ms[i];
    }
    share_ms.back() = left;
  }

  Status first{};
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    // Dispatch under the contributor's identity so MDS handler time and
    // disk-scheduler submits attribute to whoever enqueued the envelope.
    const obs::Principal p =
        tagged ? fp[i] : (attrib ? obs::ambient_principal() : obs::Principal{});
    std::optional<obs::ScopedPrincipal> tag;
    if (tagged) tag.emplace(p);
    Result<Response> resp = dispatch(to, reqs[i]);
    cost_ms += settle(to, op_of(reqs[i]), resp, p,
                      attrib ? share_ms[i] : 0.0, attrib ? share_bytes[i] : 0);
    if (!resp && first.ok()) first = resp.error();
  }
  // Every batched envelope experienced the frame's exchange latency.
  const u64 us = static_cast<u64>(cost_ms * 1000.0);
  for (const Request& r : reqs) {
    ops_[static_cast<std::size_t>(op_of(r))].latency_us.add(us);
  }
  return first;
}

InprocTransport::OpCounters InprocTransport::op_counters(Op op) const {
  const PerOp& po = ops_[static_cast<std::size_t>(op)];
  return {po.count.load(std::memory_order_relaxed),
          po.bytes.load(std::memory_order_relaxed),
          po.errors.load(std::memory_order_relaxed)};
}

void InprocTransport::export_metrics(obs::MetricsRegistry& reg,
                                     std::string_view prefix) const {
  u64 meta_count = 0, meta_bytes = 0, data_count = 0, data_bytes = 0;
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const Op op = static_cast<Op>(i);
    const OpTraits& tr = traits(op);
    const PerOp& po = ops_[i];
    const u64 count = po.count.load(std::memory_order_relaxed);
    const u64 bytes = po.bytes.load(std::memory_order_relaxed);
    const u64 errors = po.errors.load(std::memory_order_relaxed);
    (tr.meta ? meta_count : data_count) += count;
    (tr.meta ? meta_bytes : data_bytes) += bytes;
    if (count == 0 && errors == 0) continue;  // keep exports sparse
    const std::string base = obs::join_key(prefix, tr.name);
    reg.counter(obs::join_key(base, "count")).inc(count);
    reg.counter(obs::join_key(base, "bytes")).inc(bytes);
    if (errors > 0) reg.counter(obs::join_key(base, "errors")).inc(errors);
    reg.histogram(obs::join_key(base, "latency_us"))
        .merge_from(po.latency_us.snapshot());
  }
  reg.counter(obs::join_key(prefix, "meta.count")).inc(meta_count);
  reg.counter(obs::join_key(prefix, "meta.bytes")).inc(meta_bytes);
  reg.counter(obs::join_key(prefix, "data.count")).inc(data_count);
  reg.counter(obs::join_key(prefix, "data.bytes")).inc(data_bytes);
  {
    std::lock_guard lock(net_mu_);
    obs::publish(reg, obs::join_key(prefix, "net.meta"), meta_net_.stats());
    obs::publish(reg, obs::join_key(prefix, "net.data"), data_net_.stats());
  }
}

}  // namespace mif::rpc
