#include "shard/transport.hpp"

#include <string>
#include <unordered_set>
#include <utility>

#include "mfs/mfs.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace mif::shard {

using rpc::Address;
using rpc::Request;
using rpc::Response;
using rpc::mds_at;

namespace {

/// Tag every inode in a response with its home shard before it reaches the
/// client.
void tag_response(u32 shard, Response& resp) {
  if (auto* ino = std::get_if<rpc::InodeResponse>(&resp)) {
    ino->ino = Router::tag(shard, ino->ino);
  } else if (auto* open = std::get_if<rpc::OpenGetLayoutResponse>(&resp)) {
    open->ino = Router::tag(shard, open->ino);
  } else if (auto* dir = std::get_if<rpc::ReaddirResponse>(&resp)) {
    for (mfs::DirEntry& e : dir->entries) e.ino = Router::tag(shard, e.ino);
  }
}

}  // namespace

Result<Response> ShardedTransport::send_to(u32 shard, const Request& req) {
  router_.count_op(shard);
  Result<Response> resp = inner_.call(mds_at(shard), req);
  if (resp) tag_response(shard, *resp);
  return resp;
}

Result<Response> ShardedTransport::call(const Address& to,
                                        const Request& req) {
  if (to.kind == Address::Kind::kOsd) {
    return inner_.call(to,
                       router_.has_aliases() ? rewrite_data(req) : req);
  }
  return route_meta(req);
}

rpc::Ticket ShardedTransport::call_async(const Address& to,
                                         const Request& req) {
  if (to.kind == Address::Kind::kOsd) {
    // Keep the pipelined data path: issue through the inner chain so the
    // async window stays in control of retirement.
    return inner_.call_async(
        to, router_.has_aliases() ? rewrite_data(req) : req);
  }
  // Metadata ops are synchronous end to end; admit a completed ticket.
  return completions().admit(to, rpc::op_of(req), route_meta(req));
}

Status ShardedTransport::call_batch(const Address& to,
                                    std::vector<Request> reqs) {
  if (to.kind == Address::Kind::kOsd) {
    if (router_.has_aliases()) {
      for (Request& r : reqs) r = rewrite_data(r);
    }
    return inner_.call_batch(to, std::move(reqs));
  }
  // A metadata batch may span shards after routing; deliver per envelope.
  Status first{};
  for (const Request& r : reqs) {
    if (Result<Response> resp = route_meta(r); !resp && first.ok()) {
      first = resp.error();
    }
  }
  return first;
}

Request ShardedTransport::rewrite_data(const Request& req) const {
  Request copy = req;
  std::visit(
      [&](auto& r) {
        if constexpr (requires { r.ino; }) {
          r.ino = router_.data_ino(r.ino);
        }
      },
      copy);
  return copy;
}

Result<Response> ShardedTransport::route_meta(const Request& req) {
  return std::visit(
      [&](const auto& r) -> Result<Response> {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, rpc::MkdirRequest>) {
          return do_mkdir(r);
        } else if constexpr (std::is_same_v<T, rpc::RenameRequest>) {
          return do_rename(r);
        } else if constexpr (std::is_same_v<T, rpc::ReaddirRequest> ||
                             std::is_same_v<T, rpc::ReaddirPlusRequest>) {
          return do_readdir(Request{r}, r.path);
        } else if constexpr (std::is_same_v<T, rpc::ReportExtentsRequest>) {
          // Ino-keyed: the tag IS the route.
          const u32 shard = Router::shard_of(r.ino);
          obs::ScopedSpan span(spans_, "rpc.shard", shard);
          rpc::ReportExtentsRequest local = r;
          local.ino = Router::untag(r.ino);
          return send_to(shard, Request{local});
        } else if constexpr (std::is_same_v<T, rpc::UnlinkRequest>) {
          return do_unlink(r);
        } else if constexpr (requires { r.path; }) {
          constexpr bool kLookup = std::is_same_v<T, rpc::StatRequest> ||
                                   std::is_same_v<T, rpc::ResolveRequest> ||
                                   std::is_same_v<T, rpc::OpenGetLayoutRequest>;
          if (kLookup && router_.filters_miss(r.path)) return Errc::kNotFound;
          const u32 shard = router_.route_path(r.path);
          obs::ScopedSpan span(spans_, "rpc.shard", shard);
          Result<Response> resp = send_to(shard, Request{r});
          if constexpr (std::is_same_v<T, rpc::CreateRequest>) {
            if (resp) router_.note_created(r.path, /*dir=*/false);
          }
          return resp;
        } else {
          return Errc::kInvalid;  // data op addressed to an MDS
        }
      },
      req);
}

Result<Response> ShardedTransport::do_mkdir(const rpc::MkdirRequest& r) {
  if (router_.policy() == Policy::kHash) {
    // Mirror the directory skeleton to every shard so hash-placed children
    // always find their parent; the hash owner's inode is authoritative.
    const u32 primary = router_.route_path(r.path);
    obs::ScopedSpan span(spans_, "rpc.shard", primary);
    Result<Response> out = Errc::kInvalid;
    for (u32 s = 0; s < router_.shards(); ++s) {
      Result<Response> resp = send_to(s, Request{r});
      if (s == primary) out = std::move(resp);
    }
    router_.count_fanout(router_.shards() - 1);
    if (out) router_.note_created(r.path, /*dir=*/true);
    return out;
  }
  // Subtree policy: a new top-level directory picks its home round-robin;
  // everything beneath follows its top-level delegation.
  const auto parts = mfs::split_path(r.path);
  const u32 shard = parts.size() == 1
                        ? router_.delegate_top_level(parts.front())
                        : router_.route_path(r.path);
  obs::ScopedSpan span(spans_, "rpc.shard", shard);
  return send_to(shard, Request{r});
}

Result<Response> ShardedTransport::do_unlink(const rpc::UnlinkRequest& r) {
  if (router_.filters_miss(r.path)) return Errc::kNotFound;
  if (router_.mirrored_dir(r.path)) return sweep_dir(r);
  const u32 shard = router_.route_path(r.path);
  obs::ScopedSpan span(spans_, "rpc.shard", shard);
  Result<Response> resp = send_to(shard, Request{r});
  if (resp) router_.note_removed(r.path);
  return resp;
}

Result<Response> ShardedTransport::sweep_dir(const rpc::UnlinkRequest& r) {
  // Every shard holds a copy of a hash-placed directory.  Refuse while any
  // copy has entries; otherwise unlink the mirrors, then the owner's copy.
  // A mirror's kNotFound means already removed, so a sweep a fault cut
  // short leaves the name live (the owner's copy goes last) and a retry
  // converges.
  const u32 shards = router_.shards();
  const u32 owner = router_.route_path(r.path);
  obs::ScopedSpan span(spans_, "rpc.shard", shards);
  u64 sent = 0;
  auto sweep = [&]() -> Result<Response> {
    for (u32 s = 0; s < shards; ++s) {
      ++sent;
      Result<Response> listed =
          send_to(s, Request{rpc::ReaddirRequest{r.path}});
      if (!listed && listed.error() != Errc::kNotFound) return listed;
      if (listed && !std::get<rpc::ReaddirResponse>(*listed).entries.empty()) {
        return Errc::kNotEmpty;
      }
    }
    Result<Response> out = Errc::kNotFound;
    for (u32 i = 1; i <= shards; ++i) {
      const u32 s = (owner + i) % shards;
      ++sent;
      Result<Response> gone = send_to(s, Request{r});
      if (s == owner) {
        out = std::move(gone);
      } else if (!gone && gone.error() != Errc::kNotFound) {
        return gone;
      }
    }
    if (out || out.error() == Errc::kNotFound) router_.note_removed(r.path);
    return out;
  };
  Result<Response> out = sweep();
  router_.count_fanout(sent - 1);
  return out;
}

Result<Response> ShardedTransport::do_readdir(const Request& req,
                                              std::string_view path) {
  if (!router_.needs_fanout(path)) {
    const u32 shard = router_.route_path(path);
    obs::ScopedSpan span(spans_, "rpc.shard", shard);
    return send_to(shard, req);
  }
  obs::ScopedSpan span(spans_, "rpc.shard", router_.shards());
  rpc::ReaddirResponse merged;
  std::unordered_set<std::string> seen;
  Errc first_error = Errc::kNotFound;
  bool any = false, failed = false;
  for (u32 s = 0; s < router_.shards(); ++s) {
    Result<Response> resp = send_to(s, req);
    if (!resp) {
      if (!failed) {
        first_error = resp.error();
        failed = true;
      }
      continue;
    }
    any = true;
    auto& part = std::get<rpc::ReaddirResponse>(*resp);
    merged.plus = part.plus;
    for (mfs::DirEntry& e : part.entries) {
      // Hash placement mirrors directories to every shard — keep the first
      // copy of each name (already ino-tagged by send_to).
      if (seen.insert(e.name).second) merged.entries.push_back(std::move(e));
    }
  }
  router_.count_fanout(router_.shards() - 1);
  if (!any) return first_error;
  return Response{std::move(merged)};
}

Result<Response> ShardedTransport::do_rename(const rpc::RenameRequest& r) {
  const u32 src = router_.route_path(r.from);
  const u32 dst = router_.route_path(r.to);
  if (src == dst) {
    obs::ScopedSpan span(spans_, "rpc.shard", src);
    Result<Response> resp = send_to(src, Request{r});
    if (resp) {
      router_.count_rename(false);
      router_.note_renamed(r.from, r.to, src);
    }
    return resp;
  }

  // Two-phase cross-shard rename: create-on-target, tombstone-on-source.
  // Each phase is its own wire envelope through the inner chain, so a fault
  // can kill the protocol between them; the journal records enough to roll
  // back (recover()).
  obs::ScopedSpan span(spans_, "rpc.shard", src, dst);
  Result<Response> resolved =
      inner_.call(mds_at(src), Request{rpc::ResolveRequest{r.from}});
  if (!resolved) return resolved;
  const InodeNo src_ino = std::get<rpc::InodeResponse>(*resolved).ino;

  const u64 seq = router_.journal_begin(r.from, r.to, src, dst, src_ino);

  Result<Response> created = send_to(dst, Request{rpc::CreateRequest{r.to}});
  if (!created) {
    // Phase 1 lost: nothing landed on the target, the source is untouched.
    router_.journal_abort(seq);
    router_.count_rename_failure();
    return created;
  }
  // send_to tagged the response; journal the target's local ino.
  const InodeNo dst_ino =
      Router::untag(std::get<rpc::InodeResponse>(*created).ino);
  router_.journal_created(seq, dst_ino);
  router_.note_created(r.to, /*dir=*/false);

  Result<Response> gone = send_to(src, Request{rpc::UnlinkRequest{r.from}});
  if (!gone) {
    // Phase 2 lost: both entries exist.  The record stays kCreated so
    // recover() can unlink the target copy; the source remains resolvable.
    router_.count_rename_failure();
    return gone.error();
  }

  router_.journal_commit(seq);
  router_.note_removed(r.from);
  // The file's blocks stay keyed by the old ino on the storage targets.
  router_.add_alias(Router::tag(dst, dst_ino), Router::tag(src, src_ino));
  router_.count_rename(true);
  router_.count_fanout(1);  // one logical op, two wire envelopes
  return Response{rpc::InodeResponse{Router::tag(dst, dst_ino)}};
}

u64 ShardedTransport::recover() {
  u64 rolled_back = 0;
  for (const RenameRecord& rec : router_.pending_renames()) {
    Result<Response> resp =
        inner_.call(mds_at(rec.dst_shard), Request{rpc::UnlinkRequest{rec.to}});
    if (!resp && resp.error() != Errc::kNotFound) continue;  // retry later
    router_.note_removed(rec.to);
    router_.journal_abort(rec.seq);
    router_.count_rename_recovered();
    ++rolled_back;
  }
  return rolled_back;
}

void ShardedTransport::export_metrics(obs::MetricsRegistry& reg,
                                      std::string_view prefix) const {
  inner_.export_metrics(reg, prefix);
  const ShardStats s = router_.stats();
  for (std::size_t i = 0; i < s.ops_per_shard.size(); ++i) {
    reg.counter("shard." + std::to_string(i) + ".ops")
        .inc(s.ops_per_shard[i]);
  }
  reg.counter("shard.fanout").inc(s.fanout_requests);
  reg.counter("shard.rename.local").inc(s.renames_local);
  reg.counter("shard.rename.cross").inc(s.renames_cross);
  if (s.renames_recovered > 0) {
    reg.counter("shard.rename.recovered").inc(s.renames_recovered);
  }
  if (s.rename_failures > 0) {
    reg.counter("shard.rename.failures").inc(s.rename_failures);
  }
  if (s.avoided_rpcs > 0) {
    reg.counter("shard.avoided_rpcs").inc(s.avoided_rpcs);
  }
  reg.gauge("shard.imbalance").set(s.imbalance());
}

}  // namespace mif::shard
