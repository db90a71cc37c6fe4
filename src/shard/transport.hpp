// ShardedTransport — multi-MDS routing as an rpc decorator, and the only
// multi-MDS router: the mounted file system and the §IV-D distribution
// ablation both place and route metadata through it.  Sits OUTERMOST in the
// transport chain:
//
//   Sharded( Fault( Qos( Formation( Async( Inproc )))))
//
// i.e. it is client-library logic, above the "NIC": every sub-envelope it
// emits (each fan-out leg, each phase of a cross-shard rename) separately
// traverses the fault/QoS/formation/async layers and is separately charged
// by the wire transport — so fault injection can kill a rename between its
// phases, and a readdir fan-out really costs N exchanges.
//
// Routing:
//   * path-keyed metadata ops go to shard::Map::owner_of(path) (the incoming
//     Address's MDS index is a single-MDS fiction and is ignored);
//   * mkdir delegates top-level directories round-robin under the subtree
//     policy; under the hash policy it mirrors the directory skeleton to
//     every shard so hash-placed children always find their parent, and
//     unlinking such a directory sweeps every mirror (refused with
//     kNotEmpty while any copy still holds entries);
//   * §IV-C: under the hash policy a stat, resolve, open_getlayout or
//     unlink of a name the Router's name table lacks is answered kNotFound
//     with no envelope sent (ShardStats::avoided_rpcs); create is always
//     forwarded;
//   * every inode leaving the transport is tagged with its home shard
//     (Router::tag) — ino-keyed envelopes (report_extents) route by tag, and
//     data-path envelopes carry cluster-unique subfile keys;
//   * readdir/readdirplus fan out (hash placement always; the root directory
//     under subtree placement) and merge per-shard listings, deduplicating
//     mirrored directory entries by name;
//   * cross-shard rename is two-phase — create-on-target, then
//     tombstone-on-source — journaled in the Router; recover() rolls
//     half-done renames back (unlink the target copy) so the source stays
//     resolvable and no inode is orphaned.  The renamed file's blocks stay
//     keyed by the OLD ino on the storage targets; a data-ino alias rewrites
//     subsequent data envelopes so the data remains reachable.
//
// With one metadata server the TransportStack does not build this decorator
// at all — the single-MDS hot path is untouched and the default figures stay
// byte-identical.
#pragma once

#include "rpc/transport.hpp"
#include "shard/router.hpp"

namespace mif::shard {

class ShardedTransport final : public rpc::Transport {
 public:
  ShardedTransport(rpc::Transport& inner, u32 shards, Policy policy)
      : inner_(inner), router_(shards, policy) {}

  Result<rpc::Response> call(const rpc::Address& to,
                             const rpc::Request& req) override;
  rpc::Ticket call_async(const rpc::Address& to,
                         const rpc::Request& req) override;
  rpc::CompletionQueue& completions() override {
    return inner_.completions();
  }
  Status call_batch(const rpc::Address& to,
                    std::vector<rpc::Request> reqs) override;
  Status flush() override { return inner_.flush(); }
  void pump() override { inner_.pump(); }
  void set_spans(obs::SpanCollector* spans) override {
    spans_ = spans;
    inner_.set_spans(spans);
  }
  void set_attribution(obs::Attribution* attrib) override {
    // Pure routing: every sub-envelope (fan-out leg, rename phase) is
    // charged by the layers below under the caller's ambient principal.
    inner_.set_attribution(attrib);
  }
  void export_metrics(obs::MetricsRegistry& reg,
                      std::string_view prefix) const override;

  /// Roll back every journaled rename stuck between its phases: unlink the
  /// phase-1 copy on the target shard and abort the record.  Returns how
  /// many renames were rolled back.  Run after a fault, before trusting the
  /// namespace again.
  u64 recover();

  Router& router() { return router_; }
  const Router& router() const { return router_; }
  ShardStats stats() const { return router_.stats(); }

 private:
  Result<rpc::Response> route_meta(const rpc::Request& req);
  Result<rpc::Response> send_to(u32 shard, const rpc::Request& req);
  Result<rpc::Response> do_mkdir(const rpc::MkdirRequest& r);
  Result<rpc::Response> do_unlink(const rpc::UnlinkRequest& r);
  Result<rpc::Response> sweep_dir(const rpc::UnlinkRequest& r);
  Result<rpc::Response> do_readdir(const rpc::Request& req,
                                   std::string_view path);
  Result<rpc::Response> do_rename(const rpc::RenameRequest& r);
  /// Clone a data-path request with its ino chased through the alias table.
  rpc::Request rewrite_data(const rpc::Request& req) const;

  rpc::Transport& inner_;
  Router router_;
  obs::SpanCollector* spans_{nullptr};
};

}  // namespace mif::shard
