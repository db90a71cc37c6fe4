#include "rpc/stack.hpp"

#include <algorithm>

#include "mds/mds.hpp"
#include "osd/storage_target.hpp"

namespace mif::rpc {

TransportStack::TransportStack(Endpoints eps, const TransportOptions& opt) {
  const u32 shards = static_cast<u32>(eps.mds.size());
  const shard::Policy placement =
      shards >= 2 ? eps.mds.front()->config().placement
                  : shard::Policy::kSubtree;
  const sim::DiskGeometry geometry = eps.osds.empty()
                                        ? sim::DiskGeometry{}
                                        : eps.osds.front()->disk().geometry();
  inproc_ = std::make_unique<InprocTransport>(std::move(eps));
  top_ = inproc_.get();
  if (opt.pipeline_depth >= 2 || opt.adaptive_depth_max >= 2) {
    AsyncConfig acfg;
    // Adaptive mode may be armed without an explicit static depth; start at
    // the floor so the controller earns any deeper window from the gauges.
    acfg.depth = std::max<u32>(opt.pipeline_depth, 2);
    acfg.depth_max = opt.adaptive_depth_max;
    acfg.geometry = geometry;
    async_ = std::make_unique<AsyncTransport>(*top_, acfg);
    top_ = async_.get();
  }
  if (opt.kind == TransportOptions::Kind::kFormation) {
    formation_ = std::make_unique<FormationTransport>(*top_, opt.formation);
    top_ = formation_.get();
  }
  if (opt.qos.enabled) {
    qos_ = std::make_unique<QosTransport>(*top_, opt.qos);
    top_ = qos_.get();
  }
  if (opt.inject_faults) {
    fault_ = std::make_unique<FaultTransport>(*top_);
    top_ = fault_.get();
  }
  if (shards >= 2) {
    sharded_ =
        std::make_unique<shard::ShardedTransport>(*top_, shards, placement);
    top_ = sharded_.get();
  }
}

}  // namespace mif::rpc
