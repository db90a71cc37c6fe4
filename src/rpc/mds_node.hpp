// MdsNode: one metadata server bundled with its transport and stub — the
// unit metadata-only fixtures (mds_test, workload/metarates, fig8) drive.
// The transport records into the server's own attachment, so
// `mds().set_spans` traces the whole node.
//
// Everything the old direct-call code measured is still reachable
// (`mds().stats()`, `mds().fs()`), but the request path goes through the
// envelope layer like the full cluster's does, so RPC counts and network
// charges come from one place.
#pragma once

#include "mds/mds.hpp"
#include "rpc/client.hpp"
#include "rpc/inproc.hpp"

namespace mif::rpc {

class MdsNode {
 public:
  explicit MdsNode(mds::MdsConfig cfg = {})
      : mds_(cfg),
        transport_(Endpoints{{&mds_}, {}}, mds_.sinks()),
        client_(transport_) {}

  MdsNode(const MdsNode&) = delete;
  MdsNode& operator=(const MdsNode&) = delete;

  mds::Mds& mds() { return mds_; }
  const mds::Mds& mds() const { return mds_; }
  Client& client() { return client_; }
  InprocTransport& transport() { return transport_; }

 private:
  mds::Mds mds_;
  InprocTransport transport_;
  Client client_;
};

}  // namespace mif::rpc
