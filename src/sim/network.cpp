#include "sim/network.hpp"

namespace mif::sim {

double Network::cost(u64 payload_bytes) {
  const double xfer =
      static_cast<double>(payload_bytes) / (kBandwidthMbps * 1e6) * 1e3;
  return kRttMs + xfer;
}

double Network::rpc(u64 payload_bytes) {
  const double t = cost(payload_bytes);
  ++stats_.rpcs;
  stats_.bytes += payload_bytes;
  stats_.time_ms += t;
  return t;
}

}  // namespace mif::sim
