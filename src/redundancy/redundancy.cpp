#include "redundancy/redundancy.hpp"

namespace mif::redundancy {

std::string validate(const Policy& p, u32 width) {
  if (p.replicas == 0) return "replicas must be >= 1";
  if (p.replicas > width)
    return "replicas (" + std::to_string(p.replicas) +
           ") exceeds the stripe width (" + std::to_string(width) +
           "): every copy of a stripe unit needs its own target";
  if (p.enabled() && width > 64)
    return "redundancy supports at most 64 targets (HealthMap mask)";
  return "";
}

}  // namespace mif::redundancy
