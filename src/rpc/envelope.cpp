#include "rpc/envelope.hpp"

namespace mif::rpc {

namespace {

u64 dirent_bytes(const mfs::DirEntry& e) {
  return kDirentFixedBytes + e.name.size();
}

// An envelope that moves blocks must say which way: without a direction it
// would ship without its payload, get no spindle floor on the async
// pipeline, and be served by a dead target.
template <typename... T>
constexpr bool blocks_have_direction(const std::variant<T...>*) {
  return ((!requires(const T& r) { r.blocks(); } ||
           traits(T::kOp).direction != Direction::kNone) &&
          ...);
}
static_assert(blocks_have_direction(static_cast<const Request*>(nullptr)));

}  // namespace

Op op_of(const Request& req) {
  return std::visit([](const auto& r) { return std::decay_t<decltype(r)>::kOp; },
                    req);
}

u64 data_blocks(const Request& req) {
  return std::visit(
      [](const auto& r) -> u64 {
        if constexpr (requires { r.blocks(); }) {
          return r.blocks();
        } else {
          return 0;
        }
      },
      req);
}

u64 wire_bytes(const Request& req) {
  return std::visit(
      [](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        u64 bytes = kHeaderBytes + r.body_bytes();
        // A write ships its data payload with the envelope.
        if constexpr (traits(T::kOp).direction == Direction::kWrite)
          bytes += r.blocks() * kBlockSize;
        return bytes;
      },
      req);
}

u64 bulk_bytes(const Response& resp) {
  if (const auto* l = std::get_if<OpenGetLayoutResponse>(&resp)) {
    return l->extent_count * kExtentWireBytes;
  }
  if (const auto* d = std::get_if<ReaddirResponse>(&resp)) {
    u64 bytes = 0;
    for (const mfs::DirEntry& e : d->entries) {
      bytes += dirent_bytes(e) + (d->plus ? kInodeAttrBytes : 0);
    }
    return bytes;
  }
  if (const auto* b = std::get_if<BlockDataResponse>(&resp)) {
    return b->blocks * kBlockSize;
  }
  return 0;
}

}  // namespace mif::rpc
