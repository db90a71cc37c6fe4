#include "rpc/envelope.hpp"

#include <array>

namespace mif::rpc {

namespace {

// Op order!  Span names must be string literals (static storage) because
// ScopedSpan keeps the pointer.
constexpr std::array<OpTraits, kOpCount> kOpTraits{{
    {"mkdir", "rpc.mkdir", true, false, false},
    {"create", "rpc.create", true, false, false},
    {"stat", "rpc.stat", true, false, false},
    {"utime", "rpc.utime", true, false, true},
    {"unlink", "rpc.unlink", true, false, false},
    {"rename", "rpc.rename", true, false, false},
    {"resolve", "rpc.resolve", true, true, false},
    {"open_getlayout", "rpc.open_getlayout", true, false, false},
    {"readdir", "rpc.readdir", true, false, false},
    {"readdirplus", "rpc.readdirplus", true, false, false},
    {"report_extents", "rpc.report_extents", true, false, true},
    {"block_write", "rpc.block_write", false, false, true},
    {"block_read", "rpc.block_read", false, false, false},
    {"get_extents", "rpc.get_extents", false, false, false},
    {"preallocate", "rpc.preallocate", false, false, false},
    {"close_file", "rpc.close_file", false, false, false},
    {"delete_file", "rpc.delete_file", false, false, false},
    {"list.write", "rpc.list.write", false, false, false},
    {"list.read", "rpc.list.read", false, false, false},
    {"list.write_strided", "rpc.list.write_strided", false, false, false},
    {"list.read_strided", "rpc.list.read_strided", false, false, false},
}};

u64 dirent_bytes(const mfs::DirEntry& e) {
  return kDirentFixedBytes + e.name.size();
}

}  // namespace

const OpTraits& traits(Op op) { return kOpTraits[static_cast<std::size_t>(op)]; }

std::string_view to_string(Op op) { return traits(op).name; }

Op op_of(const Request& req) {
  return std::visit([](const auto& r) { return std::decay_t<decltype(r)>::kOp; },
                    req);
}

u64 wire_bytes(const Request& req) {
  u64 bytes = kHeaderBytes +
              std::visit([](const auto& r) { return r.body_bytes(); }, req);
  // Block/list/strided writes ship the data payload with the envelope.
  if (const auto* w = std::get_if<BlockWriteRequest>(&req)) {
    bytes += w->blocks() * kBlockSize;
  } else if (const auto* l = std::get_if<WriteListRequest>(&req)) {
    bytes += l->blocks() * kBlockSize;
  } else if (const auto* s = std::get_if<WriteStridedRequest>(&req)) {
    bytes += s->blocks() * kBlockSize;
  }
  return bytes;
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
