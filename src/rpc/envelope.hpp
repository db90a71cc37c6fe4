// Typed request/response envelopes — the wire vocabulary of the cluster.
//
// Every cross-node interaction (client ↔ MDS, client ↔ storage target) is
// one of these operations; the structs below are what a real deployment
// would serialise onto the wire.  The simulator passes them by reference
// through an in-process Transport (src/rpc/transport.hpp) and never
// serialises them: every payload size the network model charges is computed
// from the envelope itself (body_bytes, wire_bytes, bulk_bytes) — no magic
// constants.
//
// The taxonomy follows the paper's aggregation argument (§II-A2): what
// matters for parallel-I/O cost is how many wire messages a logical
// operation becomes, so each *aggregated* server operation (open-getlayout,
// readdirplus) is ONE envelope, and block I/O envelopes carry *batches* of
// runs so the formation layer can coalesce them.
//
// Every fact about an op lives here: its traits row (routing, staging, the
// direction its file data moves), its request struct's sizes, and the
// blocks a data envelope moves (data_blocks).  The transports read those
// facts and name no data request type: wire_bytes adds a write's payload,
// the async pipeline prices a spindle floor for every envelope that moves
// blocks, and the fault layer refuses a dead target's reads.
//
// Adding an op (see docs/ARCHITECTURE.md for the walk-through):
//   1. add the enum value + a row in kOpTraits (same order!),
//   2. define the request struct (kOp member + body_bytes(), plus blocks()
//      and ino/stream/runs when it moves file data),
//   3. add it to the Request variant (same position as the enum value),
//   4. a metadata op or a data op that moves no blocks gets its own branch
//      in inproc.cpp's dispatch visitor and a stub method on rpc::Client;
//      a block-moving op is one more outcome of rpc::Client's lowering.
//
// Replica-target annotation (src/redundancy/redundancy.hpp): an envelope
// addressed to a replica subfile carries the copy tag INSIDE its InodeNo
// (bits 48..55, redundancy::replica_ino) rather than as a new field.  The
// op taxonomy and the wire-size model above are untouched by
// replication; Formation coalescing keys and QoS classification see a
// distinct (ino, stream) per copy for free; and a storage target serves a
// replica subfile exactly like any other file.  Only the redundancy layer
// ever folds the tag back out (redundancy::primary_ino).
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "mfs/layout.hpp"
#include "util/runs.hpp"
#include "util/types.hpp"

namespace mif::rpc {

/// Every operation an envelope can carry.  Order must match the Request
/// variant and the kOpTraits table.
enum class Op : u8 {
  // Metadata-server ops.
  kMkdir = 0,
  kCreate,
  kStat,
  kUtime,
  kUnlink,
  kRename,
  kResolve,  // cached-handle revalidation: free under the DLM-style lease
  kOpenGetLayout,
  kReaddir,
  kReaddirPlus,
  kReportExtents,
  // Storage-target (data path) ops.
  kBlockWrite,
  kBlockRead,
  kGetExtents,
  kPreallocate,
  kCloseFile,
  kDeleteFile,
  // List/datatype I/O (noncontiguous regions in one envelope).
  kWriteList,
  kReadList,
  kWriteStrided,
  kReadStrided,
};
inline constexpr std::size_t kOpCount = 21;

/// Which way an op moves file data between a client and a storage target.
enum class Direction : u8 {
  kNone,   // moves none (metadata, preallocate, close, delete)
  kRead,   // brings target data back: the blocks, or get_extents's count; a
           // dead target cannot serve it
  kWrite,  // carries data_blocks() blocks of payload to the target
};

/// Per-op routing/charging properties.  `span` strings have static storage —
/// ScopedSpan requires it.
struct OpTraits {
  std::string_view name;  // "mkdir" — metric key segment
  std::string_view span;  // "rpc.mkdir" — span phase name
  bool meta;              // addressed to an MDS (vs a storage target)
  bool free;              // costs no wire message (client-local revalidation)
  bool deferrable;        // the formation layer may stage + ack it early
  Direction direction;    // which way the op's file data moves
};

namespace detail {
using enum Direction;
// Op order!  Span names must be string literals (static storage) because
// ScopedSpan keeps the pointer.
inline constexpr std::array<OpTraits, kOpCount> kOpTraits{{
    {"mkdir", "rpc.mkdir", true, false, false, kNone},
    {"create", "rpc.create", true, false, false, kNone},
    {"stat", "rpc.stat", true, false, false, kNone},
    {"utime", "rpc.utime", true, false, true, kNone},
    {"unlink", "rpc.unlink", true, false, false, kNone},
    {"rename", "rpc.rename", true, false, false, kNone},
    {"resolve", "rpc.resolve", true, true, false, kNone},
    {"open_getlayout", "rpc.open_getlayout", true, false, false, kNone},
    {"readdir", "rpc.readdir", true, false, false, kNone},
    {"readdirplus", "rpc.readdirplus", true, false, false, kNone},
    {"report_extents", "rpc.report_extents", true, false, true, kNone},
    {"block_write", "rpc.block_write", false, false, true, kWrite},
    {"block_read", "rpc.block_read", false, false, false, kRead},
    {"get_extents", "rpc.get_extents", false, false, false, kRead},
    {"preallocate", "rpc.preallocate", false, false, false, kNone},
    {"close_file", "rpc.close_file", false, false, false, kNone},
    {"delete_file", "rpc.delete_file", false, false, false, kNone},
    {"list.write", "rpc.list.write", false, false, false, kWrite},
    {"list.read", "rpc.list.read", false, false, false, kRead},
    {"list.write_strided", "rpc.list.write_strided", false, false, false,
     kWrite},
    {"list.read_strided", "rpc.list.read_strided", false, false, false,
     kRead},
}};
}  // namespace detail

constexpr const OpTraits& traits(Op op) {
  return detail::kOpTraits[static_cast<std::size_t>(op)];
}
constexpr std::string_view to_string(Op op) { return traits(op).name; }

/// Envelope destination: which server of which kind.
struct Address {
  enum class Kind : u8 { kMds = 0, kOsd = 1 };
  Kind kind{Kind::kMds};
  u32 index{0};
  constexpr auto operator<=>(const Address&) const = default;
};
constexpr Address mds_at(u32 i) { return {Address::Kind::kMds, i}; }
constexpr Address osd_at(u32 i) { return {Address::Kind::kOsd, i}; }

/// Fixed framing overhead per wire message: op tag, ids, lengths, checksum.
inline constexpr u64 kHeaderBytes = 24;
/// Wire size of one extent descriptor in a shipped layout.
inline constexpr u64 kExtentWireBytes = 32;
/// Wire size of the fixed dirent fields (ino + type + length prefix).
inline constexpr u64 kDirentFixedBytes = 13;
/// Wire size of the inode attributes a readdirplus entry carries.
inline constexpr u64 kInodeAttrBytes = 96;

namespace wire {
inline u64 str_bytes(const std::string& s) { return 4 + s.size(); }
}  // namespace wire

// --- requests ---------------------------------------------------------------
// Each request knows its op and the byte size of its body on the wire.

struct MkdirRequest {
  static constexpr Op kOp = Op::kMkdir;
  std::string path;
  u64 body_bytes() const { return wire::str_bytes(path); }
};

struct CreateRequest {
  static constexpr Op kOp = Op::kCreate;
  std::string path;
  u64 body_bytes() const { return wire::str_bytes(path); }
};

struct StatRequest {
  static constexpr Op kOp = Op::kStat;
  std::string path;
  u64 body_bytes() const { return wire::str_bytes(path); }
};

struct UtimeRequest {
  static constexpr Op kOp = Op::kUtime;
  std::string path;
  u64 body_bytes() const { return wire::str_bytes(path); }
};

struct UnlinkRequest {
  static constexpr Op kOp = Op::kUnlink;
  std::string path;
  u64 body_bytes() const { return wire::str_bytes(path); }
};

struct RenameRequest {
  static constexpr Op kOp = Op::kRename;
  std::string from;
  std::string to;
  u64 body_bytes() const {
    return wire::str_bytes(from) + wire::str_bytes(to);
  }
};

/// Revalidate a cached layout handle.  Under the lease/lock model the client
/// holds a delegation for layouts it cached, so this costs no wire message —
/// but it still flows through the transport, keeping the seam complete.
struct ResolveRequest {
  static constexpr Op kOp = Op::kResolve;
  std::string path;
  u64 body_bytes() const { return wire::str_bytes(path); }
};

struct OpenGetLayoutRequest {
  static constexpr Op kOp = Op::kOpenGetLayout;
  std::string path;
  u64 body_bytes() const { return wire::str_bytes(path); }
};

struct ReaddirRequest {
  static constexpr Op kOp = Op::kReaddir;
  std::string path;
  u64 body_bytes() const { return wire::str_bytes(path); }
};

struct ReaddirPlusRequest {
  static constexpr Op kOp = Op::kReaddirPlus;
  std::string path;
  u64 body_bytes() const { return wire::str_bytes(path); }
};

struct ReportExtentsRequest {
  static constexpr Op kOp = Op::kReportExtents;
  InodeNo ino{};
  u64 extent_count{0};
  u64 body_bytes() const { return 16; }
};

/// Write `runs` of the target-local subfile on behalf of `stream`.  The
/// formation layer grows `runs` by coalescing contiguous writes; the data
/// payload (blocks × block size) rides along with the envelope.
struct BlockWriteRequest {
  static constexpr Op kOp = Op::kBlockWrite;
  InodeNo ino{};
  StreamId stream{};
  std::vector<BlockRun> runs;
  u64 blocks() const {
    u64 n = 0;
    for (const BlockRun& r : runs) n += r.count;
    return n;
  }
  u64 body_bytes() const { return 8 + 8 + 4 + runs.size() * 16; }
};

struct BlockReadRequest {
  static constexpr Op kOp = Op::kBlockRead;
  InodeNo ino{};
  std::vector<BlockRun> runs;
  u64 blocks() const {
    u64 n = 0;
    for (const BlockRun& r : runs) n += r.count;
    return n;
  }
  u64 body_bytes() const { return 8 + 4 + runs.size() * 16; }
};

struct GetExtentsRequest {
  static constexpr Op kOp = Op::kGetExtents;
  InodeNo ino{};
  u64 body_bytes() const { return 8; }
};

struct PreallocateRequest {
  static constexpr Op kOp = Op::kPreallocate;
  InodeNo ino{};
  u64 total_blocks{0};
  u64 body_bytes() const { return 16; }
};

struct CloseFileRequest {
  static constexpr Op kOp = Op::kCloseFile;
  InodeNo ino{};
  u64 body_bytes() const { return 8; }
};

struct DeleteFileRequest {
  static constexpr Op kOp = Op::kDeleteFile;
  InodeNo ino{};
  u64 body_bytes() const { return 8; }
};

/// List I/O (PVFS-style): one envelope writes an arbitrary set of
/// target-local runs in a single server pass.  Unlike kBlockWrite — whose
/// run vector only ever grows by transport-level coalescing of adjacent
/// writes — a list envelope is *born* noncontiguous: the client (or the
/// collective aggregator) lowers a whole file region into it up front, so
/// the envelope count tracks regions, not blocks.
struct WriteListRequest {
  static constexpr Op kOp = Op::kWriteList;
  InodeNo ino{};
  StreamId stream{};
  std::vector<BlockRun> runs;
  u64 blocks() const {
    u64 n = 0;
    for (const BlockRun& r : runs) n += r.count;
    return n;
  }
  u64 body_bytes() const { return 8 + 8 + 4 + runs.size() * 16; }
};

struct ReadListRequest {
  static constexpr Op kOp = Op::kReadList;
  InodeNo ino{};
  std::vector<BlockRun> runs;
  u64 blocks() const {
    u64 n = 0;
    for (const BlockRun& r : runs) n += r.count;
    return n;
  }
  u64 body_bytes() const { return 8 + 4 + runs.size() * 16; }
};

/// Datatype/strided I/O (MPI-IO style): a regular pattern described by a
/// (count, stride, block_len) triple instead of an enumerated run list —
/// constant wire size no matter how many pieces the pattern has.
struct WriteStridedRequest {
  static constexpr Op kOp = Op::kWriteStrided;
  InodeNo ino{};
  StreamId stream{};
  FileBlock start{};
  u64 count{0};      // number of pieces
  u64 stride{0};     // start-to-start gap, in blocks
  u64 block_len{0};  // blocks per piece
  u64 blocks() const { return count * block_len; }
  std::vector<BlockRun> runs() const {
    return util::expand_strided({start, count, stride, block_len});
  }
  u64 body_bytes() const { return 8 + 8 + 8 + 8 + 8 + 8; }
};

struct ReadStridedRequest {
  static constexpr Op kOp = Op::kReadStrided;
  InodeNo ino{};
  FileBlock start{};
  u64 count{0};
  u64 stride{0};
  u64 block_len{0};
  u64 blocks() const { return count * block_len; }
  std::vector<BlockRun> runs() const {
    return util::expand_strided({start, count, stride, block_len});
  }
  u64 body_bytes() const { return 8 + 8 + 8 + 8 + 8; }
};

/// One alternative per Op, in enum order.
using Request =
    std::variant<MkdirRequest, CreateRequest, StatRequest, UtimeRequest,
                 UnlinkRequest, RenameRequest, ResolveRequest,
                 OpenGetLayoutRequest, ReaddirRequest, ReaddirPlusRequest,
                 ReportExtentsRequest, BlockWriteRequest, BlockReadRequest,
                 GetExtentsRequest, PreallocateRequest, CloseFileRequest,
                 DeleteFileRequest, WriteListRequest, ReadListRequest,
                 WriteStridedRequest, ReadStridedRequest>;

// --- responses --------------------------------------------------------------
// Fixed-size responses piggyback on the request round trip (bulk_bytes 0);
// variable-length ones (layouts, listings, block data) are a second transfer
// whose size the transport charges from the actual content.

struct VoidResponse {};

struct InodeResponse {
  InodeNo ino{};
  /// `ino` is a directory.  Fixed-size like the number, so it rides the
  /// same round trip; a cross-shard rename reads it from its resolve.
  bool dir{false};
};

struct OpenGetLayoutResponse {
  InodeNo ino{};
  u64 extent_count{0};
};

struct ReaddirResponse {
  std::vector<mfs::DirEntry> entries;
  bool plus{false};
};

struct ExtentCountResponse {
  u64 extent_count{0};
};

/// Block data shipped back by a read; the simulator tracks only the size.
struct BlockDataResponse {
  u64 blocks{0};
};

using Response = std::variant<VoidResponse, InodeResponse,
                              OpenGetLayoutResponse, ReaddirResponse,
                              ExtentCountResponse, BlockDataResponse>;

// --- free functions ---------------------------------------------------------

Op op_of(const Request& req);

/// Blocks of file data `req` moves: the run total of a block, list or
/// strided envelope (the ops whose direction is kRead or kWrite, but for
/// get_extents), 0 for every other op.
u64 data_blocks(const Request& req);

/// Total bytes this request puts on the wire: framing header + body
/// + the data payload of a kWrite envelope.
u64 wire_bytes(const Request& req);

/// Bytes of the variable-length reply transfer; 0 when the response
/// piggybacks on the request exchange.
u64 bulk_bytes(const Response& resp);

}  // namespace mif::rpc
