// rpc::Client — the typed stub callers use instead of server method calls.
//
// One method per operation: it builds the request envelope, sends it through
// the transport, and unwraps the expected response alternative.  ClientFs,
// workloads and benches all speak to servers exclusively through this
// class; nothing above the transport ever touches a server object's RPC
// surface directly.
#pragma once

#include <string_view>
#include <vector>

#include "rpc/envelope.hpp"
#include "rpc/transport.hpp"

namespace mif::rpc {

class Client {
 public:
  /// Stub bound to one transport; metadata ops go to MDS `mds_index`.
  explicit Client(Transport& transport, u32 mds_index = 0)
      : transport_(&transport), mds_(mds_at(mds_index)) {}

  // --- metadata ops (client ↔ MDS) -----------------------------------------
  Result<InodeNo> mkdir(std::string_view path);
  Result<InodeNo> create(std::string_view path);
  Status stat(std::string_view path);
  Status utime(std::string_view path);
  Status unlink(std::string_view path);
  Result<InodeNo> rename(std::string_view from, std::string_view to);
  /// Revalidate a cached handle (free — no wire message, see OpTraits).
  Result<InodeNo> resolve(std::string_view path);
  Result<OpenGetLayoutResponse> open_getlayout(std::string_view path);
  Result<std::vector<mfs::DirEntry>> readdir(std::string_view path);
  Result<std::vector<mfs::DirEntry>> readdir_stats(std::string_view path);
  Status report_extents(InodeNo ino, u64 extent_count);

  // --- data ops (client ↔ storage target) ----------------------------------
  Status block_write(u32 target, InodeNo ino, StreamId stream, FileBlock start,
                     u64 count);
  Status block_read(u32 target, InodeNo ino, FileBlock start, u64 count);
  /// List I/O: one envelope moves every run in one server pass.
  Status write_list(u32 target, InodeNo ino, StreamId stream,
                    std::vector<BlockRun> runs);
  Status read_list(u32 target, InodeNo ino, std::vector<BlockRun> runs);
  /// Datatype I/O: a (count, stride, block_len) pattern in constant wire
  /// bytes.
  Status write_strided(u32 target, InodeNo ino, StreamId stream,
                       FileBlock start, u64 count, u64 stride, u64 block_len);
  Status read_strided(u32 target, InodeNo ino, FileBlock start, u64 count,
                      u64 stride, u64 block_len);
  Result<u64> target_extents(u32 target, InodeNo ino);
  Status preallocate(u32 target, InodeNo ino, u64 total_blocks);
  Status close_file(u32 target, InodeNo ino);
  Status delete_file(u32 target, InodeNo ino);

  // --- async data ops: issue a ticket, drain via completions() -------------
  // The striped data path issues many of these before claiming any result,
  // so an async transport keeps a window in flight across the targets.
  Ticket block_write_async(u32 target, InodeNo ino, StreamId stream,
                           FileBlock start, u64 count);
  Ticket block_read_async(u32 target, InodeNo ino, FileBlock start, u64 count);
  Ticket write_list_async(u32 target, InodeNo ino, StreamId stream,
                          std::vector<BlockRun> runs);
  Ticket read_list_async(u32 target, InodeNo ino, std::vector<BlockRun> runs);
  Ticket write_strided_async(u32 target, InodeNo ino, StreamId stream,
                             FileBlock start, u64 count, u64 stride,
                             u64 block_len);
  Ticket read_strided_async(u32 target, InodeNo ino, FileBlock start,
                            u64 count, u64 stride, u64 block_len);
  Ticket preallocate_async(u32 target, InodeNo ino, u64 total_blocks);
  Ticket close_file_async(u32 target, InodeNo ino);
  Ticket delete_file_async(u32 target, InodeNo ino);

  /// The transport chain's completion queue (drain point for the tickets
  /// above).
  CompletionQueue& completions() { return transport_->completions(); }
  /// Claim one ticket's result as a Status, blocking the modeled timeline.
  Status wait(const Ticket& t) {
    Result<Response> r = completions().wait(t);
    return to_status(r);
  }

  /// Push out anything a buffering transport still holds; surfaces deferred
  /// errors.
  Status flush() { return transport_->flush(); }

  /// Let time-based layers (QoS token refill) act on clock progress without
  /// forcing a flush.
  void pump() { transport_->pump(); }

  Transport& transport() { return *transport_; }
  u32 mds_index() const { return mds_.index; }

 private:
  template <typename T>
  Result<T> expect(Result<Response> r) {
    if (!r) return r.error();
    if (T* v = std::get_if<T>(&*r)) return std::move(*v);
    return Errc::kInvalid;  // transport returned the wrong alternative
  }
  Status to_status(const Result<Response>& r) {
    return r ? Status{} : Status{r.error()};
  }

  Transport* transport_;
  Address mds_;
};

}  // namespace mif::rpc
