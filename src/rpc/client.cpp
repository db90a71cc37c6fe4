#include "rpc/client.hpp"

namespace mif::rpc {

namespace {

/// The lowering rule, once for both directions: one run is a block op
/// (`Block`), a regular pattern a strided datatype (`Strided`), anything
/// else a list (`List`).  A read's stream is ignored (its requests carry
/// none).
template <typename Block, typename Strided, typename List>
Request lower(InodeNo ino, StreamId stream, std::span<const BlockRun> runs) {
  const auto head = [&](auto& req) {
    req.ino = ino;
    if constexpr (requires { req.stream; }) req.stream = stream;
  };
  if (runs.size() == 1) {
    Block req;
    head(req);
    req.runs.push_back(runs[0]);
    return req;
  }
  if (util::StridedRuns pat; util::as_strided(runs, pat)) {
    Strided req;
    head(req);
    req.start = pat.start;
    req.count = pat.count;
    req.stride = pat.stride;
    req.block_len = pat.block_len;
    return req;
  }
  List req;
  head(req);
  req.runs.assign(runs.begin(), runs.end());
  return req;
}

}  // namespace

Result<InodeNo> Client::mkdir(std::string_view path) {
  auto r = expect<InodeResponse>(
      transport_->call(mds_, MkdirRequest{std::string(path)}));
  if (!r) return r.error();
  return r->ino;
}

Result<InodeNo> Client::create(std::string_view path) {
  auto r = expect<InodeResponse>(
      transport_->call(mds_, CreateRequest{std::string(path)}));
  if (!r) return r.error();
  return r->ino;
}

Status Client::stat(std::string_view path) {
  return to_status(transport_->call(mds_, StatRequest{std::string(path)}));
}

Status Client::utime(std::string_view path) {
  return to_status(transport_->call(mds_, UtimeRequest{std::string(path)}));
}

Status Client::unlink(std::string_view path) {
  return to_status(transport_->call(mds_, UnlinkRequest{std::string(path)}));
}

Result<InodeNo> Client::rename(std::string_view from, std::string_view to) {
  RenameRequest req;
  req.from = std::string(from);
  req.to = std::string(to);
  auto r = expect<InodeResponse>(transport_->call(mds_, std::move(req)));
  if (!r) return r.error();
  return r->ino;
}

Result<InodeNo> Client::resolve(std::string_view path) {
  auto r = expect<InodeResponse>(
      transport_->call(mds_, ResolveRequest{std::string(path)}));
  if (!r) return r.error();
  return r->ino;
}

Result<OpenGetLayoutResponse> Client::open_getlayout(std::string_view path) {
  return expect<OpenGetLayoutResponse>(
      transport_->call(mds_, OpenGetLayoutRequest{std::string(path)}));
}

Result<std::vector<mfs::DirEntry>> Client::readdir(std::string_view path) {
  auto r = expect<ReaddirResponse>(
      transport_->call(mds_, ReaddirRequest{std::string(path)}));
  if (!r) return r.error();
  return std::move(r->entries);
}

Result<std::vector<mfs::DirEntry>> Client::readdir_stats(
    std::string_view path) {
  auto r = expect<ReaddirResponse>(
      transport_->call(mds_, ReaddirPlusRequest{std::string(path)}));
  if (!r) return r.error();
  return std::move(r->entries);
}

Status Client::report_extents(InodeNo ino, u64 extent_count) {
  ReportExtentsRequest req;
  req.ino = ino;
  req.extent_count = extent_count;
  return to_status(transport_->call(mds_, req));
}

Status Client::write_list(u32 target, InodeNo ino, StreamId stream,
                          std::vector<BlockRun> runs) {
  WriteListRequest req;
  req.ino = ino;
  req.stream = stream;
  req.runs = std::move(runs);
  return to_status(transport_->call(osd_at(target), std::move(req)));
}

Status Client::read_list(u32 target, InodeNo ino, std::vector<BlockRun> runs) {
  ReadListRequest req;
  req.ino = ino;
  req.runs = std::move(runs);
  return to_status(transport_->call(osd_at(target), std::move(req)));
}

Ticket Client::write_runs_async(u32 target, InodeNo ino, StreamId stream,
                                std::span<const BlockRun> runs) {
  return transport_->call_async(
      osd_at(target),
      lower<BlockWriteRequest, WriteStridedRequest, WriteListRequest>(
          ino, stream, runs));
}

Ticket Client::read_runs_async(u32 target, InodeNo ino,
                               std::span<const BlockRun> runs) {
  return transport_->call_async(
      osd_at(target),
      lower<BlockReadRequest, ReadStridedRequest, ReadListRequest>(ino, {},
                                                                   runs));
}

Ticket Client::preallocate_async(u32 target, InodeNo ino, u64 total_blocks) {
  PreallocateRequest req;
  req.ino = ino;
  req.total_blocks = total_blocks;
  return transport_->call_async(osd_at(target), req);
}

Ticket Client::close_file_async(u32 target, InodeNo ino) {
  CloseFileRequest req;
  req.ino = ino;
  return transport_->call_async(osd_at(target), req);
}

Ticket Client::delete_file_async(u32 target, InodeNo ino) {
  DeleteFileRequest req;
  req.ino = ino;
  return transport_->call_async(osd_at(target), req);
}

Result<u64> Client::target_extents(u32 target, InodeNo ino) {
  GetExtentsRequest req;
  req.ino = ino;
  auto r = expect<ExtentCountResponse>(transport_->call(osd_at(target), req));
  if (!r) return r.error();
  return r->extent_count;
}

Status Client::delete_file(u32 target, InodeNo ino) {
  DeleteFileRequest req;
  req.ino = ino;
  return to_status(transport_->call(osd_at(target), req));
}

}  // namespace mif::rpc
