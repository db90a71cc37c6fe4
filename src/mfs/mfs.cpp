#include "mfs/mfs.hpp"

#include <algorithm>
#include <cassert>

#include "obs/export.hpp"

namespace mif::mfs {

std::string_view to_string(DirectoryMode m) {
  switch (m) {
    case DirectoryMode::kNormal: return "normal";
    case DirectoryMode::kEmbedded: return "embedded";
  }
  return "?";
}

std::string_view PathComponents::next() {
  const std::size_t start = rest_.find_first_not_of('/');
  if (start == std::string_view::npos) {
    rest_ = {};
    return {};
  }
  rest_.remove_prefix(start);
  const std::size_t len = std::min(rest_.find('/'), rest_.size());
  const std::string_view part = rest_.substr(0, len);
  rest_.remove_prefix(len);
  return part;
}

std::vector<std::string_view> split_path(std::string_view path) {
  std::vector<std::string_view> parts;
  PathComponents components(path);
  for (auto part = components.next(); !part.empty(); part = components.next())
    parts.push_back(part);
  return parts;
}

Mfs::Mfs(MfsConfig cfg, const obs::Sinks& sinks, std::string_view name)
    : cfg_(cfg),
      disk_(cfg.geometry, sinks, std::string(name) + " disk"),
      io_(disk_, sim::IoScheduler::kDefaultQueue, 0,
          std::string(name) + " queue") {
  // Disk map: [journal][data area].  The layout engines carve their fixed
  // regions (tables, bitmaps) from the head of the data area themselves.
  const u64 data_start = cfg_.journal_area_blocks;
  const u64 data_blocks = cfg_.geometry.capacity_blocks - data_start;
  space_ = std::make_unique<block::FreeSpace>(DiskBlock{data_start},
                                              data_blocks, cfg_.alloc_groups);
  cache_ = std::make_unique<block::BufferCache>(io_, cfg_.cache_blocks);
  journal_ = std::make_unique<block::Journal>(
      io_, DiskBlock{0}, cfg_.journal_area_blocks, kCheckpointInterval,
      kJournalCommitBatch);

  MdsContext ctx{*cache_, *journal_, *space_, cfg_.discipline};
  switch (cfg_.mode) {
    case DirectoryMode::kNormal:
      layout_ = std::make_unique<NormalDirLayout>(ctx);
      break;
    case DirectoryMode::kEmbedded:
      layout_ = std::make_unique<EmbeddedDirLayout>(ctx, cfg_.embedded);
      break;
  }
  auto root = layout_->make_root();
  assert(root);
  (void)root;
  sync_point();
}

void Mfs::sync_point() { io_.drain(); }

Result<Mfs::Walk> Mfs::walk_to_parent(std::string_view path) {
  PathComponents components(path);
  Walk w{layout_->root(), components.next()};
  if (w.leaf.empty()) return Errc::kInvalid;
  // Descend through each component that turns out not to be the last.
  for (auto next = components.next(); !next.empty();
       next = components.next()) {
    auto child = layout_->lookup(w.parent, w.leaf);
    if (!child) return child.error();
    Inode* node = layout_->find(*child);
    if (!node || !node->is_dir()) return Errc::kNotDirectory;
    w = Walk{*child, next};
  }
  return w;
}

Result<InodeNo> Mfs::mkdir(std::string_view path) {
  auto w = walk_to_parent(path);
  if (!w) return w.error();
  auto r = layout_->mkdir(w->parent, w->leaf);
  sync_point();
  return r;
}

Result<InodeNo> Mfs::create(std::string_view path) {
  auto w = walk_to_parent(path);
  if (!w) return w.error();
  auto r = layout_->create(w->parent, w->leaf);
  sync_point();
  return r;
}

Result<InodeNo> Mfs::resolve(std::string_view path) {
  PathComponents components(path);
  InodeNo cur = layout_->root();
  for (auto p = components.next(); !p.empty(); p = components.next()) {
    auto next = layout_->lookup(cur, p);
    if (!next) return next.error();
    cur = *next;
  }
  sync_point();
  return cur;
}

Status Mfs::stat(std::string_view path) {
  auto ino = resolve(path);
  if (!ino) return ino.error();
  Status s = layout_->stat(*ino);
  sync_point();
  return s;
}

Status Mfs::utime(std::string_view path) {
  auto ino = resolve(path);
  if (!ino) return ino.error();
  Status s = layout_->utime(*ino);
  sync_point();
  return s;
}

Result<std::vector<DirEntry>> Mfs::readdir(std::string_view path, bool plus) {
  auto ino = resolve(path);
  if (!ino) return ino.error();
  auto r = layout_->readdir(*ino, plus);
  sync_point();
  return r;
}

Status Mfs::unlink(std::string_view path) {
  auto w = walk_to_parent(path);
  if (!w) return w.error();
  Status s = layout_->unlink(w->parent, w->leaf);
  sync_point();
  return s;
}

Result<InodeNo> Mfs::rename(std::string_view from, std::string_view to) {
  // A directory cannot move into its own subtree (nor onto itself): `to`
  // must not begin with every component of `from`.
  PathComponents src_parts(from);
  PathComponents dst_parts(to);
  bool within = true;
  for (auto part = src_parts.next(); within && !part.empty();
       part = src_parts.next()) {
    within = part == dst_parts.next();
  }
  if (within) return Errc::kInvalid;
  auto src = walk_to_parent(from);
  if (!src) return src.error();
  auto dst = walk_to_parent(to);
  if (!dst) return dst.error();
  auto r = layout_->rename(src->parent, src->leaf, dst->parent, dst->leaf);
  sync_point();
  return r;
}

Status Mfs::sync_file_layout(InodeNo file, u64 extent_count) {
  Status s = layout_->sync_layout(file, extent_count);
  sync_point();
  return s;
}

Status Mfs::getlayout(InodeNo file) {
  Status s = layout_->getlayout(file);
  sync_point();
  return s;
}

void Mfs::finish() {
  journal_->checkpoint();
  cache_->flush();
  io_.drain();
}

void Mfs::reset_io_stats() {
  io_.drain();
  io_.reset_stats();
  disk_.reset_stats();
  cache_->reset_stats();
  journal_->reset_stats();
}

void Mfs::export_metrics(obs::MetricsRegistry& reg,
                         std::string_view prefix) const {
  obs::publish(reg, obs::join_key(prefix, "cache"), cache_->stats());
  obs::publish(reg, obs::join_key(prefix, "journal"), journal_->stats());
  obs::publish(reg, obs::join_key(prefix, "disk"), disk_.stats());
  reg.stat(obs::join_key(prefix, "disk.position_ms"))
      .merge_from(disk_.position_times_ms());
  obs::publish(reg, obs::join_key(prefix, "io"), io_.stats());
  reg.gauge(obs::join_key(prefix, "space.free_blocks"))
      .set(static_cast<double>(space_->free_blocks()));
}

}  // namespace mif::mfs
