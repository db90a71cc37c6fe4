#include "mfs/normal_dir.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <span>

namespace mif::mfs {

NormalDirLayout::NormalDirLayout(MdsContext ctx, NormalLayoutConfig cfg)
    : DirLayout(ctx), cfg_(cfg) {
  // Carve the fixed metadata regions out of the data area up front, the way
  // mkfs lays out group descriptors, bitmaps and inode tables.
  auto gdesc = ctx_.space.allocate_exact(DiskBlock{0}, 1);
  auto ibitmap = ctx_.space.allocate_exact(DiskBlock{1}, 1);
  auto table = ctx_.space.allocate_exact(DiskBlock{2}, cfg_.inode_table_blocks);
  assert(gdesc && ibitmap && table);
  gdesc_block_ = gdesc->start;
  ibitmap_block_ = ibitmap->start;
  table_base_ = table->start;
}

DiskBlock NormalDirLayout::inode_block_of(InodeNo ino) const {
  // Inode numbers wrap over the fixed table (real ext3 reuses freed inode
  // slots; our monotone counter models the location, not the recycling).
  return DiskBlock{table_base_.v + (ino.v / Format::kInodesPerTableBlock) %
                                       cfg_.inode_table_blocks};
}

NormalDirLayout::DirState* NormalDirLayout::dir_state(InodeNo dir) {
  auto it = dirs_.find(dir.v);
  return it == dirs_.end() ? nullptr : &it->second;
}

u64 NormalDirLayout::next_ordinal(const DirState& d) {
  return d.free_ordinals.empty() ? d.slots.size() : d.free_ordinals.back();
}

void NormalDirLayout::take_ordinal(DirState& d, u64 ordinal) {
  if (ordinal == d.slots.size()) {
    d.slots.emplace_back();
  } else {
    assert(!d.free_ordinals.empty() && d.free_ordinals.back() == ordinal);
    d.free_ordinals.pop_back();
  }
}

NormalDirLayout::Record* NormalDirLayout::record(InodeNo ino) {
  if (ino.v >= record_of_.size() || record_of_[ino.v] == 0) return nullptr;
  const u32 r = record_of_[ino.v] - 1;
  return &chunks_[r / kChunkRecords][r % kChunkRecords];
}

const NormalDirLayout::Record* NormalDirLayout::record(InodeNo ino) const {
  return const_cast<NormalDirLayout*>(this)->record(ino);
}

NormalDirLayout::Record& NormalDirLayout::new_record() {
  u32 r;
  if (!free_records_.empty()) {
    r = free_records_.back();
    free_records_.pop_back();
  } else {
    assert(records_used_ < ~u32{0} && "inode record index overflows");
    if (records_used_ % kChunkRecords == 0)
      chunks_.push_back(std::make_unique<Record[]>(kChunkRecords));
    r = records_used_++;
  }
  const InodeNo ino{record_of_.size()};
  record_of_.push_back(r + 1);
  Record& rec = chunks_[r / kChunkRecords][r % kChunkRecords];
  rec = Record{};
  rec.inode.num = ino;
  rec.inode.inode_block = inode_block_of(ino);
  return rec;
}

void NormalDirLayout::drop_record(InodeNo ino) {
  u32& slot = record_of_[ino.v];
  assert(slot != 0);
  free_records_.push_back(slot - 1);
  slot = 0;
}

Result<DiskBlock> NormalDirLayout::ensure_dirent_block(DirState& d,
                                                       u64 ordinal) {
  const u64 idx = ordinal / Format::kDirentsPerBlock;
  while (d.dirent_blocks.size() <= idx) {
    if (d.reserve_left == 0) {
      // Refill the directory's ext3-style reservation window (8 blocks).
      const DiskBlock goal =
          d.dirent_blocks.empty()
              ? DiskBlock{table_base_.v + cfg_.inode_table_blocks}
              : DiskBlock{d.dirent_blocks.back().v + 1};
      auto run = ctx_.space.allocate_best(goal, 1, 8);
      if (!run) return run.error();
      d.reserve_next = run->start;
      d.reserve_left = run->length;
    }
    d.dirent_blocks.push_back(d.reserve_next);
    d.reserve_next.v += 1;
    d.reserve_left -= 1;
  }
  return d.dirent_blocks[idx];
}

void NormalDirLayout::read_dirent_block(DirState& d, u64 ordinal) {
  const u64 idx = ordinal / Format::kDirentsPerBlock;
  if (idx < d.dirent_blocks.size()) ctx_.cache.read(d.dirent_blocks[idx], 1);
}

Result<InodeNo> NormalDirLayout::make_root() {
  if (root_.valid()) return Errc::kExists;
  Record& rec = new_record();
  rec.inode.type = FileType::kDirectory;
  const InodeNo ino = rec.inode.num;
  dirs_.emplace(ino.v, DirState{ctx_.readahead});
  root_ = ino;
  ctx_.journal.log({{inode_block_of(ino), 1}, {ibitmap_block_, 1}});
  ctx_.cache.install(inode_block_of(ino), 1);
  return ino;
}

Result<InodeNo> NormalDirLayout::create_common(InodeNo parent,
                                               std::string_view name,
                                               FileType type) {
  DirState* d = dir_state(parent);
  if (!d) return Errc::kNotDirectory;
  // Existence check: ext3 proves the name absent by scanning every dirent
  // block (an Htree MDS probes one leaf).  This is the lookup cost the
  // paper says "is involved in all metadata access operations" (§V-D2).
  if (ctx_.discipline == LookupDiscipline::kLinearScan) {
    for (DiskBlock blk : d->dirent_blocks) ctx_.cache.read(blk, 1);
  } else if (!d->dirent_blocks.empty()) {
    ctx_.cache.read(
        d->dirent_blocks[name_hash(name) % d->dirent_blocks.size()], 1);
  }
  if (d->index.find(name)) return Errc::kExists;

  // The dirent block comes first: when it cannot be had, nothing changes.
  const u64 ordinal = next_ordinal(*d);
  auto dirent_blk = ensure_dirent_block(*d, ordinal);
  if (!dirent_blk) return dirent_blk.error();
  take_ordinal(*d, ordinal);

  Record& rec = new_record();
  rec.inode.type = type;
  rec.parent = parent;
  rec.ordinal = ordinal;
  const InodeNo ino = rec.inode.num;

  d->slots[ordinal] = Slot{ino, type};
  d->index.insert(name, ordinal);
  ++d->live_entries;

  if (type == FileType::kDirectory) dirs_.emplace(ino.v, DirState{ctx_.readahead});

  // Read-modify-write of the dirent block AND the inode-table block (ext3
  // reads the table block to initialise one 256-byte inode in it), plus the
  // inode bitmap and the group descriptor — the classic create transaction.
  ctx_.cache.read(*dirent_blk, 1);
  ctx_.cache.read(inode_block_of(ino), 1);
  ctx_.journal.log({{*dirent_blk, 1},
                    {inode_block_of(ino), 1},
                    {ibitmap_block_, 1},
                    {gdesc_block_, 1}});
  ctx_.cache.install(*dirent_blk, 1);
  ctx_.cache.install(inode_block_of(ino), 1);
  ++stats_.creates;
  return ino;
}

Result<InodeNo> NormalDirLayout::mkdir(InodeNo parent, std::string_view name) {
  return create_common(parent, name, FileType::kDirectory);
}

Result<InodeNo> NormalDirLayout::create(InodeNo parent,
                                        std::string_view name) {
  return create_common(parent, name, FileType::kFile);
}

Result<InodeNo> NormalDirLayout::lookup(InodeNo dir, std::string_view name) {
  DirState* d = dir_state(dir);
  if (!d) return Errc::kNotDirectory;
  auto ordinal = d->index.find(name);
  if (!ordinal) return Errc::kNotFound;
  ++stats_.lookups;
  // Charge the dirent-block probes the lookup discipline would make; the
  // buffer cache absorbs re-probes of hot blocks.
  const u64 found_in = *ordinal / Format::kDirentsPerBlock;
  const u64 probes = NameIndex::lookup_block_cost(
      ctx_.discipline, d->dirent_blocks.size(), found_in);
  if (ctx_.discipline == LookupDiscipline::kLinearScan) {
    for (u64 i = 0; i < probes && i < d->dirent_blocks.size(); ++i)
      ctx_.cache.read(d->dirent_blocks[i], 1);
  } else {
    read_dirent_block(*d, *ordinal);
  }
  return d->slots[*ordinal]->ino;
}

Status NormalDirLayout::stat(InodeNo ino) {
  Inode* node = find(ino);
  if (!node) return Errc::kNotFound;
  ++stats_.stats_ops;
  ctx_.cache.read(node->inode_block, 1);
  return {};
}

Status NormalDirLayout::utime(InodeNo ino) {
  Inode* node = find(ino);
  if (!node) return Errc::kNotFound;
  ++stats_.utimes;
  ++node->mtime;
  ctx_.cache.read(node->inode_block, 1);
  ctx_.journal.log({{node->inode_block, 1}});
  return {};
}

Result<std::vector<DirEntry>> NormalDirLayout::readdir(InodeNo dir,
                                                       bool plus) {
  DirState* d = dir_state(dir);
  if (!d) return Errc::kNotDirectory;
  ++stats_.readdirs;

  std::vector<DirEntry> out;
  out.reserve(d->live_entries);

  // Readahead state is per-scan, as a kernel file descriptor's would be:
  // the window grows while this sweep stays sequential and dies with it.
  sim::Readahead content_ra(ctx_.readahead);
  sim::Readahead table_ra(ctx_.readahead);

  // Stream the dirent blocks in logical order under readahead.  Blocks are
  // often physically contiguous (allocated back to back), so the scheduler
  // merges what readahead batches.
  for (u64 idx = 0; idx < d->dirent_blocks.size(); ++idx) {
    const u64 fetch = content_ra.advise(idx, 1);
    for (u64 f = 0; f < fetch && idx + f < d->dirent_blocks.size(); ++f)
      ctx_.cache.read(d->dirent_blocks[idx + f], 1);
  }
  for (std::size_t ord = 0; ord < d->slots.size(); ++ord) {
    const auto& slot = d->slots[ord];
    if (!slot) continue;
    out.push_back(
        DirEntry{std::string(d->index.name_at(ord)), slot->ino, slot->type});
    if (plus) {
      // readdirplus: fetch each child's inode from the table region — the
      // second disk region of Fig. 1(b) — plus any spilled mapping blocks.
      Inode* node = find(slot->ino);
      if (!node) continue;
      const u64 tpos = node->inode_block.v - table_base_.v;
      const u64 fetch = table_ra.advise(tpos, 1);
      if (fetch > 0) {
        const u64 cap = cfg_.inode_table_blocks - tpos;
        ctx_.cache.read(node->inode_block, std::min(fetch, cap));
      }
      for (DiskBlock mb : node->mapping_blocks) ctx_.cache.read(mb, 1);
    }
  }
  return out;
}

Status NormalDirLayout::unlink(InodeNo dir, std::string_view name) {
  DirState* d = dir_state(dir);
  if (!d) return Errc::kNotDirectory;
  auto ordinal = d->index.find(name);
  if (!ordinal) return Errc::kNotFound;
  // Find the victim dirent on disk (linear scan up to its block; Htree
  // probes straight to it).
  {
    const u64 found_in = *ordinal / Format::kDirentsPerBlock;
    const u64 probes = NameIndex::lookup_block_cost(
        ctx_.discipline, d->dirent_blocks.size(), found_in);
    if (ctx_.discipline == LookupDiscipline::kLinearScan) {
      for (u64 i = 0; i < probes && i < d->dirent_blocks.size(); ++i)
        ctx_.cache.read(d->dirent_blocks[i], 1);
    }
  }
  Slot& slot = *d->slots[*ordinal];
  if (slot.type == FileType::kDirectory) {
    DirState* child = dir_state(slot.ino);
    if (child && child->live_entries > 0) return Errc::kNotEmpty;
    dirs_.erase(slot.ino.v);
  }
  ++stats_.unlinks;

  Record* rec = record(slot.ino);
  assert(rec);
  const Inode& node = rec->inode;
  const DiskBlock dirent_blk =
      d->dirent_blocks[*ordinal / Format::kDirentsPerBlock];
  // ext3 unlink transaction: dirent block, inode block (dtime), inode
  // bitmap, and the block bitmap(s) covering freed mapping blocks.
  ctx_.cache.read(dirent_blk, 1);
  ctx_.cache.read(node.inode_block, 1);
  const std::array<block::BlockRange, 4> tx{{{dirent_blk, 1},
                                             {node.inode_block, 1},
                                             {ibitmap_block_, 1},
                                             {gdesc_block_, 1}}};
  ctx_.journal.log(
      std::span(tx).first(node.mapping_blocks.empty() ? 3 : 4));
  for (DiskBlock mb : node.mapping_blocks)
    (void)ctx_.space.free_range({mb, 1});

  drop_record(slot.ino);
  d->index.erase(name);
  d->slots[*ordinal].reset();
  d->free_ordinals.push_back(*ordinal);
  --d->live_entries;
  return {};
}

Result<InodeNo> NormalDirLayout::rename(InodeNo src_dir,
                                        std::string_view src_name,
                                        InodeNo dst_dir,
                                        std::string_view dst_name) {
  DirState* src = dir_state(src_dir);
  DirState* dst = dir_state(dst_dir);
  if (!src || !dst) return Errc::kNotDirectory;
  auto src_ord = src->index.find(src_name);
  if (!src_ord) return Errc::kNotFound;
  if (dst->index.find(dst_name)) return Errc::kExists;

  // The source entry's ordinal is freed before the destination takes one,
  // so a rename within one directory takes the ordinal it frees.  The
  // destination's dirent block comes first: when it cannot be had, nothing
  // changes.
  const u64 ordinal = src == dst ? *src_ord : next_ordinal(*dst);
  auto dst_blk = ensure_dirent_block(*dst, ordinal);
  if (!dst_blk) return dst_blk.error();
  ++stats_.renames;

  const Slot moving = *src->slots[*src_ord];
  src->index.erase(src_name);
  src->slots[*src_ord].reset();
  --src->live_entries;
  if (src != dst) {
    src->free_ordinals.push_back(*src_ord);
    take_ordinal(*dst, ordinal);
  }
  dst->slots[ordinal] = moving;
  dst->index.insert(dst_name, ordinal);
  ++dst->live_entries;
  Record* rec = record(moving.ino);
  assert(rec);
  rec->parent = dst_dir;
  rec->ordinal = ordinal;

  const DiskBlock src_blk =
      src->dirent_blocks[*src_ord / Format::kDirentsPerBlock];
  ctx_.cache.read(src_blk, 1);
  ctx_.cache.read(*dst_blk, 1);
  ctx_.journal.log({{src_blk, 1}, {*dst_blk, 1}});
  // The inode number is stable under the traditional layout.
  return moving.ino;
}

Status NormalDirLayout::sync_layout(InodeNo file, u64 extent_count) {
  Inode* node = find(file);
  if (!node) return Errc::kNotFound;
  ++stats_.layout_syncs;
  node->last_synced_extents = extent_count;
  const u64 need = Inode::overflow_blocks_for(extent_count);
  std::vector<block::BlockRange> tx{{node->inode_block, 1}};
  while (node->mapping_blocks.size() < need) {
    // Overflow mapping blocks come from the data area wherever the allocator
    // finds room — under churn they end up far from both the inode table and
    // the dirent blocks (the third region of Fig. 1(b)).
    const DiskBlock goal = node->mapping_blocks.empty()
                               ? DiskBlock{table_base_.v + cfg_.inode_table_blocks}
                               : DiskBlock{node->mapping_blocks.back().v + 1};
    auto run = ctx_.space.allocate_best(goal, 1, 1);
    if (!run) return Errc::kNoSpace;
    node->mapping_blocks.push_back(run->start);
    tx.push_back({run->start, 1});
  }
  ctx_.cache.read(node->inode_block, 1);
  ctx_.journal.log(tx);
  return {};
}

Status NormalDirLayout::getlayout(InodeNo file) {
  Inode* node = find(file);
  if (!node) return Errc::kNotFound;
  ++stats_.getlayouts;
  ctx_.cache.read(node->inode_block, 1);
  for (DiskBlock mb : node->mapping_blocks) ctx_.cache.read(mb, 1);
  return {};
}

Inode* NormalDirLayout::find(InodeNo ino) {
  Record* rec = record(ino);
  return rec ? &rec->inode : nullptr;
}

void NormalDirLayout::scan_fragmentation(
    const std::function<void(u64)>& file_cb,
    const std::function<void(double, u64)>& dir_cb) const {
  for (u64 n = 1; n < record_of_.size(); ++n) {
    const Record* rec = record(InodeNo{n});
    if (rec && !rec->inode.is_dir()) file_cb(rec->inode.last_synced_extents);
  }
  // No per-directory accumulator in this layout (the traditional scheme has
  // no use for the degree); derive it from the live dirents.
  for (const auto& [ino, d] : dirs_) {
    u64 files = 0;
    u64 extents = 0;
    for (const auto& slot : d.slots) {
      if (!slot || slot->type != FileType::kFile) continue;
      const Record* rec = record(slot->ino);
      if (!rec) continue;
      ++files;
      extents += rec->inode.last_synced_extents;
    }
    dir_cb(files == 0 ? 0.0
                      : static_cast<double>(extents) /
                            static_cast<double>(files),
           files);
  }
}

NamespaceVerifyReport NormalDirLayout::verify() const {
  NamespaceVerifyReport report;
  report.inodes = records_used_ - free_records_.size();
  report.directories = dirs_.size();

  // Every metadata block (dirent blocks, mapping blocks) owned exactly once.
  std::vector<u64> blocks;
  for (const auto& [ino, d] : dirs_) {
    for (DiskBlock b : d.dirent_blocks) blocks.push_back(b.v);
  }
  u64 live = 0;
  for (u64 n = 1; n < record_of_.size(); ++n) {
    const Record* rec = record(InodeNo{n});
    if (!rec) continue;
    ++live;
    for (DiskBlock b : rec->inode.mapping_blocks) blocks.push_back(b.v);
    // The record is this number's, and (the root aside) a live dirent at
    // its linkage names it.
    if (rec->inode.num.v != n) report.links_consistent = false;
    if (n == root_.v) continue;
    auto parent = dirs_.find(rec->parent.v);
    if (parent == dirs_.end() ||
        rec->ordinal >= parent->second.slots.size() ||
        !parent->second.slots[rec->ordinal] ||
        parent->second.slots[rec->ordinal]->ino.v != n) {
      report.links_consistent = false;
    }
  }
  if (live != report.inodes) report.links_consistent = false;
  report.metadata_blocks = blocks.size();
  std::sort(blocks.begin(), blocks.end());
  report.blocks_unique =
      std::adjacent_find(blocks.begin(), blocks.end()) == blocks.end();

  // Every directory slot points at a live inode whose linkage points back,
  // under the name the index binds to that slot.
  for (const auto& [dir_ino, d] : dirs_) {
    u64 named = 0;
    for (std::size_t ord = 0; ord < d.slots.size(); ++ord) {
      const auto& slot = d.slots[ord];
      if (!slot) continue;
      ++named;
      const Record* rec = record(slot->ino);
      if (!rec || rec->parent.v != dir_ino || rec->ordinal != ord ||
          d.index.find(d.index.name_at(ord)) != ord) {
        report.links_consistent = false;
      }
    }
    if (named != d.live_entries || named != d.index.size())
      report.links_consistent = false;
  }
  return report;
}

}  // namespace mif::mfs
