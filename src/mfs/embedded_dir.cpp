#include "mfs/embedded_dir.hpp"

#include <algorithm>
#include <cassert>

namespace mif::mfs {

EmbeddedDirLayout::EmbeddedDirLayout(MdsContext ctx, EmbeddedLayoutConfig cfg)
    : DirLayout(ctx), cfg_(cfg) {
  auto bitmap = ctx_.space.allocate_exact(DiskBlock{0}, 1);
  auto table = ctx_.space.allocate_exact(DiskBlock{1}, cfg_.dir_table_blocks);
  assert(bitmap && table);
  free_bitmap_block_ = bitmap->start;
  table_base_ = table->start;
}

DiskBlock EmbeddedDirLayout::dir_table_block(DirId id) const {
  // 256 table entries per block; clamp into the reserved region.
  return DiskBlock{table_base_.v +
                   std::min<u64>(id.v / 256, cfg_.dir_table_blocks - 1)};
}

EmbeddedDirLayout::DirState* EmbeddedDirLayout::dir_state(InodeNo dir) {
  auto node = inodes_.find(correlation_.current(dir).v);
  if (node == inodes_.end() || !node->second.is_dir()) return nullptr;
  auto it = dirs_.find(node->second.dir_id.v);
  return it == dirs_.end() ? nullptr : &it->second;
}

const EmbeddedDirLayout::DirState* EmbeddedDirLayout::dir_state(
    InodeNo dir) const {
  return const_cast<EmbeddedDirLayout*>(this)->dir_state(dir);
}

Status EmbeddedDirLayout::grow_content(DirState& d) {
  // "When directory enlarging, the number of preallocated blocks is scaled
  // to support large directories" — double the reservation, preferably
  // extending the existing run so the content stays one contiguous region.
  const u64 want = std::max<u64>(
      cfg_.initial_dir_blocks, d.content.size() * (cfg_.growth_factor - 1));
  const DiskBlock tail{d.content.back().v + 1};
  u64 got = ctx_.space.extend_in_place(tail, want);
  if (got > 0) {
    for (u64 i = 0; i < got; ++i)
      d.content.push_back(DiskBlock{tail.v + i});
    return {};
  }
  auto run = ctx_.space.allocate_best(tail, 1, want);
  if (!run) return Errc::kNoSpace;
  for (u64 i = 0; i < run->length; ++i)
    d.content.push_back(DiskBlock{run->start.v + i});
  return {};
}

Result<u64> EmbeddedDirLayout::take_content_block(DirState& d) {
  if (d.used_blocks == d.content.size()) {
    if (Status s = grow_content(d); !s) return s.error();
  }
  return d.used_blocks++;
}

Result<DiskBlock> EmbeddedDirLayout::slot_block(DirState& d, u32 slot) {
  const u64 group = slot / Format::kEmbeddedSlotsPerBlock;
  while (d.slot_group_block.size() <= group) {
    auto idx = take_content_block(d);
    if (!idx) return idx.error();
    d.slot_group_block.push_back(*idx);
  }
  return d.content[d.slot_group_block[group]];
}

u32 EmbeddedDirLayout::next_slot(const DirState& d) {
  return d.reusable_slots.empty() ? static_cast<u32>(d.next_slot)
                                  : d.reusable_slots.back();
}

void EmbeddedDirLayout::take_slot(DirState& d, u32 slot) {
  if (slot == d.next_slot) {
    ++d.next_slot;
    d.slots.emplace_back();
  } else {
    assert(!d.reusable_slots.empty() && d.reusable_slots.back() == slot);
    d.reusable_slots.pop_back();
  }
}

Result<InodeNo> EmbeddedDirLayout::make_root() {
  if (root_.valid()) return Errc::kExists;
  // The root's inode number uses the reserved DirId 0 so number-based
  // resolution terminates at it.
  const InodeNo ino = EmbeddedInodeNo::make(DirId{0}, 1);
  const DirId id = dir_table_.register_directory(ino);

  Inode node;
  node.num = ino;
  node.type = FileType::kDirectory;
  node.dir_id = id;
  inodes_[ino.v] = std::move(node);

  DirState d{ctx_.readahead};
  d.id = id;
  auto run = ctx_.space.allocate_best(DiskBlock{table_base_.v +
                                                cfg_.dir_table_blocks},
                                      1, cfg_.initial_dir_blocks);
  if (!run) return Errc::kNoSpace;
  for (u64 i = 0; i < run->length; ++i)
    d.content.push_back(DiskBlock{run->start.v + i});
  dirs_.emplace(id.v, std::move(d));
  root_ = ino;
  ctx_.journal.log({{dir_table_block(id), 1}});
  return ino;
}

Result<InodeNo> EmbeddedDirLayout::create_common(InodeNo parent,
                                                 std::string_view name,
                                                 FileType type) {
  DirState* d = dir_state(parent);
  if (!d) return Errc::kNotDirectory;
  if (d->index.find(name)) return Errc::kExists;

  // The slot is claimed only once every allocation has succeeded: a failed
  // create or mkdir changes nothing.
  const u32 slot = next_slot(*d);
  const std::size_t groups_before = d->slot_group_block.size();
  const u64 used_before = d->used_blocks;
  const std::size_t content_before = d->content.size();
  auto blk = slot_block(*d, slot);
  if (!blk) return blk.error();

  const InodeNo ino = EmbeddedInodeNo::make(d->id, slot);
  Inode node;
  node.num = ino;
  node.type = type;
  node.inode_block = *blk;
  node.dir_id = d->id;  // overwritten below for directories

  std::vector<block::BlockRange> tx{{*blk, 1}};

  if (type == FileType::kDirectory) {
    // Persistent content preallocation for the new directory's future
    // children.  Content is placed right after the parent's content region:
    // related directories cluster on disk the way related cylinder-group
    // data does, keeping metadata sweeps short.  (Redbud's 'rlov' spreads
    // content across PAGs of *different disks* for load balance; on the
    // single MDS spindle modelled here that locality is what matters.)
    auto run = ctx_.space.allocate_best(
        d->content.empty() ? DiskBlock{table_base_.v + cfg_.dir_table_blocks}
                           : DiskBlock{d->content.back().v + 1},
        1, cfg_.initial_dir_blocks);
    if (!run) {
      // Give back what slot_block took for the slot's group.
      d->slot_group_block.resize(groups_before);
      d->used_blocks = used_before;
      release_content(*d, content_before);
      return Errc::kNoSpace;
    }
    const DirId id = dir_table_.register_directory(ino);
    node.dir_id = id;
    DirState child{ctx_.readahead};
    child.id = id;
    for (u64 i = 0; i < run->length; ++i)
      child.content.push_back(DiskBlock{run->start.v + i});
    dirs_.emplace(id.v, std::move(child));
    parent_of_[ino.v] = correlation_.current(parent);
    tx.push_back({dir_table_block(id), 1});
  } else {
    ++d->file_count;
    // Eager mapping-block preallocation when the directory is already badly
    // fragmented (§IV-A "an extra block is thus preallocated on creating").
    if (d->file_count > 1 &&
        static_cast<double>(d->extent_units) /
                static_cast<double>(d->file_count) >
            cfg_.frag_degree_threshold) {
      if (auto idx = take_content_block(*d)) {
        node.mapping_blocks.push_back(d->content[*idx]);
        tx.push_back({d->content[*idx], 1});
      }
    }
  }

  take_slot(*d, slot);
  inodes_[ino.v] = std::move(node);
  d->slots[slot] = Slot{ino, type};
  d->index.insert(name, slot);
  ++d->live_entries;

  ctx_.cache.read(*blk, 1);  // read-modify-write of the content block
  ctx_.journal.log(tx);
  ctx_.cache.install(*blk, 1);
  ++stats_.creates;
  return ino;
}

Result<InodeNo> EmbeddedDirLayout::mkdir(InodeNo parent,
                                         std::string_view name) {
  return create_common(parent, name, FileType::kDirectory);
}

Result<InodeNo> EmbeddedDirLayout::create(InodeNo parent,
                                          std::string_view name) {
  return create_common(parent, name, FileType::kFile);
}

Result<InodeNo> EmbeddedDirLayout::lookup(InodeNo dir, std::string_view name) {
  DirState* d = dir_state(dir);
  if (!d) return Errc::kNotDirectory;
  auto slot = d->index.find(name);
  if (!slot) return Errc::kNotFound;
  ++stats_.lookups;
  // §IV-C: metadata servers using embedded directories keep a fast
  // in-memory hash index over names, so a lookup goes straight to the one
  // content block holding the embedded inode — no linear dirent scan.
  const u64 group = *slot / Format::kEmbeddedSlotsPerBlock;
  ctx_.cache.read(d->content[d->slot_group_block[group]], 1);
  return d->slots[*slot]->ino;
}

Status EmbeddedDirLayout::stat(InodeNo ino) {
  Inode* node = find(ino);
  if (!node) return Errc::kNotFound;
  ++stats_.stats_ops;
  ctx_.cache.read(node->inode_block, 1);
  return {};
}

Status EmbeddedDirLayout::utime(InodeNo ino) {
  Inode* node = find(ino);
  if (!node) return Errc::kNotFound;
  ++stats_.utimes;
  ++node->mtime;
  ctx_.cache.read(node->inode_block, 1);
  ctx_.journal.log({{node->inode_block, 1}});
  return {};
}

Result<std::vector<DirEntry>> EmbeddedDirLayout::readdir(InodeNo dir,
                                                         bool plus) {
  DirState* d = dir_state(dir);
  if (!d) return Errc::kNotDirectory;
  ++stats_.readdirs;
  (void)plus;  // "we opt to read all content in directory, including the
               // extra mapping blocks" — plain readdir and readdirplus cost
               // the same sequential sweep in embedded mode.

  // Per-scan readahead, as a kernel fd would hold.
  sim::Readahead ra(ctx_.readahead);
  for (u64 idx = 0; idx < d->used_blocks; ++idx) {
    const u64 fetch = ra.advise(idx, 1);
    for (u64 f = 0; f < fetch && idx + f < d->used_blocks; ++f)
      ctx_.cache.read(d->content[idx + f], 1);
  }

  std::vector<DirEntry> out;
  out.reserve(d->live_entries);
  for (u32 s = 0; s < d->next_slot; ++s) {
    const auto& slot = d->slots[s];
    if (!slot) continue;
    out.push_back(
        DirEntry{std::string(d->index.name_at(s)), slot->ino, slot->type});
  }
  return out;
}

void EmbeddedDirLayout::lazy_free_flush(DirState& d) {
  if (d.pending_frees.empty()) return;
  d.reusable_slots.insert(d.reusable_slots.end(), d.pending_frees.begin(),
                          d.pending_frees.end());
  d.pending_frees.clear();
  // One batched free-space update covers the whole batch.
  ctx_.journal.log({{free_bitmap_block_, 1}});
}

Status EmbeddedDirLayout::unlink(InodeNo dir, std::string_view name) {
  DirState* d = dir_state(dir);
  if (!d) return Errc::kNotDirectory;
  auto slot = d->index.find(name);
  if (!slot) return Errc::kNotFound;
  const u32 s = static_cast<u32>(*slot);
  const Slot entry = *d->slots[s];

  if (entry.type == FileType::kDirectory) {
    DirState* child = dir_state(entry.ino);
    if (child && child->live_entries > 0) return Errc::kNotEmpty;
    if (child) {
      release_content(*child, 0);
      (void)dir_table_.unregister(child->id);
      dirs_.erase(child->id.v);
    }
    parent_of_.erase(correlation_.current(entry.ino).v);
  } else {
    Inode& node = inodes_.at(correlation_.current(entry.ino).v);
    d->extent_units -= std::min<u64>(d->extent_units,
                                     node.last_synced_extents);
    --d->file_count;
    // Mapping blocks return to the directory's reusable pool implicitly:
    // they were content blocks; lazy-free reclaims slots, blocks stay in
    // the reservation.
  }
  ++stats_.unlinks;

  const DiskBlock blk = d->content[d->slot_group_block[
      s / Format::kEmbeddedSlotsPerBlock]];
  ctx_.cache.read(blk, 1);
  // Single-block transaction: clearing the embedded slot IS the dirent
  // removal, the inode drop and (deferred) the space free — no inode-bitmap
  // block, which is exactly the saving Fig. 8 attributes to deletion.
  ctx_.journal.log({{blk, 1}});

  inodes_.erase(correlation_.current(entry.ino).v);
  d->index.erase(name);
  d->slots[s].reset();
  --d->live_entries;
  d->pending_frees.push_back(s);
  if (d->pending_frees.size() >= cfg_.lazy_free_batch) lazy_free_flush(*d);
  return {};
}

void EmbeddedDirLayout::release_content(DirState& d, std::size_t keep) {
  // Free maximal contiguous runs.
  std::size_t i = keep;
  while (i < d.content.size()) {
    std::size_t j = i + 1;
    while (j < d.content.size() &&
           d.content[j].v == d.content[j - 1].v + 1)
      ++j;
    (void)ctx_.space.free_range({d.content[i], j - i});
    i = j;
  }
  d.content.resize(keep);
}

Result<InodeNo> EmbeddedDirLayout::rename(InodeNo src_dir,
                                          std::string_view src_name,
                                          InodeNo dst_dir,
                                          std::string_view dst_name) {
  DirState* src = dir_state(src_dir);
  DirState* dst = dir_state(dst_dir);
  if (!src || !dst) return Errc::kNotDirectory;
  auto src_slot = src->index.find(src_name);
  if (!src_slot) return Errc::kNotFound;
  if (dst->index.find(dst_name)) return Errc::kExists;

  // The destination slot's block comes first: when it cannot be had,
  // nothing changes.  (The source slot waits for lazy-free, so it is never
  // the one taken here.)
  const u32 s_new = next_slot(*dst);
  auto dst_blk = slot_block(*dst, s_new);
  if (!dst_blk) return dst_blk.error();
  take_slot(*dst, s_new);
  ++stats_.renames;

  const u32 s_old = static_cast<u32>(*src_slot);
  Slot moving = *src->slots[s_old];
  const InodeNo old_ino = correlation_.current(moving.ino);
  Inode node = std::move(inodes_.at(old_ino.v));
  inodes_.erase(old_ino.v);

  src->index.erase(src_name);
  src->slots[s_old].reset();
  --src->live_entries;
  src->pending_frees.push_back(s_old);
  if (moving.type == FileType::kFile) {
    src->extent_units -=
        std::min<u64>(src->extent_units, node.last_synced_extents);
    --src->file_count;
  }

  // "Because inode number encodes the inode's parent directory
  // identification, the inode number must be changed" — and the old↔new
  // correlation is kept for management routines (§IV-B).
  const InodeNo new_ino = EmbeddedInodeNo::make(dst->id, s_new);
  node.num = new_ino;
  node.inode_block = *dst_blk;
  if (moving.type == FileType::kFile) {
    dst->extent_units += node.last_synced_extents;
    ++dst->file_count;
  } else {
    // A moved directory keeps its DirId — the table is re-pointed at the
    // new composite number and the subtree is unaffected (children embed
    // the directory's id, not its inode number).
    (void)dir_table_.update(node.dir_id, new_ino);
    parent_of_.erase(old_ino.v);
    parent_of_[new_ino.v] = correlation_.current(dst_dir);
  }
  inodes_[new_ino.v] = std::move(node);
  correlation_.record(old_ino, new_ino);

  moving.ino = new_ino;
  dst->slots[s_new] = std::move(moving);
  dst->index.insert(dst_name, s_new);
  ++dst->live_entries;

  const DiskBlock src_blk = src->content[src->slot_group_block[
      s_old / Format::kEmbeddedSlotsPerBlock]];
  ctx_.cache.read(src_blk, 1);
  ctx_.cache.read(*dst_blk, 1);
  ctx_.journal.log({{src_blk, 1}, {*dst_blk, 1}});
  if (src->pending_frees.size() >= cfg_.lazy_free_batch)
    lazy_free_flush(*src);
  return new_ino;
}

Status EmbeddedDirLayout::sync_layout(InodeNo file, u64 extent_count) {
  Inode* node = find(file);
  if (!node) return Errc::kNotFound;
  ++stats_.layout_syncs;
  // Maintain the parent's fragmentation degree.
  DirState* d = nullptr;
  if (auto it = dirs_.find(EmbeddedInodeNo::dir_of(node->num).v);
      it != dirs_.end())
    d = &it->second;
  if (d) {
    d->extent_units -= std::min<u64>(d->extent_units, node->last_synced_extents);
    d->extent_units += extent_count;
  }
  node->last_synced_extents = extent_count;

  const u64 need = Inode::overflow_blocks_for(extent_count);
  std::vector<block::BlockRange> tx{{node->inode_block, 1}};
  while (node->mapping_blocks.size() < need && d) {
    auto idx = take_content_block(*d);
    if (!idx) return idx.error();
    node->mapping_blocks.push_back(d->content[*idx]);
    tx.push_back({d->content[*idx], 1});
  }
  ctx_.cache.read(node->inode_block, 1);
  ctx_.journal.log(tx);
  return {};
}

Status EmbeddedDirLayout::getlayout(InodeNo file) {
  Inode* node = find(file);
  if (!node) return Errc::kNotFound;
  ++stats_.getlayouts;
  // Inode and its stuffed/adjacent mapping in one contiguous touch — "all
  // disk accesses can be combined in the same disk request" (§IV-A).
  ctx_.cache.read(node->inode_block, 1);
  for (DiskBlock mb : node->mapping_blocks) ctx_.cache.read(mb, 1);
  return {};
}

Inode* EmbeddedDirLayout::find(InodeNo ino) {
  auto it = inodes_.find(correlation_.current(ino).v);
  return it == inodes_.end() ? nullptr : &it->second;
}

void EmbeddedDirLayout::scan_fragmentation(
    const std::function<void(u64)>& file_cb,
    const std::function<void(double, u64)>& dir_cb) const {
  for (const auto& [num, node] : inodes_) {
    if (!node.is_dir()) file_cb(node.last_synced_extents);
  }
  // Degree comes straight from the per-directory accumulators the layout
  // already maintains for eager preallocation (§IV-A).
  for (const auto& [id, d] : dirs_) {
    const double degree = d.file_count == 0
                              ? 0.0
                              : static_cast<double>(d.extent_units) /
                                    static_cast<double>(d.file_count);
    dir_cb(degree, d.file_count);
  }
}

double EmbeddedDirLayout::fragmentation_degree(InodeNo dir) const {
  const DirState* d = dir_state(dir);
  if (!d || d->file_count == 0) return 0.0;
  return static_cast<double>(d->extent_units) /
         static_cast<double>(d->file_count);
}

u64 EmbeddedDirLayout::pending_lazy_frees(InodeNo dir) const {
  const DirState* d = dir_state(dir);
  return d ? d->pending_frees.size() : 0;
}

u64 EmbeddedDirLayout::content_blocks(InodeNo dir) const {
  const DirState* d = dir_state(dir);
  return d ? d->content.size() : 0;
}

NamespaceVerifyReport EmbeddedDirLayout::verify() const {
  NamespaceVerifyReport report;
  report.inodes = inodes_.size();
  report.directories = dirs_.size();

  // Content blocks (including mapping overflow blocks) owned exactly once.
  std::vector<u64> blocks;
  for (const auto& [id, d] : dirs_) {
    for (DiskBlock b : d.content) blocks.push_back(b.v);
  }
  report.metadata_blocks = blocks.size();
  std::sort(blocks.begin(), blocks.end());
  report.blocks_unique =
      std::adjacent_find(blocks.begin(), blocks.end()) == blocks.end();

  // Slot ↔ inode ↔ directory-table consistency.
  for (const auto& [id, d] : dirs_) {
    u64 named = 0;
    for (u32 s = 0; s < d.slots.size(); ++s) {
      const auto& entry = d.slots[s];
      if (!entry) continue;
      ++named;
      if (d.index.find(d.index.name_at(s)) != s)
        report.links_consistent = false;
      auto node = inodes_.find(entry->ino.v);
      if (node == inodes_.end()) {
        report.links_consistent = false;
        continue;
      }
      // A file's composite number must encode this directory.
      if (node->second.type == FileType::kFile &&
          EmbeddedInodeNo::dir_of(entry->ino).v != id) {
        report.links_consistent = false;
      }
      // A child directory must be registered and resolvable.
      if (node->second.type == FileType::kDirectory) {
        auto via_table = dir_table_.directory_inode(node->second.dir_id);
        if (!via_table || via_table->v != entry->ino.v) {
          report.links_consistent = false;
        }
      }
    }
    if (named != d.live_entries || named != d.index.size())
      report.links_consistent = false;
    // The directory's own inode is live and carries this id.
    auto owner = dir_table_.directory_inode(d.id);
    auto node = owner ? inodes_.find(owner->v) : inodes_.end();
    if (node == inodes_.end() || node->second.dir_id.v != id)
      report.links_consistent = false;
  }
  // Every inode but the root is named by the slot its composite number
  // encodes.
  for (const auto& [num, node] : inodes_) {
    if (num == root_.v) continue;
    auto dir = dirs_.find(EmbeddedInodeNo::dir_of(node.num).v);
    const u32 s = EmbeddedInodeNo::offset_of(node.num);
    if (node.num.v != num || dir == dirs_.end() ||
        s >= dir->second.slots.size() || !dir->second.slots[s] ||
        dir->second.slots[s]->ino.v != num) {
      report.links_consistent = false;
    }
  }
  return report;
}

Result<std::vector<InodeNo>> EmbeddedDirLayout::resolve_by_number(
    InodeNo ino) {
  std::unordered_map<u64, InodeNo> parents;
  for (const auto& [child, parent] : parent_of_) parents.emplace(child, parent);
  auto chain = dir_table_.resolve_chain(correlation_.current(ino), parents);
  if (!chain) return chain;
  // Charge the directory-table block reads the walk performs (§IV-B "this
  // process may require extra disk IO").
  for (const InodeNo& dir_ino : *chain) {
    Inode* node = find(dir_ino);
    if (node) ctx_.cache.read(dir_table_block(node->dir_id), 1);
  }
  return chain;
}

}  // namespace mif::mfs
