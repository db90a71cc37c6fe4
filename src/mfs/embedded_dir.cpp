#include "mfs/embedded_dir.hpp"

#include <algorithm>
#include <cassert>

namespace mif::mfs {

EmbeddedDirLayout::EmbeddedDirLayout(MdsContext ctx, EmbeddedLayoutConfig cfg)
    : DirLayout(ctx), cfg_(cfg) {
  auto bitmap = ctx_.space.allocate_exact(DiskBlock{0}, 1);
  auto table = ctx_.space.allocate_exact(DiskBlock{1}, kDirTableBlocks);
  assert(bitmap && table);
  free_bitmap_block_ = bitmap->start;
  table_base_ = table->start;
}

DiskBlock EmbeddedDirLayout::dir_table_block(DirId id) const {
  // 256 table entries per block; clamp into the reserved region.
  return DiskBlock{table_base_.v +
                   std::min<u64>(id.v / 256, kDirTableBlocks - 1)};
}

Inode* EmbeddedDirLayout::record(InodeNo cur, DirState** holder) {
  if (holder) *holder = nullptr;
  const DirId dir = EmbeddedInodeNo::dir_of(cur);
  // DirId 0 is no directory's id: the only number under it is the root's.
  if (dir.v == 0) return cur == root_ ? &root_inode_ : nullptr;
  auto it = dirs_.find(dir.v);
  if (it == dirs_.end()) return nullptr;
  DirState& d = it->second;
  const u32 slot = EmbeddedInodeNo::offset_of(cur);
  if (slot >= d.next_slot) return nullptr;
  Inode& node = d.inode(slot);
  if (!node.num.valid()) return nullptr;
  if (holder) *holder = &d;
  return &node;
}

const Inode* EmbeddedDirLayout::record(InodeNo cur) const {
  return const_cast<EmbeddedDirLayout*>(this)->record(cur);
}

Inode* EmbeddedDirLayout::locate(InodeNo ino, DirState** holder) {
  // A live inode answers for its own number, even one a reclaimed slot got
  // back after a rename left it stale; only a number no live inode holds is
  // followed through the rename correlation (§IV-B).
  if (Inode* node = record(ino, holder)) return node;
  const InodeNo cur = correlation_.current(ino);
  return cur == ino ? nullptr : record(cur, holder);
}

EmbeddedDirLayout::DirState* EmbeddedDirLayout::dir_state(InodeNo dir) {
  const Inode* node = find(dir);
  if (!node || !node->is_dir()) return nullptr;
  auto it = dirs_.find(node->dir_id.v);
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
      kInitialDirBlocks, d.content.size() * (kGrowthFactor - 1));
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
  while (d.groups.size() <= slot / kSlotsPerGroup) {
    auto idx = take_content_block(d);
    if (!idx) return idx.error();
    d.groups.push_back(std::make_unique<SlotGroup>());
    d.groups.back()->block = *idx;
  }
  return d.block_of(slot);
}

u32 EmbeddedDirLayout::next_slot(const DirState& d) {
  return d.reusable_slots.empty() ? static_cast<u32>(d.next_slot)
                                  : d.reusable_slots.back();
}

void EmbeddedDirLayout::take_slot(DirState& d, u32 slot) {
  if (slot == d.next_slot) {
    ++d.next_slot;
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

  root_inode_ = Inode{};
  root_inode_.num = ino;
  root_inode_.type = FileType::kDirectory;
  root_inode_.dir_id = id;

  DirState d;
  d.id = id;
  auto run = ctx_.space.allocate_best(DiskBlock{table_base_.v +
                                                kDirTableBlocks},
                                      1, kInitialDirBlocks);
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
  const std::size_t groups_before = d->groups.size();
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
        d->content.empty() ? DiskBlock{table_base_.v + kDirTableBlocks}
                           : DiskBlock{d->content.back().v + 1},
        1, kInitialDirBlocks);
    if (!run) {
      // Give back what slot_block took for the slot's group.
      d->groups.resize(groups_before);
      d->used_blocks = used_before;
      release_content(*d, content_before);
      return Errc::kNoSpace;
    }
    const DirId id = dir_table_.register_directory(ino);
    node.dir_id = id;
    DirState child;
    child.id = id;
    for (u64 i = 0; i < run->length; ++i)
      child.content.push_back(DiskBlock{run->start.v + i});
    dirs_.emplace(id.v, std::move(child));
    tx.push_back({dir_table_block(id), 1});
  } else {
    ++d->file_count;
    // Eager mapping-block preallocation when the directory is already badly
    // fragmented (§IV-A "an extra block is thus preallocated on creating").
    if (d->file_count > 1 &&
        static_cast<double>(d->extent_units) /
                static_cast<double>(d->file_count) >
            kFragDegreeThreshold) {
      if (auto idx = take_content_block(*d)) {
        node.mapping_blocks.push_back(d->content[*idx]);
        tx.push_back({d->content[*idx], 1});
      }
    }
  }

  take_slot(*d, slot);
  d->inode(slot) = std::move(node);
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
  ctx_.cache.read(d->block_of(*slot), 1);
  return d->inode(*slot).num;
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
  sim::Readahead ra;
  for (u64 idx = 0; idx < d->used_blocks; ++idx) {
    const u64 fetch = ra.advise(idx, 1);
    for (u64 f = 0; f < fetch && idx + f < d->used_blocks; ++f)
      ctx_.cache.read(d->content[idx + f], 1);
  }

  std::vector<DirEntry> out;
  out.reserve(d->live_entries);
  for (u32 s = 0; s < d->next_slot; ++s) {
    const Inode& node = d->inode(s);
    if (!node.num.valid()) continue;
    out.push_back(
        DirEntry{std::string(d->index.name_at(s)), node.num, node.type});
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
  Inode& node = d->inode(s);

  if (node.is_dir()) {
    auto child = dirs_.find(node.dir_id.v);
    if (child != dirs_.end()) {
      if (child->second.live_entries > 0) return Errc::kNotEmpty;
      release_content(child->second, 0);
      (void)dir_table_.unregister(child->second.id);
      dirs_.erase(child);
    }
  } else {
    d->extent_units -= std::min<u64>(d->extent_units,
                                     node.last_synced_extents);
    --d->file_count;
    // Mapping blocks return to the directory's reusable pool implicitly:
    // they were content blocks; lazy-free reclaims slots, blocks stay in
    // the reservation.
  }
  ++stats_.unlinks;

  const DiskBlock blk = d->block_of(s);
  ctx_.cache.read(blk, 1);
  // Single-block transaction: clearing the embedded slot IS the dirent
  // removal, the inode drop and (deferred) the space free — no inode-bitmap
  // block, which is exactly the saving Fig. 8 attributes to deletion.
  ctx_.journal.log({{blk, 1}});

  node = Inode{};
  d->index.erase(name);
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
  Inode node = std::move(src->inode(s_old));
  src->inode(s_old) = Inode{};
  const InodeNo old_ino = node.num;

  src->index.erase(src_name);
  --src->live_entries;
  src->pending_frees.push_back(s_old);
  if (!node.is_dir()) {
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
  if (!node.is_dir()) {
    dst->extent_units += node.last_synced_extents;
    ++dst->file_count;
  } else {
    // A moved directory keeps its DirId — the table is re-pointed at the
    // new composite number and the subtree is unaffected (children embed
    // the directory's id, not its inode number).
    (void)dir_table_.update(node.dir_id, new_ino);
  }
  dst->inode(s_new) = std::move(node);
  correlation_.record(old_ino, new_ino);
  dst->index.insert(dst_name, s_new);
  ++dst->live_entries;

  const DiskBlock src_blk = src->block_of(s_old);
  ctx_.cache.read(src_blk, 1);
  ctx_.cache.read(*dst_blk, 1);
  ctx_.journal.log({{src_blk, 1}, {*dst_blk, 1}});
  if (src->pending_frees.size() >= cfg_.lazy_free_batch)
    lazy_free_flush(*src);
  return new_ino;
}

Status EmbeddedDirLayout::sync_layout(InodeNo file, u64 extent_count) {
  DirState* d = nullptr;
  Inode* node = locate(file, &d);
  if (!node) return Errc::kNotFound;
  ++stats_.layout_syncs;
  // Maintain the parent's fragmentation degree.
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

Inode* EmbeddedDirLayout::find(InodeNo ino) { return locate(ino, nullptr); }

void EmbeddedDirLayout::scan_fragmentation(
    const std::function<void(u64)>& file_cb,
    const std::function<void(double, u64)>& dir_cb) const {
  for (const auto& [id, d] : dirs_) {
    for (u32 s = 0; s < d.next_slot; ++s) {
      const Inode& node = d.inode(s);
      if (node.num.valid() && !node.is_dir())
        file_cb(node.last_synced_extents);
    }
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
  report.inodes = root_.valid() ? 1 : 0;
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
    for (u32 s = 0; s < d.next_slot; ++s) {
      const Inode& node = d.inode(s);
      if (!node.num.valid()) continue;
      ++named;
      if (d.index.find(d.index.name_at(s)) != s)
        report.links_consistent = false;
      // Every inode is named by the slot its composite number encodes.
      if (node.num.v != EmbeddedInodeNo::make(DirId{id}, s).v)
        report.links_consistent = false;
      // A child directory must be registered and resolvable.
      if (node.is_dir()) {
        auto via_table = dir_table_.directory_inode(node.dir_id);
        if (!via_table || via_table->v != node.num.v) {
          report.links_consistent = false;
        }
      }
    }
    report.inodes += named;
    if (named != d.live_entries || named != d.index.size())
      report.links_consistent = false;
    // The directory's own inode is live and carries this id.
    auto owner = dir_table_.directory_inode(d.id);
    const Inode* node = owner ? record(*owner) : nullptr;
    if (!node || node->dir_id.v != id) report.links_consistent = false;
  }

  // Every directory is reachable from the root: a directory moved into its
  // own subtree forms a cycle that no walk from the root enters.  The walk
  // stops once it has visited more directories than exist (an entry naming
  // an ancestor would otherwise loop).
  std::vector<const DirState*> todo;
  if (const DirState* root = dir_state(root_)) todo.push_back(root);
  u64 reached = 0;
  while (!todo.empty() && reached <= dirs_.size()) {
    const DirState* d = todo.back();
    todo.pop_back();
    ++reached;
    for (u32 s = 0; s < d->next_slot; ++s) {
      const Inode& node = d->inode(s);
      if (!node.num.valid() || !node.is_dir()) continue;
      if (auto it = dirs_.find(node.dir_id.v); it != dirs_.end())
        todo.push_back(&it->second);
    }
  }
  if (reached != dirs_.size()) report.dirs_reachable = false;
  return report;
}

Result<std::vector<InodeNo>> EmbeddedDirLayout::resolve_by_number(
    InodeNo ino) {
  auto chain = dir_table_.resolve_chain(record(ino) ? ino
                                                    : correlation_.current(ino));
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
