#include "osd/storage_target.hpp"

#include <algorithm>

#include "obs/export.hpp"
#include "obs/span.hpp"

namespace mif::osd {

StorageTarget::StorageTarget(TargetConfig cfg, const obs::Sinks& sinks,
                             std::string_view name)
    : cfg_(cfg),
      sinks_(sinks),
      disk_(cfg.geometry, sinks, std::string(name) + " disk"),
      io_(disk_, cfg.scheduler_queue, kWritebackQueue,
          std::string(name) + " queue") {
  space_ = std::make_unique<block::FreeSpace>(
      DiskBlock{0}, cfg_.geometry.capacity_blocks, kAllocGroups);
  alloc_ = alloc::make_allocator(cfg_.allocator, *space_, cfg_.tuning);
}

StorageTarget::FileState& StorageTarget::file(InodeNo inode) {
  std::lock_guard lock(files_mu_);
  std::unique_ptr<FileState>& slot = files_[inode.v];
  if (!slot) slot = std::make_unique<FileState>();
  return *slot;
}

StorageTarget::FileState* StorageTarget::find_file(InodeNo inode) const {
  std::lock_guard lock(files_mu_);
  const std::unique_ptr<FileState>* slot = files_.find(inode.v);
  return slot ? slot->get() : nullptr;
}

StorageTarget::VerifyReport StorageTarget::verify() const {
  VerifyReport report;
  std::vector<std::pair<u64, u64>> phys;
  {
    std::lock_guard lock(files_mu_);
    report.files = files_.size();
    files_.for_each([&](u64, const std::unique_ptr<FileState>& state) {
      std::lock_guard flock(state->mu);
      for (const block::Extent& e : state->map) {
        phys.emplace_back(e.disk_off.v, e.length);
        ++report.extents;
        report.mapped_blocks += e.length;
      }
    });
  }
  std::sort(phys.begin(), phys.end());
  for (std::size_t i = 1; i < phys.size(); ++i) {
    if (phys[i].first < phys[i - 1].first + phys[i - 1].second) {
      report.overlap_free = false;
      break;
    }
  }
  report.reserved_blocks = alloc_->stats().reserved_blocks;
  report.used_blocks =
      cfg_.geometry.capacity_blocks - space_->free_blocks();
  report.space_accounted =
      report.used_blocks == report.mapped_blocks + report.reserved_blocks;
  return report;
}

void StorageTarget::export_metrics(obs::MetricsRegistry& reg,
                                   std::string_view prefix) const {
  obs::publish(reg, obs::join_key(prefix, "disk"), disk_.stats());
  reg.stat(obs::join_key(prefix, "disk.position_ms"))
      .merge_from(disk_.position_times_ms());
  obs::publish(reg, obs::join_key(prefix, "io"), io_.stats());
  obs::publish(reg, obs::join_key(prefix, "alloc"), alloc_->stats());
  reg.gauge(obs::join_key(prefix, "space.free_blocks"))
      .set(static_cast<double>(space_->free_blocks()));
  reg.gauge(obs::join_key(prefix, "space.total_blocks"))
      .set(static_cast<double>(space_->total_blocks()));
  reg.gauge(obs::join_key(prefix, "space.utilisation"))
      .set(space_->utilisation());
  add_extent_counts(reg.histogram(obs::join_key(prefix, "extents_per_file")));
}

void StorageTarget::add_extent_counts(obs::Histo& h) const {
  std::lock_guard lock(files_mu_);
  files_.for_each([&h](u64, const std::unique_ptr<FileState>& state) {
    std::lock_guard flock(state->mu);
    h.add(state->map.extent_count());
  });
}

std::size_t StorageTarget::queue_depth() const {
  std::lock_guard lock(io_mu_);
  return io_.queue_depth();
}

double StorageTarget::sim_now_ms() const {
  std::lock_guard lock(io_mu_);
  return disk_.now_ms();
}

double StorageTarget::busy_fraction() const {
  std::lock_guard lock(io_mu_);
  const double now = disk_.now_ms();
  return now > 0.0 ? disk_.stats().busy_ms() / now : 0.0;
}

u64 StorageTarget::head_block() const {
  std::lock_guard lock(io_mu_);
  return disk_.head().v;
}

void StorageTarget::for_each_extent_count(
    const std::function<void(u64)>& fn) const {
  std::lock_guard lock(files_mu_);
  files_.for_each([&fn](u64, const std::unique_ptr<FileState>& state) {
    std::lock_guard flock(state->mu);
    fn(state->map.extent_count());
  });
}

Status StorageTarget::write(InodeNo inode, StreamId stream, FileBlock logical,
                            u64 count) {
  const BlockRun run{logical, count};
  return write_runs(inode, stream, std::span<const BlockRun>(&run, 1));
}

Status StorageTarget::write_runs(InodeNo inode, StreamId stream,
                                 std::span<const BlockRun> runs) {
  FileState& f = file(inode);
  std::lock_guard lock(f.mu);
  for (const BlockRun& run : runs) {
    alloc::AllocContext ctx{inode, stream, run.start, run.count};
    {
      obs::ScopedSpan span(sinks_.spans, "alloc.decide", inode.v, run.count);
      if (Status s = alloc_->extend(ctx, f.map); !s) return s;
    }
    // Submit the data writes along the physical runs the placement produced
    // — this is where fragmentation turns into positioning time.
    std::lock_guard io_lock(io_mu_);
    f.map.map_range(run.start, run.count, [this](const block::BlockRange& r) {
      io_.submit({sim::IoKind::kWrite, r.start, r.length});
    });
  }
  return {};
}

Status StorageTarget::read(InodeNo inode, FileBlock logical, u64 count) {
  const BlockRun run{logical, count};
  return read_runs(inode, std::span<const BlockRun>(&run, 1));
}

Status StorageTarget::read_runs(InodeNo inode,
                                std::span<const BlockRun> runs) {
  FileState* f = find_file(inode);
  if (!f) return {};  // nothing mapped: the whole read is a hole
  std::lock_guard lock(f->mu);
  std::lock_guard io_lock(io_mu_);
  for (const BlockRun& run : runs) {
    f->map.map_range(run.start, run.count, [this](const block::BlockRange& r) {
      io_.submit({sim::IoKind::kRead, r.start, r.length});
    });
  }
  return {};
}

Status StorageTarget::preallocate(InodeNo inode, u64 total_blocks) {
  FileState& f = file(inode);
  std::lock_guard lock(f.mu);
  return alloc_->preallocate(inode, f.map, total_blocks);
}

void StorageTarget::close_file(InodeNo inode) {
  // The allocator only holds state for inodes a write or preallocate placed.
  FileState* f = find_file(inode);
  if (!f) return;
  std::lock_guard lock(f->mu);
  alloc_->close_file(inode, f->map);
}

void StorageTarget::delete_file(InodeNo inode) {
  std::unique_ptr<FileState> victim;
  {
    std::lock_guard lock(files_mu_);
    if (auto taken = files_.take(inode.v)) victim = std::move(*taken);
  }
  if (!victim) return;
  std::lock_guard lock(victim->mu);
  alloc_->delete_file(inode, victim->map);
}

u64 StorageTarget::extent_count(InodeNo inode) const {
  std::lock_guard lock(files_mu_);
  const std::unique_ptr<FileState>* state = files_.find(inode.v);
  if (!state) return 0;
  std::lock_guard flock((*state)->mu);
  return (*state)->map.extent_count();
}

std::vector<block::Extent> StorageTarget::extents(InodeNo inode) const {
  std::lock_guard lock(files_mu_);
  const std::unique_ptr<FileState>* state = files_.find(inode.v);
  if (!state) return {};
  std::lock_guard flock((*state)->mu);
  const block::ExtentMap& map = (*state)->map;
  return {map.begin(), map.end()};
}

void StorageTarget::for_each_file(
    const std::function<void(InodeNo)>& fn) const {
  std::vector<u64> inos;
  {
    std::lock_guard lock(files_mu_);
    inos.reserve(files_.size());
    files_.for_each(
        [&inos](u64 ino, const std::unique_ptr<FileState>&) {
          inos.push_back(ino);
        });
  }
  std::sort(inos.begin(), inos.end());
  for (u64 ino : inos) fn(InodeNo{ino});
}

void StorageTarget::reset_contents() {
  {
    std::lock_guard lock(io_mu_);
    io_.drain();
  }
  std::lock_guard lock(files_mu_);
  files_.for_each([](u64, std::unique_ptr<FileState>& state) {
    std::lock_guard flock(state->mu);
    state->map = block::ExtentMap{};
  });
  // The allocator must die before the free space it references: its
  // destructor releases outstanding reservations back into that space.
  alloc_.reset();
  space_ = std::make_unique<block::FreeSpace>(
      DiskBlock{0}, cfg_.geometry.capacity_blocks, kAllocGroups);
  alloc_ = alloc::make_allocator(cfg_.allocator, *space_, cfg_.tuning);
}

}  // namespace mif::osd
