#include "block/journal.hpp"

#include <algorithm>

#include "obs/span.hpp"

namespace mif::block {

Journal::Journal(sim::IoScheduler& io, DiskBlock area_start, u64 area_blocks,
                 u64 checkpoint_interval, u64 commit_batch)
    : io_(io),
      area_start_(area_start),
      area_blocks_(area_blocks),
      checkpoint_interval_(std::max<u64>(1, checkpoint_interval)),
      commit_batch_(std::max<u64>(1, commit_batch)) {}

void Journal::log(std::span<const BlockRange> home_blocks) {
  u64 record_blocks = 0;
  for (const BlockRange& r : home_blocks) record_blocks += r.length;
  uncommitted_blocks_ += record_blocks;
  stats_.journal_blocks += record_blocks;
  ++stats_.transactions;
  pending_.insert(pending_.end(), home_blocks.begin(), home_blocks.end());

  if (++since_commit_ >= commit_batch_) commit();
  if (++since_checkpoint_ >= checkpoint_interval_) checkpoint();
}

void Journal::commit() {
  since_commit_ = 0;
  const u64 blocks = uncommitted_blocks_ + 1;  // + commit block
  obs::ScopedSpan span(spans_, "journal.commit", blocks);
  uncommitted_blocks_ = 0;
  stats_.journal_blocks += 1;

  // Sequential append into the journal area, wrapping when full.  A wrap
  // forces a checkpoint first (the tail cannot be overwritten while its
  // home blocks are unwritten).
  if (cursor_ + blocks > area_blocks_) {
    checkpoint();
    cursor_ = 0;
  }
  io_.submit({sim::IoKind::kWrite, DiskBlock{area_start_.v + cursor_},
              std::min(blocks, area_blocks_)});
  cursor_ = std::min(cursor_ + blocks, area_blocks_);
}

void Journal::checkpoint() {
  since_checkpoint_ = 0;
  if (uncommitted_blocks_ > 0) commit();
  if (pending_.empty()) return;
  obs::ScopedSpan span(spans_, "journal.checkpoint", pending_.size());
  // Sort by home address and merge duplicates/adjacent runs so the write-back
  // pass is a single elevator sweep — mirroring jbd2 checkpoint behaviour.
  std::sort(pending_.begin(), pending_.end(),
            [](const BlockRange& a, const BlockRange& b) {
              return a.start.v < b.start.v;
            });
  std::size_t i = 0;
  while (i < pending_.size()) {
    BlockRange run = pending_[i];
    std::size_t j = i + 1;
    while (j < pending_.size() && pending_[j].start.v <= run.end()) {
      run.length = std::max(run.end(), pending_[j].end()) - run.start.v;
      ++j;
    }
    io_.submit({sim::IoKind::kWrite, run.start, run.length});
    stats_.checkpoint_blocks += run.length;
    i = j;
  }
  pending_.clear();
  ++stats_.checkpoints;
}

}  // namespace mif::block
