// Write-ahead metadata journal.
//
// Fig. 8's setup: "to maintain the metadata integrity, journal was first
// sequentially done on the disk; the reduction of disk access counts mainly
// comes from the checkpoint operations."  So the journal itself writes
// sequentially into a reserved area (cheap for every mode), while
// checkpointing writes each logged block back to its home location — that
// is where embedded directories win, because their home locations are
// contiguous.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "block/block_types.hpp"
#include "sim/io_scheduler.hpp"
#include "util/types.hpp"

namespace mif::block {

struct JournalStats {
  u64 transactions{0};
  u64 journal_blocks{0};     // sequential writes into the journal area
  u64 checkpoint_blocks{0};  // home-location writes at checkpoint
  u64 checkpoints{0};
};

class Journal {
 public:
  /// Journal area occupies [area_start, area_start + area_blocks) on the
  /// disk behind `io`.  `checkpoint_interval` = transactions between
  /// checkpoints.  `commit_batch` = transactions folded into one compound
  /// commit before the journal write is issued (jbd-style batching — even a
  /// "synchronous" ext3 merges concurrent handles into one running
  /// transaction); 1 ⇒ a journal write per operation.  Commits and
  /// checkpoints record `journal.commit` / `journal.checkpoint` phases into
  /// the attachment of the disk behind `io`.
  Journal(sim::IoScheduler& io, DiskBlock area_start, u64 area_blocks,
          u64 checkpoint_interval = 64, u64 commit_batch = 1);

  /// Log a transaction touching the given (non-empty) home-location ranges.
  /// Records accumulate in the running compound transaction; every
  /// `commit_batch` transactions the records + a commit block are written
  /// sequentially into the journal area.  Home blocks are remembered for
  /// the next checkpoint, which runs every `checkpoint_interval`
  /// transactions.
  void log(std::span<const BlockRange> home_blocks);
  /// A braced transaction (`log({{a, 1}, {b, 1}})`), logged in place.
  void log(std::initializer_list<BlockRange> home_blocks) {
    log(std::span(home_blocks.begin(), home_blocks.size()));
  }

  /// Force the running compound transaction out to the journal area.
  void commit();

  /// Force outstanding home-location writes to disk: one write per maximal
  /// run of the logged home blocks, in ascending block order — a single
  /// elevator sweep, as jbd2 checkpoints.
  void checkpoint();

  const JournalStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Blocks the journal still owes the disk: the running compound
  /// transaction plus every logged-but-not-yet-checkpointed home block.
  /// Timeline gauge — shows commit/checkpoint sawtooth over sim time.
  u64 backlog_blocks() const { return uncommitted_blocks_ + pending_blocks_; }

 private:
  /// Add `r`'s blocks to the set the next checkpoint writes back.
  void mark_pending(const BlockRange& r);

  sim::IoScheduler& io_;
  const obs::Sinks& sinks_;
  DiskBlock area_start_;
  u64 area_blocks_;
  u64 checkpoint_interval_;
  u64 commit_batch_;
  u64 cursor_{0};  // next free block inside the journal area (wraps)
  u64 since_checkpoint_{0};
  u64 since_commit_{0};
  u64 uncommitted_blocks_{0};  // record blocks of the running transaction
  /// Home blocks logged since the last checkpoint, as a bitmap by block
  /// number, with a summary bit per non-zero bitmap word: a checkpoint
  /// visits the marked words in ascending order and clears them, so it
  /// never sorts.  Both grow to the highest block logged.
  std::vector<u64> pending_words_;
  std::vector<u64> pending_summary_;
  u64 pending_ranges_{0};  // ranges logged since the last checkpoint
  u64 pending_blocks_{0};  // their lengths summed, repeats included
  JournalStats stats_;
};

}  // namespace mif::block
