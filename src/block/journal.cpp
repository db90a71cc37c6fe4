#include "block/journal.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/span.hpp"

namespace mif::block {

Journal::Journal(sim::IoScheduler& io, DiskBlock area_start, u64 area_blocks,
                 u64 checkpoint_interval, u64 commit_batch)
    : io_(io),
      sinks_(io.disk().sinks()),
      area_start_(area_start),
      area_blocks_(area_blocks),
      checkpoint_interval_(std::max<u64>(1, checkpoint_interval)),
      commit_batch_(std::max<u64>(1, commit_batch)) {}

void Journal::log(std::span<const BlockRange> home_blocks) {
  u64 record_blocks = 0;
  for (const BlockRange& r : home_blocks) {
    record_blocks += r.length;
    mark_pending(r);
  }
  uncommitted_blocks_ += record_blocks;
  stats_.journal_blocks += record_blocks;
  ++stats_.transactions;
  pending_ranges_ += home_blocks.size();
  pending_blocks_ += record_blocks;

  if (++since_commit_ >= commit_batch_) commit();
  if (++since_checkpoint_ >= checkpoint_interval_) checkpoint();
}

void Journal::mark_pending(const BlockRange& r) {
  assert(r.length > 0 && "journal home ranges are non-empty");
  const u64 last_word = (r.end() - 1) / 64;
  if (last_word >= pending_words_.size()) {
    pending_words_.resize(last_word + 1);
    pending_summary_.resize((pending_words_.size() + 63) / 64);
  }
  for (u64 b = r.start.v; b < r.end();) {
    const u64 w = b / 64;
    const u64 n = std::min<u64>(64 - b % 64, r.end() - b);
    pending_words_[w] |= (n == 64 ? ~u64{0} : (u64{1} << n) - 1) << (b % 64);
    pending_summary_[w / 64] |= u64{1} << (w % 64);
    b += n;
  }
}

void Journal::commit() {
  since_commit_ = 0;
  const u64 blocks = uncommitted_blocks_ + 1;  // + commit block
  obs::ScopedSpan span(sinks_.spans, "journal.commit", blocks);
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
  if (pending_ranges_ == 0) return;
  obs::ScopedSpan span(sinks_.spans, "journal.checkpoint", pending_ranges_);
  // Write back each maximal run of marked blocks, lowest first: duplicate
  // and adjacent logged ranges merge, and the pass is one elevator sweep.
  BlockRange run{DiskBlock{0}, 0};
  auto flush = [&] {
    if (run.length == 0) return;
    io_.submit({sim::IoKind::kWrite, run.start, run.length});
    stats_.checkpoint_blocks += run.length;
  };
  for (u64 sw = 0; sw < pending_summary_.size(); ++sw) {
    for (u64 summary = pending_summary_[sw]; summary != 0;
         summary &= summary - 1) {
      const u64 w = sw * 64 + std::countr_zero(summary);
      u64 bits = pending_words_[w];
      pending_words_[w] = 0;
      // Peel the word's runs of set bits off from the low end.
      while (bits != 0) {
        const unsigned lo = std::countr_zero(bits);
        const unsigned len = std::countr_one(bits >> lo);
        const u64 start = w * 64 + lo;
        if (run.length > 0 && run.end() == start) {
          run.length += len;
        } else {
          flush();
          run = BlockRange{DiskBlock{start}, len};
        }
        bits = len + lo == 64 ? 0 : bits & ~((u64{1} << (lo + len)) - 1);
      }
    }
    pending_summary_[sw] = 0;
  }
  flush();
  pending_ranges_ = 0;
  pending_blocks_ = 0;
  ++stats_.checkpoints;
}

}  // namespace mif::block
