// Unit, property and differential tests for the free-space bitmap.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>
#include <utility>
#include <vector>

#include "block/bitmap.hpp"
#include "util/rng.hpp"

namespace mif::block {
namespace {

TEST(Bitmap, StartsAllFree) {
  Bitmap b(1000);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(b.free_blocks(), 1000u);
  EXPECT_FALSE(b.is_set(0));
  EXPECT_FALSE(b.is_set(999));
}

TEST(Bitmap, SetAndClearRangeRoundTrip) {
  Bitmap b(256);
  b.set_range(10, 50);
  EXPECT_EQ(b.free_blocks(), 206u);
  EXPECT_TRUE(b.is_set(10));
  EXPECT_TRUE(b.is_set(59));
  EXPECT_FALSE(b.is_set(9));
  EXPECT_FALSE(b.is_set(60));
  b.clear_range(10, 50);
  EXPECT_EQ(b.free_blocks(), 256u);
}

TEST(Bitmap, RangeFreeDetectsCollisions) {
  Bitmap b(128);
  b.set_range(64, 1);
  EXPECT_TRUE(b.range_free(0, 64));
  EXPECT_FALSE(b.range_free(60, 8));
  EXPECT_TRUE(b.range_free(65, 63));
  EXPECT_FALSE(b.range_free(120, 100));  // beyond the end
}

TEST(Bitmap, FreeRunAtMeasuresRuns) {
  Bitmap b(128);
  b.set_range(10, 5);
  EXPECT_EQ(b.free_run_at(0, 128), 10u);
  EXPECT_EQ(b.free_run_at(15, 128), 113u);
  EXPECT_EQ(b.free_run_at(0, 4), 4u);  // capped
  EXPECT_EQ(b.free_run_at(10, 128), 0u);
}

TEST(Bitmap, FindRunHonoursGoal) {
  Bitmap b(1024);
  auto r = b.find_run(500, 10);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 500u);
}

TEST(Bitmap, FindRunWrapsAround) {
  Bitmap b(128);
  b.set_range(64, 64);  // only [0, 64) free
  auto r = b.find_run(100, 10);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 0u);
}

TEST(Bitmap, FindRunFailsWhenFragmented) {
  Bitmap b(100);
  // Free space in runs of at most 4: every 5th block used.
  for (u64 i = 4; i < 100; i += 5) b.set_range(i, 1);
  EXPECT_FALSE(b.find_run(0, 5).has_value());
  EXPECT_TRUE(b.find_run(0, 4).has_value());
}

TEST(Bitmap, FindRunBestPrefersFullWant) {
  Bitmap b(200);
  b.set_range(10, 1);  // short run [0,10), long run [11,200)
  auto r = b.find_run_best(0, 1, 50);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->start.v, 11u);
  EXPECT_EQ(r->length, 50u);
}

TEST(Bitmap, FindRunBestDegradesToLongestRun) {
  Bitmap b(100);
  for (u64 i = 8; i < 100; i += 9) b.set_range(i, 1);  // runs of 8
  auto r = b.find_run_best(0, 2, 64);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->length, 8u);
}

TEST(Bitmap, FindRunBestRespectsMin) {
  Bitmap b(16);
  for (u64 i = 1; i < 16; i += 2) b.set_range(i, 1);  // runs of 1
  EXPECT_FALSE(b.find_run_best(0, 2, 8).has_value());
}

// Property: a randomized allocate/free exercise never corrupts the free
// count and find_run never returns an occupied range.
TEST(BitmapProperty, RandomAllocFreeKeepsInvariants) {
  mif::Rng rng(11);
  Bitmap b(4096);
  std::vector<std::pair<u64, u64>> live;
  for (int iter = 0; iter < 2000; ++iter) {
    if (live.empty() || rng.chance(0.6)) {
      const u64 len = rng.uniform(1, 64);
      auto r = b.find_run(rng.uniform(0, 4095), len);
      if (!r) continue;
      ASSERT_TRUE(b.range_free(*r, len));
      b.set_range(*r, len);
      live.emplace_back(*r, len);
    } else {
      const std::size_t i = rng.uniform(0, live.size() - 1);
      b.clear_range(live[i].first, live[i].second);
      live[i] = live.back();
      live.pop_back();
    }
  }
  u64 used = 0;
  for (const auto& [start, len] : live) used += len;
  EXPECT_EQ(b.free_blocks(), 4096u - used);
}

// The linear search as it was before run measurement was bounded: every
// candidate run is measured to its end, and a failing search scans the whole
// bitmap.  Kept verbatim as the reference the bounded search must agree with.
class RefBitmap {
 public:
  explicit RefBitmap(u64 blocks)
      : words_((blocks + kWordBits - 1) / kWordBits, 0),
        size_(blocks),
        free_(blocks) {}

  u64 free_blocks() const { return free_; }

  bool is_set(u64 bit) const {
    assert(bit < size_);
    return (words_[bit / kWordBits] >> (bit % kWordBits)) & 1u;
  }

  void set_range(u64 start, u64 len) {
    assert(start + len <= size_);
    assert(range_free(start, len));
    for (u64 b = start; b < start + len; ++b)
      words_[b / kWordBits] |= u64{1} << (b % kWordBits);
    free_ -= len;
  }

  void clear_range(u64 start, u64 len) {
    assert(start + len <= size_);
    for (u64 b = start; b < start + len; ++b) {
      assert(is_set(b));
      words_[b / kWordBits] &= ~(u64{1} << (b % kWordBits));
    }
    free_ += len;
  }

  bool range_free(u64 start, u64 len) const {
    if (start + len > size_) return false;
    return free_run_at(start, len) >= len;
  }

  u64 free_run_at(u64 start, u64 max_len) const {
    u64 run = 0;
    u64 b = start;
    while (run < max_len && b < size_) {
      // Fast path: whole free word.
      if (b % kWordBits == 0 && max_len - run >= kWordBits &&
          b + kWordBits <= size_ && words_[b / kWordBits] == 0) {
        run += kWordBits;
        b += kWordBits;
        continue;
      }
      if (is_set(b)) break;
      ++run;
      ++b;
    }
    return run;
  }

  std::optional<u64> find_run(u64 goal, u64 len) const {
    if (len == 0 || len > size_) return std::nullopt;
    auto scan = [&](u64 from, u64 to) -> std::optional<u64> {
      u64 b = from;
      while (b < to) {
        b = next_free(b);
        if (b >= to) break;
        const u64 run_end = next_used(b);
        if (run_end - b >= len) return b;
        b = run_end;
      }
      return std::nullopt;
    };
    if (auto r = scan(goal, size_)) return r;
    if (goal > 0) return scan(0, goal);
    return std::nullopt;
  }

  u64 add_free_runs(Histogram& h) const {
    u64 runs = 0;
    u64 b = 0;
    while (b < size_) {
      b = next_free(b);
      if (b >= size_) break;
      const u64 run_end = next_used(b);
      h.add(run_end - b);
      ++runs;
      b = run_end;
    }
    return runs;
  }

  std::optional<BlockRange> find_run_best(u64 goal, u64 min_len,
                                          u64 want_len) const {
    if (min_len == 0) min_len = 1;
    std::optional<BlockRange> best;
    auto scan = [&](u64 from, u64 to) -> bool {
      u64 b = from;
      while (b < to) {
        b = next_free(b);
        if (b >= to) break;
        const u64 run_end = next_used(b);
        const u64 run = run_end - b;
        if (run >= want_len) {
          best = BlockRange{DiskBlock{b}, want_len};
          return true;  // first full-size run wins (locality to goal)
        }
        if (run >= min_len && (!best || run > best->length)) {
          best = BlockRange{DiskBlock{b}, run};
        }
        b = run_end;
      }
      return false;
    };
    if (!scan(goal, size_) && goal > 0) scan(0, goal);
    return best;
  }

 private:
  static constexpr u64 kWordBits = 64;

  u64 next_free(u64 from) const {
    u64 b = from;
    while (b < size_) {
      const u64 w = words_[b / kWordBits] >> (b % kWordBits);
      if (w == ~u64{0} >> (b % kWordBits) && (b % kWordBits) == 0) {
        b += kWordBits;  // fully used word
        continue;
      }
      if (!((w)&1u)) return b;
      // Skip the used run inside this word.
      const u64 trailing_used = static_cast<u64>(std::countr_one(w));
      b += trailing_used;
      if (trailing_used == 0) ++b;  // defensive; cannot happen
    }
    return size_;
  }

  u64 next_used(u64 from) const {
    u64 b = from;
    while (b < size_) {
      const u64 idx = b / kWordBits;
      const u64 w = words_[idx] >> (b % kWordBits);
      if (w == 0) {
        b = (idx + 1) * kWordBits;  // fully free from here in this word
        continue;
      }
      return b + static_cast<u64>(std::countr_zero(w));
    }
    return size_;
  }

  std::vector<u64> words_;
  u64 size_;
  u64 free_;
};

// A Bitmap and a RefBitmap given the same edits.  Every query goes to both
// and must get the same answer; the Bitmap's answer is returned.
class Twin {
 public:
  explicit Twin(u64 blocks) : bm_(blocks), ref_(blocks) {}

  u64 size() const { return bm_.size(); }
  u64 free_blocks() const { return bm_.free_blocks(); }
  bool is_set(u64 bit) const { return bm_.is_set(bit); }

  void set(u64 start, u64 len) {
    bm_.set_range(start, len);
    ref_.set_range(start, len);
    EXPECT_EQ(bm_.free_blocks(), ref_.free_blocks());
  }

  void clear(u64 start, u64 len) {
    bm_.clear_range(start, len);
    ref_.clear_range(start, len);
    EXPECT_EQ(bm_.free_blocks(), ref_.free_blocks());
  }

  bool range_free(u64 start, u64 len) const {
    const bool r = bm_.range_free(start, len);
    EXPECT_EQ(r, ref_.range_free(start, len))
        << "range_free(" << start << ", " << len << ")";
    return r;
  }

  u64 free_run_at(u64 start, u64 max_len) const {
    const u64 r = bm_.free_run_at(start, max_len);
    EXPECT_EQ(r, ref_.free_run_at(start, max_len))
        << "free_run_at(" << start << ", " << max_len << ")";
    return r;
  }

  std::optional<u64> find_run(u64 goal, u64 len) const {
    const auto r = bm_.find_run(goal, len);
    EXPECT_EQ(r, ref_.find_run(goal, len))
        << "find_run(" << goal << ", " << len << ") with "
        << bm_.free_blocks() << " free";
    return r;
  }

  std::optional<BlockRange> find_run_best(u64 goal, u64 min_len,
                                          u64 want_len) const {
    const auto r = bm_.find_run_best(goal, min_len, want_len);
    EXPECT_EQ(r, ref_.find_run_best(goal, min_len, want_len))
        << "find_run_best(" << goal << ", " << min_len << ", " << want_len
        << ") with " << bm_.free_blocks() << " free";
    return r;
  }

  void check_free_runs() const {
    Histogram got;
    Histogram want;
    EXPECT_EQ(bm_.add_free_runs(got), ref_.add_free_runs(want));
    ASSERT_EQ(got.buckets(), want.buckets());
    for (std::size_t i = 0; i < got.buckets(); ++i)
      EXPECT_EQ(got.bucket(i), want.bucket(i)) << "bucket " << i;
  }

 private:
  Bitmap bm_;
  RefBitmap ref_;
};

// Neither size is a multiple of 64, so the last word is partial.
constexpr u64 kSizes[] = {1000, 4096 + 37};

// Goals the searches treat specially: word edges, the last bit (a search
// from it wraps at once), and bit 0 (no wrap).
std::vector<u64> edge_goals(u64 size) {
  return {0,        1,         62,        63,       64,      65, 127, 128,
          size / 2, size - 65, size - 64, size - 2, size - 1};
}

// Every search over every goal, at lengths around the free count so both
// the O(1) early-outs and an exact fit of all free blocks are exercised.
void check_searches(const Twin& t) {
  const u64 f = t.free_blocks();
  std::vector<u64> lens = {1, 2, 4, 7, 8, 63, 64, 65, f + 1, t.size(),
                           t.size() + 1};
  if (f > 0) lens.push_back(f);
  if (f > 1) lens.push_back(f - 1);
  for (u64 goal : edge_goals(t.size())) {
    for (u64 len : lens) {
      t.find_run(goal, len);
      t.find_run_best(goal, 1, len);
      t.find_run_best(goal, std::min<u64>(len, 4), len);
      t.find_run_best(goal, len, len);
      t.find_run_best(goal, len, 2 * len);
    }
    for (u64 cap : {u64{0}, u64{1}, u64{5}, u64{64}, u64{200}, t.size()})
      t.free_run_at(goal, cap);
  }
  t.check_free_runs();
}

TEST(BitmapDifferential, FreshBitmapLongFreeTail) {
  for (u64 size : kSizes) {
    SCOPED_TRACE(size);
    Twin t(size);
    check_searches(t);
    // A used prefix in front of the free tail: searches from inside the
    // prefix land on the tail.
    t.set(0, 300);
    check_searches(t);
    for (u64 goal = 0; goal < 300; goal += 37) {
      EXPECT_EQ(t.find_run(goal, 4), std::optional<u64>{300});
      t.find_run_best(goal, 1, 4);
    }
  }
}

TEST(BitmapDifferential, SingleFreeRunExactFitAndEarlyOut) {
  for (u64 size : kSizes) {
    SCOPED_TRACE(size);
    Twin t(size);
    t.set(0, size);
    check_searches(t);  // nothing free
    // Only [130, 207) is free: free_blocks() == 77, not word aligned.
    t.clear(130, 77);
    ASSERT_EQ(t.free_blocks(), 77u);
    for (u64 goal : {u64{0}, u64{130}, u64{150}, u64{206}, u64{207},
                     size - 1}) {
      // len == free_blocks(): the one run is an exact fit.
      EXPECT_EQ(t.find_run(goal, 77), std::optional<u64>{130});
      // len > free_blocks(): no run can fit.
      EXPECT_FALSE(t.find_run(goal, 78).has_value());
      // min_len == free_blocks() still finds it; one more cannot.
      auto best = t.find_run_best(goal, 77, 100);
      ASSERT_TRUE(best.has_value());
      EXPECT_EQ(best->start.v, 130u);
      EXPECT_EQ(best->length, 77u);
      EXPECT_FALSE(t.find_run_best(goal, 78, 100).has_value());
    }
    check_searches(t);
  }
}

TEST(BitmapDifferential, WrapAndRunStraddlingTheGoal) {
  for (u64 size : kSizes) {
    SCOPED_TRACE(size);
    Twin t(size);
    // Free only [0, 64): every search from past it wraps.
    t.set(64, size - 64);
    EXPECT_EQ(t.find_run(500, 10), std::optional<u64>{0});
    check_searches(t);
    // Free only [100, 200): from goal 150 only 50 blocks lie ahead, so a
    // 60-block search wraps and returns the run's true start.
    t.clear(64, size - 64);
    t.set(0, 100);
    t.set(200, size - 200);
    EXPECT_EQ(t.find_run(150, 60), std::optional<u64>{100});
    EXPECT_EQ(t.find_run(150, 50), std::optional<u64>{150});
    auto best = t.find_run_best(150, 1, 60);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->start.v, 100u);
    check_searches(t);
  }
}

TEST(BitmapDifferential, FindRunBestBothBranches) {
  for (u64 size : kSizes) {
    SCOPED_TRACE(size);
    Twin t(size);
    // Runs of 8 split by single used blocks up to 600, then a run of 50
    // at [601, 651), then used to the end.
    for (u64 i = 8; i < 600; i += 9) t.set(i, 1);
    t.set(600, 1);
    t.set(651, size - 651);
    // want_len reachable: the first run that reaches it wins.
    auto full = t.find_run_best(0, 1, 20);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(full->start.v, 601u);
    EXPECT_EQ(full->length, 20u);
    // want_len out of reach: the longest run seen.
    auto longest = t.find_run_best(0, 2, 64);
    ASSERT_TRUE(longest.has_value());
    EXPECT_EQ(longest->start.v, 601u);
    EXPECT_EQ(longest->length, 50u);
    // With the long run taken, the first of the equal 8-runs from the goal.
    t.set(601, 50);
    t.find_run_best(300, 2, 64);
    t.find_run_best(0, 9, 64);
    check_searches(t);
  }
}

// Seeded random edit/query sequences: allocations at chosen goals, frees of
// whole or partial allocations, raw sets where the range is free, and every
// query in between, at fill levels that drift between sparse and nearly full.
TEST(BitmapDifferential, RandomSequencesMatchLinearReference) {
  for (u64 size : kSizes) {
    for (u64 seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(testing::Message() << "size " << size << " seed " << seed);
      mif::Rng rng(seed * 7919 + size);
      Twin t(size);
      std::vector<std::pair<u64, u64>> live;
      double fill = 0.5;
      auto pick_goal = [&]() -> u64 {
        switch (rng.uniform(0, 4)) {
          case 0:
            return rng.uniform(0, size - 1);
          case 1: {  // on or next to a word edge
            const u64 edge = rng.uniform(1, (size - 1) / 64) * 64;
            return edge - 1 + rng.uniform(0, 2);
          }
          case 2: {  // inside a free run, if any
            const u64 from = rng.uniform(0, size - 1);
            for (u64 i = 0; i < size; ++i) {
              const u64 b = (from + i) % size;
              if (!t.is_set(b)) return b;
            }
            return from;
          }
          case 3: {  // just in front of the highest used block
            u64 top = size;
            while (top > 0 && !t.is_set(top - 1)) --top;
            return top > 0 ? top - rng.uniform(1, std::min<u64>(top, 70))
                           : 0;
          }
          default:  // near the end: wraps almost at once
            return size - rng.uniform(1, 70);
        }
      };
      auto pick_len = [&]() -> u64 {
        const u64 f = t.free_blocks();
        switch (rng.uniform(0, 5)) {
          case 0:
            return f + rng.uniform(0, 1);  // exact fit or one too many
          case 1:
            return rng.uniform(1, 200);
          case 2:
            return rng.uniform(60, 70);  // around a word
          default:
            return rng.uniform(1, 16);
        }
      };
      for (int step = 0; step < 3000; ++step) {
        if (step % 500 == 0) fill = 0.1 + 0.85 * rng.uniform01();
        const double used = 1.0 - static_cast<double>(t.free_blocks()) /
                                      static_cast<double>(size);
        const u64 op = rng.uniform(0, 9);
        if (op < 4 && (used < fill || live.empty())) {
          const u64 len = pick_len();
          const u64 goal = pick_goal();
          if (rng.chance(0.5)) {
            if (auto r = t.find_run(goal, len)) {
              t.set(*r, len);
              live.emplace_back(*r, len);
            }
          } else {
            const u64 min_len = rng.uniform(1, std::max<u64>(1, len));
            if (auto r = t.find_run_best(goal, min_len, std::max(len, min_len))) {
              t.set(r->start.v, r->length);
              live.emplace_back(r->start.v, r->length);
            }
          }
        } else if (op < 7 && !live.empty()) {
          // Free all or part of one allocation.
          const std::size_t i = rng.uniform(0, live.size() - 1);
          auto [start, len] = live[i];
          const u64 lo = rng.chance(0.5) ? 0 : rng.uniform(0, len - 1);
          const u64 hi = rng.chance(0.5) ? len : rng.uniform(lo + 1, len);
          t.clear(start + lo, hi - lo);
          live[i] = live.back();
          live.pop_back();
          if (lo > 0) live.emplace_back(start, lo);
          if (hi < len) live.emplace_back(start + hi, len - hi);
        } else if (op == 7) {
          // Raw set wherever the range happens to be free.
          const u64 start = rng.uniform(0, size - 1);
          const u64 len = rng.uniform(1, 90);
          if (t.range_free(start, len)) {
            t.set(start, len);
            live.emplace_back(start, len);
          }
        } else {
          const u64 goal = pick_goal();
          const u64 len = pick_len();
          t.find_run(goal, len);
          t.find_run_best(goal, rng.uniform(1, std::max<u64>(1, len)),
                          std::max<u64>(1, len));
          t.free_run_at(goal, rng.uniform(0, 300));
          if (step % 50 == 0) t.check_free_runs();
        }
        if (testing::Test::HasFailure()) return;
      }
      check_searches(t);
    }
  }
}

}  // namespace
}  // namespace mif::block
