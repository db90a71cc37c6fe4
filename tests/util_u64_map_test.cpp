// Differential tests of the u64-keyed open-addressing table against
// std::unordered_map: seeded insert/assign/erase/find steps, the keys at
// both ends of u64 (one of them is the table's empty-cell marker), keys that
// share a home cell, probe runs that wrap past the array's end, where
// backward-shift deletion has to move cells across the wrap, and growth
// from an empty table.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"
#include "util/u64_map.hpp"

namespace mif::util {
namespace {

// A U64Map and a reference map driven through the same steps.
struct Lockstep {
  U64Map<u64> map;
  std::unordered_map<u64, u64> ref;

  void assign(u64 key, u64 value) {
    const bool fresh = !ref.contains(key);
    auto [slot, inserted] = map.try_emplace(key);
    ASSERT_EQ(inserted, fresh) << "assign " << key;
    if (inserted) {
      ASSERT_EQ(*slot, 0u) << "fresh value of " << key;
    }
    *slot = value;
    ref[key] = value;
    ASSERT_EQ(map.size(), ref.size());
  }

  void erase(u64 key) {
    const auto it = ref.find(key);
    const std::optional<u64> taken = map.take(key);
    ASSERT_EQ(taken.has_value(), it != ref.end()) << "erase " << key;
    if (it != ref.end()) {
      ASSERT_EQ(*taken, it->second) << "erase " << key;
      ref.erase(it);
    }
    ASSERT_EQ(map.size(), ref.size());
  }

  void find(u64 key) const {
    const auto it = ref.find(key);
    const u64* got = map.find(key);
    ASSERT_EQ(got != nullptr, it != ref.end()) << "find " << key;
    ASSERT_EQ(map.contains(key), it != ref.end()) << "contains " << key;
    if (got) {
      ASSERT_EQ(*got, it->second) << "find " << key;
    }
  }

  void find_all() const {
    ASSERT_EQ(map.size(), ref.size());
    for (const auto& [key, value] : ref) ASSERT_NO_FATAL_FAILURE(find(key));
    // for_each visits each entry exactly once.
    std::unordered_map<u64, u64> seen;
    map.for_each([&seen](u64 key, const u64& value) {
      EXPECT_TRUE(seen.emplace(key, value).second) << "visited twice " << key;
    });
    ASSERT_EQ(seen, ref);
  }
};

constexpr u64 kMax = ~u64{0};

// Keys whose probe run starts at one of `homes` in `map`'s current array,
// found by trying candidates in order.
std::vector<u64> keys_homed_at(const U64Map<u64>& map,
                               const std::vector<std::size_t>& homes,
                               std::size_t per_home) {
  std::vector<u64> out;
  for (std::size_t home : homes) {
    std::size_t found = 0;
    for (u64 k = home * 1'000'003; found < per_home; ++k) {
      if (map.home(k) == home) {
        out.push_back(k);
        ++found;
      }
    }
  }
  return out;
}

TEST(U64MapTest, EmptyTableFindsAndErasesNothing) {
  U64Map<u64> map;
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.size(), 0u);
  for (u64 key : {u64{0}, u64{1}, kMax}) {
    EXPECT_EQ(map.find(key), nullptr);
    EXPECT_FALSE(map.erase(key));
  }
  EXPECT_EQ(map.capacity(), 0u);
}

// Every u64 is a key: 0 and the largest value, which marks empty cells
// inside the table, behave like any other.
TEST(U64MapTest, ExtremeKeysAreOrdinaryKeys) {
  Lockstep s;
  ASSERT_NO_FATAL_FAILURE(s.assign(kMax, 7));
  ASSERT_NO_FATAL_FAILURE(s.find(0));
  ASSERT_NO_FATAL_FAILURE(s.assign(0, 9));
  ASSERT_NO_FATAL_FAILURE(s.assign(kMax - 1, 11));
  ASSERT_NO_FATAL_FAILURE(s.assign(kMax, 8));
  ASSERT_NO_FATAL_FAILURE(s.find_all());
  for (u64 k = 1; k < 100; ++k) ASSERT_NO_FATAL_FAILURE(s.assign(k, k));
  ASSERT_NO_FATAL_FAILURE(s.find_all());
  ASSERT_NO_FATAL_FAILURE(s.erase(kMax));
  ASSERT_NO_FATAL_FAILURE(s.erase(kMax));
  ASSERT_NO_FATAL_FAILURE(s.erase(0));
  ASSERT_NO_FATAL_FAILURE(s.find_all());
  ASSERT_NO_FATAL_FAILURE(s.assign(kMax, 1));
  ASSERT_NO_FATAL_FAILURE(s.find_all());
}

TEST(U64MapTest, GrowsFromEmptyThroughManyDoublings) {
  Lockstep s;
  Rng rng(3);
  for (u64 i = 0; i < 20000; ++i) {
    // Dense small keys, as inode numbers are, mixed with scattered ones.
    const u64 key = i % 2 ? i : rng.next();
    ASSERT_NO_FATAL_FAILURE(s.assign(key, i));
  }
  ASSERT_NO_FATAL_FAILURE(s.find_all());
  EXPECT_GE(s.map.capacity(), 20000u);
  EXPECT_EQ(s.map.capacity() & (s.map.capacity() - 1), 0u);
  for (u64 i = 20000; i < 20100; i += 2) ASSERT_NO_FATAL_FAILURE(s.find(i));
}

// The differential run: 150 000 seeded steps over key pools of three sizes,
// so tables churn while small, mid-growth and large.  The pools include 0
// and the largest key.  Every answer and the size are compared with the
// reference on every step.
TEST(U64MapTest, RandomStepsMatchUnorderedMap) {
  Rng rng(42);
  for (const u64 pool : {40u, 700u, 6000u}) {
    Lockstep s;
    std::vector<u64> keys{0, kMax, kMax - 1};
    while (keys.size() < pool) keys.push_back(rng.next());
    for (int step = 0; step < 50000; ++step) {
      const u64 key = keys[rng.uniform(0, pool - 1)];
      const u64 op = rng.uniform(0, 99);
      if (op < 45) {
        ASSERT_NO_FATAL_FAILURE(s.assign(key, rng.next())) << "step " << step;
      } else if (op < 80) {
        ASSERT_NO_FATAL_FAILURE(s.erase(key)) << "step " << step;
      } else {
        ASSERT_NO_FATAL_FAILURE(s.find(key)) << "step " << step;
      }
      if (step % 5000 == 0) {
        ASSERT_NO_FATAL_FAILURE(s.find_all());
      }
    }
    ASSERT_NO_FATAL_FAILURE(s.find_all());
  }
}

// Many keys sharing one home cell form one long probe run; erasing from its
// middle must pull the rest back without losing any.
TEST(U64MapTest, KeysSharingAHomeCell) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    Lockstep s;
    ASSERT_NO_FATAL_FAILURE(s.assign(1, 1));
    const std::size_t cap = s.map.capacity();
    ASSERT_NO_FATAL_FAILURE(s.erase(1));
    const std::size_t home = rng.uniform(0, cap - 1);
    const std::vector<u64> keys = keys_homed_at(s.map, {home}, cap / 2);
    for (u64 k : keys) ASSERT_NO_FATAL_FAILURE(s.assign(k, k + 1));
    ASSERT_EQ(s.map.capacity(), cap);
    for (int step = 0; step < 30; ++step) {
      const u64 k = keys[rng.uniform(0, keys.size() - 1)];
      if (rng.chance(0.6)) {
        ASSERT_NO_FATAL_FAILURE(s.erase(k));
      } else {
        ASSERT_NO_FATAL_FAILURE(s.assign(k, step));
      }
      ASSERT_NO_FATAL_FAILURE(s.find_all());
      for (u64 m : keys) ASSERT_NO_FATAL_FAILURE(s.find(m));
    }
  }
}

// Clusters homed in the last cells of the array spill over into its first
// cells, where keys homed at cell 0 and 1 queue behind them.  Erasing in
// random orders must shift cells back across the wrap.
TEST(U64MapTest, ClustersWrappingTheTableEnd) {
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    Lockstep s;
    ASSERT_NO_FATAL_FAILURE(s.assign(1, 1));
    const std::size_t cap = s.map.capacity();
    ASSERT_GE(cap, 8u);
    ASSERT_NO_FATAL_FAILURE(s.erase(1));
    // Stay under the load bound so the array keeps `cap` cells.
    std::vector<u64> keys =
        keys_homed_at(s.map, {cap - 2, cap - 1, 0, 1}, cap / 8);
    for (std::size_t i = keys.size(); i > 1; --i)
      std::swap(keys[i - 1], keys[rng.uniform(0, i - 1)]);
    for (u64 k : keys) ASSERT_NO_FATAL_FAILURE(s.assign(k, k));
    ASSERT_EQ(s.map.capacity(), cap);
    ASSERT_NO_FATAL_FAILURE(s.find_all());
    for (int step = 0; step < 40; ++step) {
      const u64 k = keys[rng.uniform(0, keys.size() - 1)];
      if (rng.chance(0.5)) {
        ASSERT_NO_FATAL_FAILURE(s.erase(k));
      } else {
        ASSERT_NO_FATAL_FAILURE(s.assign(k, step));
      }
      ASSERT_NO_FATAL_FAILURE(s.find_all());
      for (u64 m : keys) ASSERT_NO_FATAL_FAILURE(s.find(m));
    }
  }
}

// Owning values move between cells on growth and on erase, and the objects
// they own stay where they are: a table of pointers gives stable entries.
TEST(U64MapTest, OwningValuesKeepTheirObjects) {
  U64Map<std::unique_ptr<u64>> map;
  std::unordered_map<u64, const u64*> where;
  for (u64 k = 0; k < 1000; ++k) {
    auto& slot = map[k * 7919];
    slot = std::make_unique<u64>(k);
    where[k * 7919] = slot.get();
  }
  for (u64 k = 0; k < 1000; k += 3) {
    std::optional<std::unique_ptr<u64>> taken = map.take(k * 7919);
    ASSERT_TRUE(taken && *taken);
    EXPECT_EQ(**taken, k);
    where.erase(k * 7919);
  }
  ASSERT_EQ(map.size(), where.size());
  for (const auto& [key, obj] : where) {
    const std::unique_ptr<u64>* slot = map.find(key);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->get(), obj);
  }
}

TEST(U64MapTest, SetHoldsKeysOnly) {
  U64Set set;
  EXPECT_TRUE(set.try_emplace(kMax).second);
  EXPECT_FALSE(set.try_emplace(kMax).second);
  EXPECT_TRUE(set.try_emplace(0).second);
  EXPECT_TRUE(set.contains(kMax));
  EXPECT_TRUE(set.erase(0));
  EXPECT_FALSE(set.contains(0));
  EXPECT_EQ(set.size(), 1u);
}

}  // namespace
}  // namespace mif::util
