// Differential tests of the per-directory name index against
// std::unordered_map: seeded random insert/find/erase steps with duplicate
// inserts and erases of absent names, growth from an empty table, and probe
// runs that wrap around the table's end, where backward-shift deletion has
// to move cells across the wrap.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "mfs/name_index.hpp"
#include "util/rng.hpp"

namespace mif::mfs {
namespace {

// A NameIndex and a reference map driven through the same steps.  Ordinals
// are handed out the way a directory hands them out: the most recently
// freed one first, else the next unused one.
struct Lockstep {
  NameIndex index;
  std::unordered_map<std::string, u64> ref;
  std::vector<u64> free_ordinals;
  u64 next_ordinal{0};

  void insert(const std::string& name) {
    const u64 ord =
        free_ordinals.empty() ? next_ordinal : free_ordinals.back();
    const bool fresh = !ref.contains(name);
    ASSERT_EQ(index.insert(name, ord), fresh) << "insert " << name;
    if (fresh) {
      ref.emplace(name, ord);
      if (free_ordinals.empty()) {
        ++next_ordinal;
      } else {
        free_ordinals.pop_back();
      }
    }
    ASSERT_EQ(index.size(), ref.size());
  }

  void erase(const std::string& name) {
    const auto it = ref.find(name);
    ASSERT_EQ(index.erase(name), it != ref.end()) << "erase " << name;
    if (it != ref.end()) {
      free_ordinals.push_back(it->second);
      ref.erase(it);
    }
    ASSERT_EQ(index.size(), ref.size());
  }

  void find(const std::string& name) const {
    const auto it = ref.find(name);
    const auto got = index.find(name);
    ASSERT_EQ(got.has_value(), it != ref.end()) << "find " << name;
    if (got) {
      ASSERT_EQ(*got, it->second) << "find " << name;
      ASSERT_EQ(index.name_at(*got), name);
    }
  }

  void find_all() const {
    ASSERT_EQ(index.size(), ref.size());
    for (const auto& [name, ord] : ref) ASSERT_NO_FATAL_FAILURE(find(name));
  }
};

std::string name_of(u64 i) { return "n" + std::to_string(i); }

// Names whose probe run starts at one of `homes` in a table of `capacity`
// cells, found by hashing candidates in order.
std::vector<std::string> names_homed_at(const std::vector<std::size_t>& homes,
                                        std::size_t capacity,
                                        std::size_t per_home) {
  std::vector<std::string> out;
  for (std::size_t home : homes) {
    std::size_t found = 0;
    for (u64 i = 0; found < per_home; ++i) {
      const std::string name = "w" + std::to_string(home) + "_" +
                               std::to_string(i);
      if ((NameIndex::cell_hash(name) & (capacity - 1)) == home) {
        out.push_back(name);
        ++found;
      }
    }
  }
  return out;
}

TEST(NameIndexTest, EmptyIndexFindsAndErasesNothing) {
  NameIndex index;
  EXPECT_EQ(index.capacity(), 0u);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.find("a"));
  EXPECT_FALSE(index.erase("a"));
  EXPECT_EQ(index.capacity(), 0u);
}

TEST(NameIndexTest, DuplicateInsertKeepsTheFirstBinding) {
  NameIndex index;
  ASSERT_TRUE(index.insert("a", 0));
  EXPECT_FALSE(index.insert("a", 1));
  EXPECT_EQ(index.find("a"), 0u);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.name_at(0), "a");
}

TEST(NameIndexTest, GrowsFromEmptyThroughManyDoublings) {
  Lockstep s;
  for (u64 i = 0; i < 20000; ++i) {
    ASSERT_NO_FATAL_FAILURE(s.insert(name_of(i)));
  }
  ASSERT_NO_FATAL_FAILURE(s.find_all());
  // The table doubled from its first size and stays under its load bound.
  EXPECT_GE(s.index.capacity(), 20000u);
  EXPECT_EQ(s.index.capacity() & (s.index.capacity() - 1), 0u);
  for (u64 i = 20000; i < 20100; ++i) {
    ASSERT_NO_FATAL_FAILURE(s.find(name_of(i)));
  }
}

// The differential run: 150 000 seeded steps over name pools of three sizes,
// so tables churn while small, mid-growth and large.  Every answer and the
// size are compared with the reference on every step.
TEST(NameIndexTest, RandomStepsMatchUnorderedMap) {
  Rng rng(42);
  for (const u64 pool : {40u, 700u, 6000u}) {
    Lockstep s;
    for (int step = 0; step < 50000; ++step) {
      const std::string name = name_of(rng.uniform(0, pool - 1));
      const u64 op = rng.uniform(0, 99);
      if (op < 45) {
        ASSERT_NO_FATAL_FAILURE(s.insert(name)) << "step " << step;
      } else if (op < 80) {
        ASSERT_NO_FATAL_FAILURE(s.erase(name)) << "step " << step;
      } else {
        ASSERT_NO_FATAL_FAILURE(s.find(name)) << "step " << step;
      }
      if (step % 5000 == 0) {
        ASSERT_NO_FATAL_FAILURE(s.find_all());
      }
    }
    ASSERT_NO_FATAL_FAILURE(s.find_all());
  }
}

// Half the names of a 5 000-name directory erased and new ones inserted,
// round after round: the churn an aged directory sees.
TEST(NameIndexTest, ChurnedDirectoryMatchesUnorderedMap) {
  Rng rng(11);
  Lockstep s;
  u64 next = 0;
  for (; next < 5000; ++next) ASSERT_NO_FATAL_FAILURE(s.insert(name_of(next)));
  for (int round = 0; round < 8; ++round) {
    std::vector<std::string> victims;
    for (const auto& [name, ord] : s.ref) {
      if (rng.chance(0.5)) victims.push_back(name);
    }
    for (const std::string& v : victims) ASSERT_NO_FATAL_FAILURE(s.erase(v));
    ASSERT_NO_FATAL_FAILURE(s.find_all());
    for (std::size_t i = 0; i < victims.size(); ++i, ++next) {
      ASSERT_NO_FATAL_FAILURE(s.insert(name_of(next)));
    }
    ASSERT_NO_FATAL_FAILURE(s.find_all());
  }
}

// Clusters homed in the last cells of the table spill over into its first
// cells, where names homed at cell 0 and 1 queue behind them.  Erasing in
// random orders must shift cells back across the wrap and keep every
// remaining name findable.
TEST(NameIndexTest, ClustersWrappingTheTableEnd) {
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    Lockstep s;
    ASSERT_NO_FATAL_FAILURE(s.insert("seed"));
    const std::size_t cap = s.index.capacity();
    ASSERT_GE(cap, 8u);
    ASSERT_NO_FATAL_FAILURE(s.erase("seed"));
    // Stay under the load bound so the table keeps `cap` cells.
    std::vector<std::string> names =
        names_homed_at({cap - 2, cap - 1, 0, 1}, cap, cap / 8);
    for (std::size_t i = names.size(); i > 1; --i)
      std::swap(names[i - 1], names[rng.uniform(0, i - 1)]);
    for (const std::string& n : names) ASSERT_NO_FATAL_FAILURE(s.insert(n));
    ASSERT_EQ(s.index.capacity(), cap);
    ASSERT_NO_FATAL_FAILURE(s.find_all());
    for (int step = 0; step < 40; ++step) {
      const std::string& n = names[rng.uniform(0, names.size() - 1)];
      if (rng.chance(0.5)) {
        ASSERT_NO_FATAL_FAILURE(s.erase(n));
      } else {
        ASSERT_NO_FATAL_FAILURE(s.insert(n));
      }
      ASSERT_NO_FATAL_FAILURE(s.find_all());
      for (const std::string& m : names) ASSERT_NO_FATAL_FAILURE(s.find(m));
    }
  }
}

}  // namespace
}  // namespace mif::mfs
