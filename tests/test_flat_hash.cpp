// Unit and property tests for util::FlatMap / util::FlatSet: open
// addressing correctness under churn, and the insertion-order iteration
// guarantee the deterministic exports rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/flat_hash.h"
#include "util/rng.h"

namespace svcdisc::util {
namespace {

TEST(FlatMap, BasicInsertFindErase) {
  FlatMap<int, std::string> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), m.end());

  m[1] = "one";
  auto [it, inserted] = m.emplace(2, "two");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, "two");
  auto [again, inserted2] = m.emplace(2, "TWO");
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(again->second, "two");  // first insert wins

  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(1));
  ASSERT_NE(m.find(1), m.end());
  EXPECT_EQ(m.find(1)->second, "one");

  EXPECT_EQ(m.erase(1), 1u);
  EXPECT_EQ(m.erase(1), 0u);
  EXPECT_FALSE(m.contains(1));
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, OperatorBracketDefaultConstructs) {
  FlatMap<int, std::uint64_t> m;
  EXPECT_EQ(m[5], 0u);
  m[5] += 3;
  EXPECT_EQ(m[5], 3u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, IterationIsInsertionOrdered) {
  FlatMap<int, int> m;
  // Insert enough to force several rehashes.
  for (int i = 0; i < 1000; ++i) m[i * 7919] = i;
  int expect = 0;
  for (const auto& [k, v] : m) {
    EXPECT_EQ(k, expect * 7919);
    EXPECT_EQ(v, expect);
    ++expect;
  }
  EXPECT_EQ(expect, 1000);
}

TEST(FlatMap, EraseAndRehashPreserveSurvivorOrder) {
  FlatMap<int, int> m;
  for (int i = 0; i < 200; ++i) m[i] = i;
  for (int i = 0; i < 200; i += 2) m.erase(i);  // kill the evens
  // Insert more to trigger compaction while the tombstones are present.
  for (int i = 200; i < 400; ++i) m[i] = i;
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  ASSERT_EQ(keys.size(), 300u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(keys[i], static_cast<int>(2 * i + 1));  // surviving odds
  }
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(keys[100 + i], static_cast<int>(200 + i));
  }
}

TEST(FlatMap, ClearKeepsWorking) {
  FlatMap<int, int> m;
  for (int i = 0; i < 50; ++i) m[i] = i;
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.contains(7));
  m[7] = 1;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(7)->second, 1);
}

TEST(FlatMap, InsertEraseChurnStaysCompact) {
  // A pending-probe style workload: constant insert/erase on a handful
  // of live keys must not degrade lookups or leak dead entries.
  FlatMap<int, int> m;
  for (int round = 0; round < 10000; ++round) {
    m[round % 16] = round;
    EXPECT_EQ(m.erase(round % 16), 1u);
  }
  EXPECT_TRUE(m.empty());
  for (const auto& kv : m) {
    FAIL() << "iteration over empty map yielded " << kv.first;
  }
}

TEST(FlatMap, RandomOpsAgreeWithReferenceModel) {
  FlatMap<std::uint32_t, std::uint32_t> m;
  std::unordered_map<std::uint32_t, std::uint32_t> model;
  std::vector<std::uint32_t> order;  // model of insertion order
  Rng rng(0xF1A7);
  for (int step = 0; step < 20000; ++step) {
    const std::uint32_t key = static_cast<std::uint32_t>(rng.below(512));
    switch (rng.below(4)) {
      case 0: {  // insert/overwrite via operator[]
        const std::uint32_t val = static_cast<std::uint32_t>(rng());
        if (!model.contains(key)) order.push_back(key);
        m[key] = val;
        model[key] = val;
        break;
      }
      case 1: {  // erase
        const std::size_t a = m.erase(key);
        const std::size_t b = model.erase(key);
        EXPECT_EQ(a, b);
        if (b) std::erase(order, key);
        break;
      }
      case 2: {  // lookup
        const auto it = m.find(key);
        const auto mit = model.find(key);
        ASSERT_EQ(it == m.end(), mit == model.end());
        if (mit != model.end()) {
          EXPECT_EQ(it->second, mit->second);
        }
        break;
      }
      default:
        EXPECT_EQ(m.contains(key), model.contains(key));
        break;
    }
    ASSERT_EQ(m.size(), model.size());
  }
  // Full-content and order check at the end.
  std::vector<std::uint32_t> got;
  for (const auto& [k, v] : m) {
    got.push_back(k);
    EXPECT_EQ(v, model.at(k));
  }
  EXPECT_EQ(got, order);
}

TEST(FlatMap, EraseThenIterateReinsertAndRehash) {
  FlatMap<int, int> m;
  for (int i = 0; i < 12; ++i) m[i] = 10 * i;
  for (int i = 0; i < 12; i += 3) m.erase(i);  // 0, 3, 6, 9
  std::vector<int> keys;
  for (const auto& [k, v] : m) {
    keys.push_back(k);
    EXPECT_EQ(v, 10 * k);
  }
  EXPECT_EQ(keys, (std::vector<int>{1, 2, 4, 5, 7, 8, 10, 11}));
  // Erased first and last entries are skipped at both ends.
  m.erase(1);
  m.erase(11);
  keys.clear();
  for (const auto& kv : m) keys.push_back(kv.first);
  EXPECT_EQ(keys, (std::vector<int>{2, 4, 5, 7, 8, 10}));
  // A reinserted key goes to the back with its new value.
  m[3] = -3;
  EXPECT_EQ(m.find(3)->second, -3);
  EXPECT_EQ(m.find(0), m.end());
  // Enough inserts to rehash (compacting the erased entries away) while
  // the earlier order holds.
  for (int i = 100; i < 300; ++i) m.emplace(i, i);
  keys.clear();
  for (const auto& kv : m) keys.push_back(kv.first);
  std::vector<int> expect{2, 4, 5, 7, 8, 10, 3};
  for (int i = 100; i < 300; ++i) expect.push_back(i);
  EXPECT_EQ(keys, expect);
  EXPECT_EQ(m.size(), expect.size());
  for (int i = 0; i < 12; i += 3) EXPECT_EQ(m.contains(i), i == 3) << i;
}

TEST(FlatMap, CopyAndMoveKeepErasedEntriesOut) {
  FlatMap<int, std::string> m;
  for (int i = 0; i < 40; ++i) m[i] = std::to_string(i);
  for (int i = 0; i < 40; i += 2) m.erase(i);  // no rehash since
  const auto keys_of = [](const FlatMap<int, std::string>& map) {
    std::vector<int> keys;
    for (const auto& [k, v] : map) {
      keys.push_back(k);
      EXPECT_EQ(v, std::to_string(k));
    }
    return keys;
  };
  const std::vector<int> odds = keys_of(m);
  ASSERT_EQ(odds.size(), 20u);

  FlatMap<int, std::string> copy = m;
  EXPECT_EQ(keys_of(copy), odds);
  EXPECT_EQ(copy.size(), 20u);
  // The copy's erased entries stay erased, and erasing in it leaves the
  // original alone.
  EXPECT_FALSE(copy.contains(4));
  copy.erase(1);
  EXPECT_TRUE(m.contains(1));
  EXPECT_EQ(keys_of(m), odds);

  FlatMap<int, std::string> moved = std::move(m);
  EXPECT_EQ(keys_of(moved), odds);
  moved[4] = "4";
  EXPECT_EQ(moved.size(), 21u);
  EXPECT_EQ(keys_of(moved).back(), 4);
  // A moved-from map is empty and usable.
  EXPECT_TRUE(m.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(m.begin(), m.end());
  m[7] = "7";
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(keys_of(m), std::vector<int>{7});

  copy = moved;  // copy-assign over a map with erased entries
  EXPECT_EQ(keys_of(copy), keys_of(moved));
  FlatMap<int, std::string> target;
  target[99] = "99";
  target = std::move(copy);
  EXPECT_EQ(keys_of(target), keys_of(moved));
  EXPECT_FALSE(target.contains(99));
}

TEST(FlatSet, BasicInsertContainsErase) {
  FlatSet<int> s;
  EXPECT_TRUE(s.insert(3));
  EXPECT_FALSE(s.insert(3));
  EXPECT_TRUE(s.contains(3));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.erase(3), 1u);
  EXPECT_EQ(s.erase(3), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(FlatSet, IterationIsInsertionOrdered) {
  FlatSet<int> s;
  for (int i = 100; i > 0; --i) s.insert(i);
  int expect = 100;
  for (const int k : s) EXPECT_EQ(k, expect--);
  EXPECT_EQ(expect, 0);
}

TEST(FlatSet, EraseThenIterateReinsertAndRehash) {
  FlatSet<int> s;
  for (int i = 0; i < 10; ++i) s.insert(i);
  s.erase(0);
  s.erase(5);
  s.erase(9);
  std::vector<int> keys(s.begin(), s.end());
  EXPECT_EQ(keys, (std::vector<int>{1, 2, 3, 4, 6, 7, 8}));
  EXPECT_TRUE(s.insert(5));  // back, after the survivors
  EXPECT_FALSE(s.insert(5));
  for (int i = 50; i < 250; ++i) s.insert(i);  // rehash
  keys.assign(s.begin(), s.end());
  std::vector<int> expect{1, 2, 3, 4, 6, 7, 8, 5};
  for (int i = 50; i < 250; ++i) expect.push_back(i);
  EXPECT_EQ(keys, expect);
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.contains(9));
  // Erase everything: iteration yields nothing, and the set refills.
  for (const int k : expect) s.erase(k);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.begin(), s.end());
  s.insert(9);
  keys.assign(s.begin(), s.end());
  EXPECT_EQ(keys, std::vector<int>{9});
}

TEST(FlatSet, RandomOpsAgreeWithReferenceModel) {
  FlatSet<std::uint32_t> s;
  std::unordered_set<std::uint32_t> model;
  Rng rng(0x5E7);
  for (int step = 0; step < 20000; ++step) {
    const std::uint32_t key = static_cast<std::uint32_t>(rng.below(256));
    switch (rng.below(3)) {
      case 0:
        EXPECT_EQ(s.insert(key), model.insert(key).second);
        break;
      case 1:
        EXPECT_EQ(s.erase(key), model.erase(key));
        break;
      default:
        EXPECT_EQ(s.contains(key), model.contains(key));
        break;
    }
    ASSERT_EQ(s.size(), model.size());
  }
  for (const auto k : s) EXPECT_TRUE(model.contains(k));
}

TEST(FlatHash, MixAvalanchesSequentialKeys) {
  // Sequential inputs (addresses, ports) must not produce sequential
  // low bits after mixing — the property open addressing depends on.
  std::unordered_set<std::uint64_t> low_bits;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    low_bits.insert(hash_mix(i) & 0xFFF);
  }
  // A perfectly uniform hash fills ~63% of 4096 buckets with 4096 draws;
  // allow generous slack while still rejecting mere shifts of identity.
  EXPECT_GT(low_bits.size(), 2000u);
}

}  // namespace
}  // namespace svcdisc::util
