// Property tests for AddressPool: randomized acquire/release sequences
// must preserve the pool invariants under every (class, sticky) combo.
//
// Invariants:
//   * no address is leased to two holders at once;
//   * every granted address lies inside the pool's prefix;
//   * sticky pools return the same address to the same host forever;
//   * free_count + outstanding (+ parked sticky reservations) == size.
#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "host/address_pool.h"
#include "util/rng.h"

namespace svcdisc::host {
namespace {

using net::Ipv4;
using net::Prefix;

// gtest has no printer for PoolCase or ScaleCase, so each case is
// registered under a hex dump of its 16 bytes. The bytes between the
// leading one-byte fields and `prefix_bits` used to be implicit padding,
// which left the case names to whatever the stack held at static-init
// time, so they changed from build to build. `name_tag` makes them an
// explicit field, fixed to the bytes each case was first registered
// under, so the case names stay the same on every build.
struct PoolCase {
  AddressClass cls;
  bool sticky;
  std::uint8_t name_tag[2];
  int prefix_bits;
  std::uint64_t seed;
};
static_assert(sizeof(PoolCase) == 16, "PoolCase must have no padding");

class PoolProperty : public ::testing::TestWithParam<PoolCase> {};

TEST_P(PoolProperty, RandomizedLifecyclePreservesInvariants) {
  const PoolCase pc = GetParam();
  const Prefix prefix(Ipv4::from_octets(128, 125, 56, 0), pc.prefix_bits);
  AddressPool pool(pc.cls, prefix, pc.sticky, pc.seed);
  util::Rng rng(pc.seed ^ 0xABCDEF);

  constexpr std::uint32_t kHosts = 40;
  std::unordered_map<std::uint32_t, Ipv4> held;           // host -> lease
  std::unordered_map<std::uint32_t, Ipv4> ever_assigned;  // sticky memory
  std::unordered_set<Ipv4> leased_now;

  for (int step = 0; step < 4000; ++step) {
    const auto host_id = static_cast<std::uint32_t>(rng.below(kHosts));
    const auto it = held.find(host_id);
    if (it == held.end()) {
      const auto addr = pool.acquire(host_id);
      if (!addr.has_value()) {
        // Exhaustion is only legal when the free list is really empty.
        ASSERT_EQ(pool.free_count(), 0u);
        continue;
      }
      ASSERT_TRUE(prefix.contains(*addr)) << addr->to_string();
      ASSERT_FALSE(leased_now.contains(*addr))
          << "double lease of " << addr->to_string();
      if (pc.sticky) {
        const auto prev = ever_assigned.find(host_id);
        if (prev != ever_assigned.end()) {
          ASSERT_EQ(*addr, prev->second) << "sticky reassignment";
        }
        ever_assigned[host_id] = *addr;
      }
      leased_now.insert(*addr);
      held[host_id] = *addr;
    } else {
      pool.release(host_id, it->second);
      leased_now.erase(it->second);
      held.erase(it);
    }

    // Accounting: every address is free, leased, or (sticky) parked.
    const std::size_t parked =
        pc.sticky ? ever_assigned.size() - leased_now.size() : 0;
    ASSERT_EQ(pool.free_count() + leased_now.size() + parked, pool.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, PoolProperty,
    ::testing::Values(
        PoolCase{AddressClass::kDhcp, true, {0x48, 0x00}, 26, 1},
        PoolCase{AddressClass::kDhcp, true, {0x00, 0x00}, 27, 2},
        PoolCase{AddressClass::kPpp, false, {0x00, 0x00}, 26, 3},
        PoolCase{AddressClass::kVpn, false, {0x01, 0x1B}, 27, 4},
        PoolCase{AddressClass::kWireless, false, {0x48, 0x00}, 28, 5},
        PoolCase{AddressClass::kDhcp, true, {0x00, 0x00}, 28, 6}));

// ------------------------------------------------- scale / lazy pools --
//
// The pool used to materialize every address of its prefix at
// construction (a /12 pre-allocated ~1M free-list entries before the
// first lease). The lazy rewrite must (a) keep the seeded lease sequence
// byte-identical — scenario goldens depend on it — and (b) construct in
// O(1) regardless of prefix size. The reference below is the pre-refactor
// eager implementation, kept verbatim as the sequence oracle.
class EagerReferencePool {
 public:
  EagerReferencePool(Prefix prefix, bool sticky, std::uint64_t seed)
      : prefix_(prefix), sticky_(sticky), rng_(seed) {
    const std::uint64_t n = prefix.size();
    free_.reserve(n);
    free_index_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Ipv4 addr = prefix.at(i);
      free_index_[addr] = free_.size();
      free_.push_back(addr);
    }
  }

  std::optional<Ipv4> acquire(std::uint32_t host_id) {
    if (sticky_) {
      const auto it = reservations_.find(host_id);
      if (it != reservations_.end()) return it->second;
    }
    if (free_.empty()) return std::nullopt;
    const std::size_t pick =
        static_cast<std::size_t>(rng_.below(free_.size()));
    const Ipv4 addr = free_[pick];
    remove_free(addr);
    if (sticky_) reservations_[host_id] = addr;
    return addr;
  }

  void release(std::uint32_t host_id, Ipv4 addr) {
    if (sticky_) {
      const auto it = reservations_.find(host_id);
      if (it != reservations_.end() && it->second == addr) return;
    }
    if (!prefix_.contains(addr) || free_index_.contains(addr)) return;
    free_index_[addr] = free_.size();
    free_.push_back(addr);
  }

  std::size_t free_count() const { return free_.size(); }

 private:
  void remove_free(Ipv4 addr) {
    const auto it = free_index_.find(addr);
    if (it == free_index_.end()) return;
    const std::size_t idx = it->second;
    const Ipv4 last = free_.back();
    free_[idx] = last;
    free_index_[last] = idx;
    free_.pop_back();
    free_index_.erase(it);
  }

  Prefix prefix_;
  bool sticky_;
  util::Rng rng_;
  std::vector<Ipv4> free_;
  std::unordered_map<Ipv4, std::size_t> free_index_;
  std::unordered_map<std::uint32_t, Ipv4> reservations_;
};

// `name_tag` pins the former padding bytes, as in PoolCase above.
struct ScaleCase {
  bool sticky;
  std::uint8_t name_tag[3];
  int prefix_bits;
  std::uint64_t seed;
};
static_assert(sizeof(ScaleCase) == 16, "ScaleCase must have no padding");

class PoolSequence : public ::testing::TestWithParam<ScaleCase> {};

// Interleaved acquire/release churn: every lease the lazy pool hands out
// must match the eager reference draw-for-draw, and free counts must
// agree after every step. /16 (65536 addresses) is the largest size the
// eager reference can afford to materialize in a test.
TEST_P(PoolSequence, ChurnMatchesEagerReferenceDrawForDraw) {
  const ScaleCase sc = GetParam();
  const Prefix prefix(Ipv4::from_octets(10, 32, 0, 0), sc.prefix_bits);
  AddressPool lazy(AddressClass::kDhcp, prefix, sc.sticky, sc.seed);
  EagerReferencePool eager(prefix, sc.sticky, sc.seed);
  util::Rng rng(sc.seed ^ 0x5CA1E);

  constexpr std::uint32_t kHosts = 64;
  std::unordered_map<std::uint32_t, Ipv4> held;
  for (int step = 0; step < 6000; ++step) {
    const auto host_id = static_cast<std::uint32_t>(rng.below(kHosts));
    const auto it = held.find(host_id);
    if (it == held.end()) {
      const auto got = lazy.acquire(host_id);
      const auto want = eager.acquire(host_id);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (got.has_value()) {
        ASSERT_EQ(*got, *want)
            << "lease sequence diverged at step " << step << ": lazy="
            << got->to_string() << " eager=" << want->to_string();
        held[host_id] = *got;
      }
    } else {
      lazy.release(host_id, it->second);
      eager.release(host_id, it->second);
      held.erase(it);
    }
    ASSERT_EQ(lazy.free_count(), eager.free_count()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PoolSequence,
    ::testing::Values(ScaleCase{false, {0xB8, 0x0E, 0x8B}, 28, 11},
                      ScaleCase{true, {0x9D, 0x0E, 0x8B}, 28, 12},
                      ScaleCase{false, {0x00, 0x00, 0x00}, 24, 13},
                      ScaleCase{true, {0x00, 0x00, 0x00}, 24, 14},
                      ScaleCase{false, {0x00, 0x00, 0x00}, 20, 15},
                      ScaleCase{true, {0x9D, 0x0E, 0x8B}, 16, 16},
                      ScaleCase{false, {0xBA, 0x39, 0xDC}, 16, 17}));

// A /8 covers 16.7M addresses; the eager pool allocated all of them up
// front. The lazy pool must construct in O(1) and stay O(churn) while
// handing out leases from the full range.
TEST(PoolScale, HugePoolConstructsLazilyAndLeases) {
  const Prefix prefix(Ipv4::from_octets(26, 0, 0, 0), 8);
  AddressPool pool(AddressClass::kVpn, prefix, false, 99);
  EXPECT_EQ(pool.free_count(), std::size_t{1} << 24);

  std::unordered_set<Ipv4> leased;
  for (std::uint32_t id = 0; id < 10000; ++id) {
    const auto addr = pool.acquire(id);
    ASSERT_TRUE(addr.has_value());
    ASSERT_TRUE(prefix.contains(*addr));
    ASSERT_TRUE(leased.insert(*addr).second)
        << "double lease of " << addr->to_string();
  }
  EXPECT_EQ(pool.free_count(), (std::size_t{1} << 24) - 10000);
  // Release everything; the pool must account for every address again.
  std::uint32_t id = 0;
  for (const Ipv4 addr : leased) pool.release(id++, addr);
  EXPECT_EQ(pool.free_count(), std::size_t{1} << 24);
}

TEST(PoolScale, ExhaustionReturnsNulloptThenRecovers) {
  const Prefix prefix(Ipv4::from_octets(10, 9, 8, 0), 28);  // 16 addrs
  AddressPool pool(AddressClass::kPpp, prefix, false, 7);
  std::vector<Ipv4> leased;
  for (std::uint32_t id = 0; id < 16; ++id) {
    const auto addr = pool.acquire(id);
    ASSERT_TRUE(addr.has_value());
    leased.push_back(*addr);
  }
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_FALSE(pool.acquire(100).has_value());
  pool.release(3, leased[3]);
  const auto again = pool.acquire(200);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, leased[3]);
}

TEST(PoolScale, StickyReacquireSurvivesHeavyChurn) {
  const Prefix prefix(Ipv4::from_octets(10, 40, 0, 0), 20);  // 4096 addrs
  AddressPool pool(AddressClass::kDhcp, prefix, true, 21);
  const auto first = pool.acquire(1);
  ASSERT_TRUE(first.has_value());
  pool.release(1, *first);
  // Churn hundreds of other hosts through the pool between the release
  // and the reacquire; the reservation must hold regardless.
  for (std::uint32_t id = 1000; id < 1500; ++id) {
    ASSERT_TRUE(pool.acquire(id).has_value());
  }
  const auto again = pool.acquire(1);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *first);
}

}  // namespace
}  // namespace svcdisc::host
