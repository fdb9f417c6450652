// The scan outcome store (active::ScanOutcomes): per probe a word of
// status and block-relative time, plus its probe index unless the store
// is index-free (a sweep's, named by send position through its
// SweepOrder), decoded through the scan's ProbeSpace. Random push /
// settle / verify / classify sequences are replayed against a
// std::vector<ProbeOutcome> reference model in both layouts, and the
// sweep order against machines stepped round-robin.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "active/prober.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace svcdisc::active {
namespace {

using net::Ipv4;
using net::Prefix;
using util::kEpoch;

static_assert(sizeof(ProbeOutcome) == 16);
static_assert(sizeof(StoredOutcome) == 8);
// Indices and words keep the full 32-bit range the prober's guard allows.
static_assert(std::is_same_v<decltype(StoredOutcome::index), std::uint32_t>);
static_assert(std::is_same_v<decltype(StoredOutcome::word), std::uint32_t>);

/// A random index space with repeated hints, targets and ports.
struct Space {
  std::shared_ptr<ProbeSpace> space = std::make_shared<ProbeSpace>();

  explicit Space(util::Rng& rng) {
    const auto port = [&] { return static_cast<net::Port>(1 + rng.below(4)); };
    const auto addr = [&] {
      return Ipv4::from_octets(128, 125, 3,
                               static_cast<std::uint8_t>(1 + rng.below(5)));
    };
    // The hints are a prefix of a longer list, as a scan's are of the
    // prober's shared one.
    auto hints = std::make_shared<std::vector<passive::ServiceKey>>();
    for (std::uint64_t n = rng.below(6); n > 0; --n) {
      hints->push_back(
          {addr(), rng.chance(0.5) ? net::Proto::kTcp : net::Proto::kUdp,
           static_cast<net::Port>(8000 + rng.below(3))});
    }
    space->hint_count = rng.below(hints->size() + 1);
    space->hint_list = hints;
    auto targets = std::make_shared<std::vector<Ipv4>>();
    for (std::uint64_t n = 1 + rng.below(6); n > 0; --n) {
      targets->push_back(addr());
    }
    space->targets = targets;
    for (std::uint64_t n = rng.below(3); n > 0; --n) {
      space->tcp_ports.push_back(port());
    }
    for (std::uint64_t n = space->tcp_ports.empty() ? 1 : rng.below(3);
         n > 0; --n) {
      space->udp_ports.push_back(port());
    }
  }

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(space->hint_count +
                                      space->targets->size() *
                                          space->columns());
  }

  /// The key of `index`, built from the layout rather than decoded.
  passive::ServiceKey expected_key(std::uint32_t index) const {
    const std::size_t hints = space->hint_count;
    if (index < hints) return (*space->hint_list)[index];
    const std::size_t columns = space->columns();
    const std::size_t row = (index - hints) / columns;
    const std::size_t column = (index - hints) % columns;
    const Ipv4 addr = (*space->targets)[row];
    const std::size_t tcp = space->tcp_ports.size();
    return column < tcp
               ? passive::ServiceKey{addr, net::Proto::kTcp,
                                     space->tcp_ports[column]}
               : passive::ServiceKey{addr, net::Proto::kUdp,
                                     space->udp_ports[column - tcp]};
  }
};

void expect_matches(const ScanOutcomes& got,
                    const std::vector<ProbeOutcome>& want) {
  ASSERT_EQ(got.size(), want.size());
  std::size_t i = 0;
  for (const ProbeOutcome& o : got) {
    EXPECT_EQ(o, want[i]) << "outcome " << i;
    EXPECT_EQ(got.status(i), want[i].status) << "outcome " << i;
    EXPECT_EQ(got.key(i), want[i].key()) << "outcome " << i;
    EXPECT_EQ(got.when(i), want[i].when) << "outcome " << i;
    ++i;
  }
}

ProbeStatus random_status(util::Rng& rng) {
  return static_cast<ProbeStatus>(rng.below(8));
}

/// Replays random sends, settles, classifications and a mid-sequence
/// record copy on `store` and on a vector model, then compares them.
/// `next_index(n)` names the cell of the n-th send, or none once the
/// store takes no more.
void replay_against_model(
    util::Rng& rng, const Space& space, ScanOutcomes store,
    util::TimePoint now,
    const std::function<std::optional<std::uint32_t>(std::size_t)>&
        next_index) {
  const std::int64_t exact = ScanOutcomes::kExact;
  std::vector<ProbeOutcome> model;
  std::optional<ScanRecord> copied;  // a record copied mid-sequence
  std::vector<ProbeOutcome> copied_model;
  const std::size_t ops = 200 + rng.below(900);
  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t pick = rng.below(10);
    const std::optional<std::uint32_t> index =
        pick < 5 || model.empty() ? next_index(model.size()) : std::nullopt;
    if (index) {
      // Send: time moves on by a usual pacing gap, or (about once in two
      // blocks) by a gap that leaves the rest of the block beyond the
      // 29-bit offset.
      now = now + util::usec(rng.chance(0.002) ? exact - 1 + rng.below(3)
                                               : rng.below(200'000));
      const passive::ServiceKey key = space.expected_key(*index);
      store.push(*index, now);
      model.push_back({.addr = key.addr,
                       .proto = key.proto,
                       .status = ProbeStatus::kPending,
                       .port = key.port,
                       .when = now});
    } else if (model.empty()) {
      break;  // a store that takes no send
    } else if (pick < 8) {
      // Settle or end a verification: an answer after the send, near or
      // far; now and then one before the block's base (only a hand-built
      // record does that) or on the sentinel boundary.
      const std::size_t i = rng.below(model.size());
      const std::size_t base = i - i % ScanOutcomes::kBlock;
      const util::TimePoint from = model[base].when;
      util::TimePoint when;
      switch (rng.below(6)) {
        case 0:
          when = from - util::usec(1 + rng.below(5));
          break;
        case 1:
          when = from + util::usec(exact - 1 + rng.below(3));
          break;
        default:
          when = model[i].when + util::usec(rng.below(4'000'000));
      }
      const ProbeStatus status = random_status(rng);
      store.set(i, status, when);
      model[i].status = status;
      model[i].when = when;
    } else if (pick < 9) {
      // Classify: only the status moves.
      const std::size_t i = rng.below(model.size());
      const ProbeStatus status = random_status(rng);
      store.set_status(i, status);
      model[i].status = status;
    } else if (!copied) {
      copied = ScanRecord{.index = 7, .outcomes = store};
      copied_model = model;
    }
  }
  expect_matches(store, model);
  if (copied) {
    // The copy kept its own words, bases and exact times, and its layout.
    EXPECT_EQ(copied->index, 7);
    EXPECT_EQ(copied->outcomes.index_free(), store.index_free());
    expect_matches(copied->outcomes, copied_model);
  }
  const ScanRecord whole{.outcomes = store};
  expect_matches(whole.outcomes, model);
  std::size_t open = 0;
  for (const ProbeOutcome& o : model) {
    open +=
        o.status == ProbeStatus::kOpen || o.status == ProbeStatus::kOpenUdp;
  }
  EXPECT_EQ(whole.open_services().size(), open);
}

TEST(ScanOutcomes, MatchesVectorModelOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    util::Rng rng(seed);
    const Space space(rng);
    const ScanOutcomes store(space.space);
    EXPECT_FALSE(store.index_free());
    replay_against_model(
        rng, space, store, kEpoch + util::seconds(seed),
        [&](std::size_t) -> std::optional<std::uint32_t> {
          return static_cast<std::uint32_t>(rng.below(space.size()));
        });
  }
}

/// The cells of a sweep in send order, by stepping its machines: machine
/// m holds targets [m * share, (m + 1) * share) with share = ceil(targets
/// / machines), walks them address-major, port-minor, and each round
/// every machine with probes left sends one, in machine order.
std::vector<std::uint32_t> round_robin_cells(std::size_t targets,
                                             std::size_t columns,
                                             std::size_t machines) {
  std::vector<std::vector<std::uint32_t>> shares(machines);
  const std::size_t share = (targets + machines - 1) / machines;
  for (std::size_t t = 0; t < targets; ++t) {
    for (std::size_t c = 0; c < columns; ++c) {
      shares[t / share].push_back(static_cast<std::uint32_t>(t * columns + c));
    }
  }
  std::vector<std::uint32_t> cells;
  for (std::size_t round = 0;; ++round) {
    const std::size_t before = cells.size();
    for (const std::vector<std::uint32_t>& queue : shares) {
      if (round < queue.size()) cells.push_back(queue[round]);
    }
    if (cells.size() == before) return cells;
  }
}

void expect_order_matches(std::size_t targets, std::size_t columns,
                          std::size_t machines) {
  SCOPED_TRACE(testing::Message() << targets << " targets x " << columns
                                  << " columns, " << machines << " machines");
  const SweepOrder order(targets, columns, machines);
  const std::vector<std::uint32_t> cells =
      round_robin_cells(targets, columns, machines);
  ASSERT_EQ(order.size(), cells.size());
  std::size_t first = 0;
  const std::size_t share = targets == 0 ? 0 : (targets + machines - 1) /
                                                   machines * columns;
  for (std::size_t m = 0; m < machines; ++m) {
    const std::size_t probes = order.probes(m);
    if (probes > 0) {
      EXPECT_EQ(order.first_cell(m), first) << "machine " << m;
    }
    EXPECT_LE(probes, share) << "machine " << m;
    first += probes;
  }
  EXPECT_EQ(first, cells.size());
  EXPECT_EQ(order.probes(machines), 0u);
  for (std::uint32_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(order.cell(i), cells[i]) << "position " << i;
    EXPECT_EQ(order.position(cells[i]), i) << "cell " << cells[i];
  }
}

TEST(SweepOrder, MatchesRoundRobinModel) {
  // Every small shape: empty grids, more machines than targets, target
  // counts the machine count does not divide, a short last share.
  for (std::size_t targets = 0; targets <= 13; ++targets) {
    for (std::size_t columns = 0; columns <= 4; ++columns) {
      for (std::size_t machines = 1; machines <= 6; ++machines) {
        expect_order_matches(targets, columns, machines);
      }
    }
  }
  // Then larger random ones.
  util::Rng rng(2024);
  for (int n = 0; n < 200; ++n) {
    expect_order_matches(rng.below(3000), 1 + rng.below(12),
                         1 + rng.below(9));
  }
}

TEST(ScanOutcomes, IndexFreeMatchesVectorModel) {
  // A sweep's store over random shares and columns: sends take the cells
  // of the sweep order, one after the other, until the grid is done.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    util::Rng rng(seed);
    Space space(rng);
    space.space->hint_count = 0;  // a sweep has no hints
    const std::size_t targets = space.space->targets->size();
    const SweepOrder order(targets, space.space->columns(),
                           1 + rng.below(targets + 2));
    const ScanOutcomes store(space.space, order);
    EXPECT_TRUE(store.index_free());
    replay_against_model(
        rng, space, store, kEpoch + util::seconds(seed),
        [&](std::size_t n) -> std::optional<std::uint32_t> {
          if (n == order.size()) return std::nullopt;
          return order.cell(static_cast<std::uint32_t>(n));
        });
  }
}

TEST(ScanOutcomes, HandBuiltRecordKeepsEveryTimeExactly) {
  // Several blocks; times jump backwards (before the block's base), far
  // forwards, and repeat keys.
  util::Rng rng(99);
  std::vector<ProbeOutcome> want;
  util::TimePoint t = kEpoch + util::hours(5);
  for (std::size_t i = 0; i < 3 * ScanOutcomes::kBlock + 17; ++i) {
    const std::uint64_t jump = rng.below(10);
    if (jump == 0) {
      t = t - util::seconds(1 + rng.below(100));
    } else if (jump == 1) {
      t = t + util::usec(ScanOutcomes::kExact + rng.below(1000));
    } else {
      t = t + util::msec(rng.below(500));
    }
    want.push_back({.addr = Ipv4::from_octets(
                        128, 125, 0, static_cast<std::uint8_t>(rng.below(4))),
                    .proto = rng.chance(0.5) ? net::Proto::kTcp
                                             : net::Proto::kUdp,
                    .status = random_status(rng),
                    .port = static_cast<net::Port>(rng.below(3)),
                    .when = t});
  }
  ScanRecord record;
  record.outcomes.assign(want);
  expect_matches(record.outcomes, want);
  const ScanRecord copy = record;
  expect_matches(copy.outcomes, want);

  record.outcomes = {{Ipv4::from_octets(10, 0, 0, 1), net::Proto::kUdp,
                      ProbeStatus::kOpenUdp, 53, kEpoch}};
  ASSERT_EQ(record.outcomes.size(), 1u);
  EXPECT_EQ(record.outcomes[0].port, 53);
  EXPECT_EQ(copy.outcomes.size(), want.size());
}

// A real scan: 300 probes at one every 5 s span each 256-outcome block
// far past the 29-bit offset, so most sends take the exact path.
TEST(ScanOutcomes, SlowScanKeepsExactSendTimes) {
  sim::Simulator sim;
  sim::Network network(sim, {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16),
                             Prefix(Ipv4::from_octets(10, 1, 0, 0), 24)});
  Prober prober(network, {{Ipv4::from_octets(10, 1, 0, 1)}});
  ScanSpec spec;
  for (std::uint8_t octet = 1; octet <= 150; ++octet) {
    spec.targets.push_back(Ipv4::from_octets(128, 125, 7, octet));
  }
  spec.tcp_ports = {80};
  spec.udp_ports = {53};
  spec.probes_per_sec = 0.2;
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 300u);
  for (std::size_t i = 0; i < 300; ++i) {
    const ProbeOutcome o = record->outcomes[i];
    EXPECT_EQ(o.when, kEpoch + util::seconds(5 * i)) << i;
    EXPECT_EQ(o.addr, spec.targets[i / 2]) << i;
    EXPECT_EQ(o.status, i % 2 == 0 ? ProbeStatus::kFiltered
                                   : ProbeStatus::kNoHost)
        << i;
  }
}

TEST(ScanOutcomes, ScansWithEqualTargetsShareOneTargetList) {
  sim::Simulator sim;
  sim::Network network(sim, {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16),
                             Prefix(Ipv4::from_octets(10, 1, 0, 0), 24)});
  Prober prober(network, {{Ipv4::from_octets(10, 1, 0, 1)}});
  ScanSpec spec;
  spec.targets = {Ipv4::from_octets(128, 125, 7, 1),
                  Ipv4::from_octets(128, 125, 7, 2)};
  spec.tcp_ports = {80, 22};
  spec.probes_per_sec = 100.0;
  prober.start_scan(spec);
  sim.run();
  prober.start_scan(spec);
  sim.run();
  spec.targets.pop_back();
  prober.start_scan(spec);
  sim.run();
  const auto& scans = prober.scans();
  ASSERT_EQ(scans.size(), 3u);
  const auto targets = [&](std::size_t s) {
    return scans[s].outcomes.space()->targets.get();
  };
  EXPECT_EQ(targets(0), targets(1));
  EXPECT_NE(targets(1), targets(2));
  EXPECT_EQ(scans[2].outcomes.size(), 2u);
  EXPECT_EQ(scans[1].outcomes[3].key(),
            (passive::ServiceKey{Ipv4::from_octets(128, 125, 7, 2),
                                 net::Proto::kTcp, 22}));
}

}  // namespace
}  // namespace svcdisc::active
