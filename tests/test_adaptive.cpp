// Budgeted adaptive prober (DESIGN.md §16): learned priors, budget
// draining, LZR-style SYN-ACK verification, passive seeding, and the
// campaign-level contracts — middlebox deflation and budget efficiency
// (`ctest -L adaptive`). The adaptive_budget scenario pack pins the
// campaign's scan artifacts byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "active/priors.h"
#include "active/prober.h"
#include "active/score_queue.h"
#include "core/engine.h"
#include "core/scenario.h"
#include "host/host.h"
#include "net/packet.h"
#include "passive/service_table.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "workload/campus.h"

namespace svcdisc::active {
namespace {

using host::Host;
using host::LifecycleConfig;
using host::LifecycleKind;
using host::Service;
using host::SynPolicy;
using net::Ipv4;
using net::Prefix;
using net::Proto;

// ------------------------------------------------------------ ScanPriors --

TEST(ScanPriors, UntrainedScoresAreTheLaplacePrior) {
  ScanPriors priors;
  const Ipv4 addr = Ipv4::from_octets(128, 125, 1, 1);
  EXPECT_DOUBLE_EQ(priors.port_popularity(80, Proto::kTcp), 0.5);
  EXPECT_DOUBLE_EQ(priors.subnet_affinity(addr, 80, Proto::kTcp), 0.5);
  EXPECT_DOUBLE_EQ(priors.conditional(addr, 80, Proto::kTcp), 0.0);
  EXPECT_DOUBLE_EQ(priors.score(addr, 80, Proto::kTcp), 0.5);
  EXPECT_DOUBLE_EQ(priors.entropy(), 0.0);
}

TEST(ScanPriors, PortPopularityTracksOutcomes) {
  ScanPriors priors;
  for (int i = 0; i < 20; ++i) {
    const Ipv4 addr = Ipv4::from_octets(128, 125, 1,
                                        static_cast<std::uint8_t>(i + 1));
    priors.record(addr, 80, Proto::kTcp, /*open=*/true);
    priors.record(addr, 23, Proto::kTcp, /*open=*/false);
  }
  EXPECT_GT(priors.port_popularity(80, Proto::kTcp), 0.9);
  EXPECT_LT(priors.port_popularity(23, Proto::kTcp), 0.1);
  EXPECT_EQ(priors.probes_recorded(), 40u);
  EXPECT_EQ(priors.opens_recorded(), 20u);
}

TEST(ScanPriors, SubnetAffinityShrinksTowardGlobalPopularity) {
  ScanPriors priors(/*subnet_shrinkage=*/8.0);
  // Port 80 opens half the time globally: hot /24 (all open), cold /24
  // (all closed), and a third subnet never probed at all.
  for (int i = 0; i < 16; ++i) {
    priors.record(Ipv4::from_octets(128, 125, 1,
                                    static_cast<std::uint8_t>(i + 1)),
                  80, Proto::kTcp, true);
    priors.record(Ipv4::from_octets(128, 125, 2,
                                    static_cast<std::uint8_t>(i + 1)),
                  80, Proto::kTcp, false);
  }
  const double global = priors.port_popularity(80, Proto::kTcp);
  const double hot =
      priors.subnet_affinity(Ipv4::from_octets(128, 125, 1, 99), 80,
                             Proto::kTcp);
  const double cold =
      priors.subnet_affinity(Ipv4::from_octets(128, 125, 2, 99), 80,
                             Proto::kTcp);
  const double fresh =
      priors.subnet_affinity(Ipv4::from_octets(128, 125, 3, 99), 80,
                             Proto::kTcp);
  EXPECT_GT(hot, global);
  EXPECT_LT(cold, global);
  // An unprobed subnet scores exactly the global prior: exploration.
  EXPECT_DOUBLE_EQ(fresh, global);
}

TEST(ScanPriors, CrossPortConditionalLiftsCoResidentServices) {
  ScanPriors priors;
  // Hosts running SSH overwhelmingly also run HTTP.
  for (int i = 0; i < 12; ++i) {
    const Ipv4 addr = Ipv4::from_octets(128, 125, 4,
                                        static_cast<std::uint8_t>(i + 1));
    priors.record(addr, 22, Proto::kTcp, true);
    priors.record(addr, 80, Proto::kTcp, true);
  }
  const Ipv4 ssh_host = Ipv4::from_octets(128, 125, 4, 1);
  const Ipv4 unknown = Ipv4::from_octets(128, 125, 9, 1);
  EXPECT_GT(priors.conditional(ssh_host, 80, Proto::kTcp), 0.9);
  EXPECT_DOUBLE_EQ(priors.conditional(unknown, 80, Proto::kTcp), 0.0);
  EXPECT_GT(priors.score(ssh_host, 80, Proto::kTcp),
            priors.score(unknown, 80, Proto::kTcp));
}

TEST(ScanPriors, EntropyMeasuresOpenPortConcentration) {
  ScanPriors one;
  ScanPriors two;
  for (int i = 0; i < 10; ++i) {
    const Ipv4 addr = Ipv4::from_octets(128, 125, 5,
                                        static_cast<std::uint8_t>(i + 1));
    one.record(addr, 80, Proto::kTcp, true);
    two.record(addr, 80, Proto::kTcp, true);
    two.record(addr, 22, Proto::kTcp, true);
  }
  EXPECT_DOUBLE_EQ(one.entropy(), 0.0);  // all mass on one port
  EXPECT_NEAR(two.entropy(), std::log(2.0), 1e-9);
}

TEST(ScanPriors, RejectsNegativeOrNonFiniteShrinkage) {
  // A negative pseudo-count can zero (probed + shrinkage) and turn a
  // score into inf or NaN, which no score order can rank.
  EXPECT_THROW(ScanPriors(-1.0), std::invalid_argument);
  EXPECT_THROW(ScanPriors(-0.5), std::invalid_argument);
  EXPECT_THROW(ScanPriors(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(ScanPriors(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_NO_THROW(ScanPriors(0.0));
  EXPECT_NO_THROW(ScanPriors(8.0));

  // Zero shrinkage is the raw subnet rate: still finite once probed.
  ScanPriors raw(0.0);
  const Ipv4 addr = Ipv4::from_octets(128, 125, 1, 1);
  raw.record(addr, 80, Proto::kTcp, /*open=*/false);
  EXPECT_DOUBLE_EQ(raw.subnet_affinity(addr, 80, Proto::kTcp), 0.0);
}

// ------------------------------------------------------------ ScoreQueue --

// The flat heap ScoreQueue replaced, kept as its reference model: a
// max-heap of (score, index), higher score first and lower index on
// ties, drained by the same lazy-rescore loop.
class FlatHeapModel {
 public:
  void push(double score, std::uint32_t index) { heap_.push({score, index}); }

  template <typename Rescore>
  std::optional<std::uint32_t> pop_best(Rescore&& rescore) {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      heap_.pop();
      const double fresh = rescore(top.index);
      if (!heap_.empty() && fresh < top.score && fresh < heap_.top().score) {
        heap_.push({fresh, top.index});
        ++repushes_;
        continue;
      }
      return top.index;
    }
    return std::nullopt;
  }

  std::uint64_t repushes() const { return repushes_; }

 private:
  struct Entry {
    double score{0.0};
    std::uint32_t index{0};
  };
  struct Less {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.score != b.score) return a.score < b.score;
      return a.index > b.index;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Less> heap_;
  std::uint64_t repushes_{0};
};

TEST(ScoreQueue, MatchesFlatHeapModelOnRandomDrains) {
  // Scores come from a small set of levels, so exact ties are common;
  // between pops, "outcomes" move some fresh scores down, up or leave
  // them; late pushes interleave with the pops until both drain.
  std::uint64_t total_repushes = 0;
  std::size_t widest = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    util::Rng rng(seed);
    const std::uint64_t levels = seed % 8 == 0 ? 1 : 1 + rng.below(400);
    const auto n = static_cast<std::uint32_t>(1 + rng.below(2500));
    std::vector<std::uint64_t> level(n, 0);  // fresh score, as a level
    const auto score = [&](std::uint32_t i) {
      return static_cast<double>(level[i]) / static_cast<double>(levels);
    };

    ScoreQueue queue;
    FlatHeapModel model;
    std::uint32_t queued = 0;
    const auto push_next = [&] {
      level[queued] = rng.below(levels);
      queue.push(score(queued), queued);
      model.push(score(queued), queued);
      ++queued;
    };
    const auto initial = static_cast<std::uint32_t>(1 + rng.below(n));
    while (queued < initial) push_next();

    std::vector<char> popped(n, 0);
    while (true) {
      if (queued < n && rng.chance(0.2)) push_next();
      widest = std::max(widest, queue.bucket_count());
      const std::optional<std::uint32_t> want = model.pop_best(score);
      const std::optional<std::uint32_t> got = queue.pop_best(score);
      ASSERT_EQ(got, want) << "seed " << seed;
      if (!want) {
        if (queued < n) continue;
        break;
      }
      ASSERT_FALSE(popped[*want]) << "seed " << seed;
      popped[*want] = 1;
      for (std::uint64_t k = rng.below(8); k > 0; --k) {
        std::uint64_t& l = level[rng.below(queued)];
        switch (rng.below(3)) {
          case 0:  // falls, often to the bottom level
            l = rng.chance(0.5) ? l / 2 : (l > 0 ? l - 1 : 0);
            break;
          case 1:  // rises
            l = std::min(levels - 1, l + 1 + rng.below(3));
            break;
          default:  // stays
            break;
        }
      }
    }
    EXPECT_EQ(queue.repushes(), model.repushes()) << "seed " << seed;
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.bucket_count(), 0u);
    total_repushes += model.repushes();
  }
  EXPECT_GT(total_repushes, 1000u);
  EXPECT_GE(widest, 100u);
}

TEST(ScoreQueue, SignedZerosShareOneBucket) {
  ScoreQueue queue;
  queue.push(0.0, 3);
  queue.push(-0.0, 1);
  queue.push(0.5, 2);
  EXPECT_EQ(queue.bucket_count(), 2u);
  const auto stored = [](std::uint32_t i) { return i == 2 ? 0.5 : 0.0; };
  EXPECT_EQ(queue.pop_best(stored), 2u);
  EXPECT_EQ(queue.pop_best(stored), 1u);
  EXPECT_EQ(queue.pop_best(stored), 3u);
  EXPECT_EQ(queue.pop_best(stored), std::nullopt);
  EXPECT_EQ(queue.repushes(), 0u);
}

// ----------------------------------------------------------- adaptive mode --

struct World {
  World()
      : network(sim, {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16),
                      Prefix(Ipv4::from_octets(10, 1, 0, 0), 24)}) {}

  Host& add_host(Ipv4 addr) {
    const host::HostId id = next_id++;
    hosts.push_back(std::make_unique<Host>(
        id, network, nullptr, addr,
        LifecycleConfig{LifecycleKind::kAlwaysOn, {}, {}, false},
        util::Rng(id)));
    hosts.back()->start();
    return *hosts.back();
  }

  sim::Simulator sim;
  sim::Network network;
  std::vector<std::unique_ptr<Host>> hosts;
  host::HostId next_id{1};
  const Ipv4 prober_addr = Ipv4::from_octets(10, 1, 0, 1);
};

Service tcp(net::Port port) {
  Service s;
  s.proto = Proto::kTcp;
  s.port = port;
  return s;
}

ScanSpec small_spec(std::vector<Ipv4> targets) {
  ScanSpec spec;
  spec.targets = std::move(targets);
  spec.tcp_ports = {80, 22};
  spec.probes_per_sec = 100.0;
  return spec;
}

net::Packet tcp_reply(const World& w, Ipv4 from, net::Port sport,
                      net::TcpFlags flags) {
  net::Packet p = net::make_tcp(from, sport, w.prober_addr, 40000, flags);
  p.time = w.sim.now();
  return p;
}

const ProbeOutcome* find_outcome(const ScanRecord& record, Ipv4 addr,
                                 net::Port port) {
  for (const ProbeOutcome& o : record.outcomes) {
    if (o.key.addr == addr && o.key.port == port) return &o;
  }
  return nullptr;
}

/// The four-host world of the sweep-equivalence tests: 1.1 serves 80,
/// 1.2 serves 22, 1.3 closes everything, 1.4 has no host.
const std::vector<Ipv4> kFourTargets = {
    Ipv4::from_octets(128, 125, 1, 1), Ipv4::from_octets(128, 125, 1, 2),
    Ipv4::from_octets(128, 125, 1, 3), Ipv4::from_octets(128, 125, 1, 4)};

/// Runs one scan of kFourTargets x {80, 22} on a fresh four-host world.
/// The whole grid goes out before the first answer arrives (10 us
/// spacing, 2 ms round trip), so priors that start untrained stay
/// untrained while the adaptive mode picks its order.
ScanRecord scan_four_hosts(std::size_t machines,
                           std::optional<AdaptiveConfig> adaptive) {
  World w;
  w.add_host(kFourTargets[0]).add_service(tcp(80));
  w.add_host(kFourTargets[1]).add_service(tcp(22));
  w.add_host(kFourTargets[2]);
  ProberConfig config{{w.prober_addr}};
  if (machines == 2) {
    config.source_addrs.push_back(Ipv4::from_octets(10, 1, 0, 2));
  }
  Prober prober(w.network, config, adaptive);
  ScanSpec spec = small_spec(kFourTargets);
  spec.probes_per_sec = 100000.0;
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  w.sim.run();
  EXPECT_TRUE(record.has_value());
  return record.value_or(ScanRecord{});
}

/// "addr:port" of every outcome, in order.
std::vector<std::string> probe_order(const ScanRecord& record) {
  std::vector<std::string> order;
  for (const ProbeOutcome& o : record.outcomes) {
    order.push_back(o.key.addr.to_string() + ":" + std::to_string(o.key.port));
  }
  return order;
}

TEST(AdaptiveProber, UntrainedUnlimitedBudgetMatchesFixedSweep) {
  // With untrained priors, no budget, nothing seeded and no verification
  // (which would move an open outcome's time to the data reply), the
  // queue's index tie-break is the sweep order: the same outcomes, key,
  // status and time, one by one.
  AdaptiveConfig config;
  config.verify = false;
  const ScanRecord fixed = scan_four_hosts(1, std::nullopt);
  const ScanRecord adaptive = scan_four_hosts(1, config);
  ASSERT_EQ(fixed.outcomes.size(), 8u);
  ASSERT_EQ(adaptive.outcomes.size(), fixed.outcomes.size());
  for (std::size_t i = 0; i < fixed.outcomes.size(); ++i) {
    EXPECT_EQ(adaptive.outcomes[i].key, fixed.outcomes[i].key) << i;
    EXPECT_EQ(adaptive.outcomes[i].status, fixed.outcomes[i].status) << i;
    EXPECT_EQ(adaptive.outcomes[i].when, fixed.outcomes[i].when) << i;
  }
  EXPECT_EQ(fixed.count(ProbeStatus::kOpen), 2u);
  EXPECT_EQ(fixed.count(ProbeStatus::kClosed), 4u);
  EXPECT_EQ(fixed.count(ProbeStatus::kFiltered), 2u);
}

TEST(AdaptiveMode, TwoMachinesShareOneQueueWhereTheSweepSplitsTargets) {
  // The modes differ only in the port phase's send order. The sweep gives
  // each machine a contiguous share of the targets (1.1-1.2 and 1.3-1.4),
  // which probe side by side; the adaptive machines pop one queue, so
  // together they walk the sweep order.
  AdaptiveConfig config;
  config.verify = false;
  const ScanRecord fixed = scan_four_hosts(2, std::nullopt);
  const ScanRecord adaptive = scan_four_hosts(2, config);
  const std::vector<std::string> shares = {
      "128.125.1.1:80", "128.125.1.3:80", "128.125.1.1:22", "128.125.1.3:22",
      "128.125.1.2:80", "128.125.1.4:80", "128.125.1.2:22", "128.125.1.4:22"};
  const std::vector<std::string> queue = {
      "128.125.1.1:80", "128.125.1.1:22", "128.125.1.2:80", "128.125.1.2:22",
      "128.125.1.3:80", "128.125.1.3:22", "128.125.1.4:80", "128.125.1.4:22"};
  EXPECT_EQ(probe_order(fixed), shares);
  EXPECT_EQ(probe_order(adaptive), queue);
  // Same probes, same verdicts.
  for (const ProbeOutcome& o : adaptive.outcomes) {
    const auto it = std::find_if(
        fixed.outcomes.begin(), fixed.outcomes.end(),
        [&](const ProbeOutcome& f) { return f.key == o.key; });
    ASSERT_NE(it, fixed.outcomes.end());
    EXPECT_EQ(o.status, it->status);
  }
}

TEST(AdaptiveMode, PingPrePassRanksOnlyResponders) {
  // 1.1 answers the ping and nothing else: no services, silent closed UDP
  // ports. 1.2 drops pings but answers UDP 137; 1.3 has no host. Hints
  // on both hosts: only the responder's is probed, and the responder's
  // silent UDP ports are "possibly open" on the strength of the ping.
  World w;
  const Ipv4 up = Ipv4::from_octets(128, 125, 1, 1);
  const Ipv4 hidden = Ipv4::from_octets(128, 125, 1, 2);
  w.add_host(up).set_udp_icmp(false);
  Host& ping_silent = w.add_host(hidden);
  ping_silent.set_icmp_echo(false);
  Service netbios;
  netbios.proto = Proto::kUdp;
  netbios.port = 137;
  netbios.udp_replies_to_generic_probe = true;
  ping_silent.add_service(netbios);
  ping_silent.add_service(tcp(80));

  Prober prober(w.network, {{w.prober_addr}}, AdaptiveConfig{});
  util::MetricsRegistry registry;
  prober.attach_metrics(registry, "active");
  prober.note_passive({hidden, Proto::kTcp, 80});
  prober.note_passive({up, Proto::kUdp, 161});
  ScanSpec spec = small_spec({up, hidden, Ipv4::from_octets(128, 125, 1, 3)});
  spec.tcp_ports = {};
  spec.udp_ports = {137};
  spec.host_discovery = true;
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  w.sim.run();

  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->hosts_pinged, 3u);
  EXPECT_EQ(record->hosts_alive, 1u);
  // The responder's hint first, then its grid cell.
  ASSERT_EQ(record->outcomes.size(), 2u);
  for (const ProbeOutcome& o : record->outcomes) {
    EXPECT_EQ(o.key.addr, up) << "probed " << o.key.addr.to_string();
    EXPECT_EQ(o.status, ProbeStatus::kMaybeOpen);
  }
  EXPECT_EQ(record->outcomes[0].key.port, 161);
  EXPECT_EQ(record->outcomes[1].key.port, 137);
  const util::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value_of("active.pings_sent"), 3.0);
  EXPECT_EQ(snap.value_of("active.probes_tcp_sent"), 0.0);
  EXPECT_EQ(snap.value_of("active.probes_udp_sent"), 2.0);
  EXPECT_EQ(prober.seeds_probed_total(), 1u);
  EXPECT_EQ(prober.table().size(), 0u);
}

TEST(AdaptiveProber, BudgetCapsFirstStageProbes) {
  World w;
  w.add_host(Ipv4::from_octets(128, 125, 1, 1)).add_service(tcp(80));
  AdaptiveConfig cfg;
  cfg.probe_budget = 4;  // grid is 3 addresses x 2 ports = 6
  Prober prober(w.network, {{w.prober_addr}}, cfg);
  std::optional<ScanRecord> record;
  prober.start_scan(small_spec({Ipv4::from_octets(128, 125, 1, 1),
                                Ipv4::from_octets(128, 125, 1, 2),
                                Ipv4::from_octets(128, 125, 1, 3)}),
                    [&](const ScanRecord& r) { record = r; });
  w.sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->outcomes.size(), 4u);
  EXPECT_EQ(prober.budget_spent_total(), 4u);
  // Verification data probes ride for free: the budget counts only
  // first-stage probes, yet the open service still verified.
  EXPECT_EQ(prober.verify_confirmed_total(), 1u);
  EXPECT_EQ(prober.table().size(), 1u);
}

TEST(AdaptiveProber, VerificationDemotesSynAckEverythingHosts) {
  World w;
  Host& middlebox = w.add_host(Ipv4::from_octets(128, 125, 1, 1));
  middlebox.set_syn_policy(SynPolicy::kSynAckAll);  // no real services
  w.add_host(Ipv4::from_octets(128, 125, 1, 2)).add_service(tcp(80));

  Prober prober(w.network, {{w.prober_addr}}, AdaptiveConfig{});
  std::optional<ScanRecord> record;
  prober.start_scan(small_spec({Ipv4::from_octets(128, 125, 1, 1),
                                Ipv4::from_octets(128, 125, 1, 2)}),
                    [&](const ScanRecord& r) { record = r; });
  w.sim.run();
  ASSERT_TRUE(record.has_value());
  // The middlebox SYN-ACKed both ports but never speaks past the
  // handshake: demoted, never a discovery. The real service answered the
  // data probe and confirmed.
  EXPECT_EQ(record->count(ProbeStatus::kUnverified), 2u);
  EXPECT_EQ(record->count(ProbeStatus::kOpen), 1u);
  EXPECT_EQ(record->count(ProbeStatus::kClosed), 1u);  // 1.2:22 RST
  EXPECT_EQ(prober.demotions_total(), 2u);
  EXPECT_EQ(prober.verify_confirmed_total(), 1u);
  ASSERT_EQ(prober.table().size(), 1u);
  const auto open = record->open_services();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].addr, Ipv4::from_octets(128, 125, 1, 2));
}

TEST(AdaptiveProber, NoVerifyModeCountsSynAcksLikeTheFixedSweep) {
  World w;
  Host& middlebox = w.add_host(Ipv4::from_octets(128, 125, 1, 1));
  middlebox.set_syn_policy(SynPolicy::kSynAckAll);
  AdaptiveConfig cfg;
  cfg.verify = false;
  Prober prober(w.network, {{w.prober_addr}}, cfg);
  std::optional<ScanRecord> record;
  prober.start_scan(small_spec({Ipv4::from_octets(128, 125, 1, 1)}),
                    [&](const ScanRecord& r) { record = r; });
  w.sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->count(ProbeStatus::kOpen), 2u);  // phantom services
  EXPECT_EQ(prober.demotions_total(), 0u);
  EXPECT_EQ(prober.table().size(), 2u);
}

TEST(AdaptiveProber, PassiveSeedsOutrankTheGridAndExtendThePortSpace) {
  World w;
  // The seeded service listens on a port the scan's own list never
  // probes (LZR: services on unexpected ports).
  w.add_host(Ipv4::from_octets(128, 125, 1, 9)).add_service(tcp(8080));
  for (int i = 1; i <= 4; ++i) {
    w.add_host(Ipv4::from_octets(128, 125, 1, static_cast<std::uint8_t>(i)));
  }
  AdaptiveConfig cfg;
  cfg.probe_budget = 1;
  Prober prober(w.network, {{w.prober_addr}}, cfg);
  prober.note_passive({Ipv4::from_octets(128, 125, 1, 9), Proto::kTcp, 8080});
  EXPECT_EQ(prober.hint_count(), 1u);

  std::optional<ScanRecord> record;
  prober.start_scan(small_spec({Ipv4::from_octets(128, 125, 1, 1),
                                Ipv4::from_octets(128, 125, 1, 2),
                                Ipv4::from_octets(128, 125, 1, 3),
                                Ipv4::from_octets(128, 125, 1, 4)}),
                    [&](const ScanRecord& r) { record = r; });
  w.sim.run();
  ASSERT_TRUE(record.has_value());
  // The single budgeted probe went to the seed, not the grid.
  ASSERT_EQ(record->outcomes.size(), 1u);
  EXPECT_EQ(record->outcomes[0].key.port, 8080);
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kOpen);
  EXPECT_EQ(prober.seeds_probed_total(), 1u);
  EXPECT_EQ(prober.table().size(), 1u);
}

TEST(AdaptiveProber, OutcomesTrainThePriorsOnline) {
  World w;
  for (int i = 1; i <= 4; ++i) {
    w.add_host(Ipv4::from_octets(128, 125, 1, static_cast<std::uint8_t>(i)))
        .add_service(tcp(80));
  }
  Prober prober(w.network, {{w.prober_addr}}, AdaptiveConfig{});
  std::optional<ScanRecord> record;
  prober.start_scan(small_spec({Ipv4::from_octets(128, 125, 1, 1),
                                Ipv4::from_octets(128, 125, 1, 2),
                                Ipv4::from_octets(128, 125, 1, 3),
                                Ipv4::from_octets(128, 125, 1, 4)}),
                    [&](const ScanRecord& r) { record = r; });
  w.sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(prober.priors().probes_recorded(), 8u);
  EXPECT_EQ(prober.priors().opens_recorded(), 4u);
  // Port 80 always opened, port 22 never did: the learned ranking.
  EXPECT_GT(prober.priors().port_popularity(80, Proto::kTcp),
            prober.priors().port_popularity(22, Proto::kTcp));
}

// ------------------------------------------------------- pending cells --
//
// Replies find their probe's cell through the scan's grid, or a queued
// hint's own cell off the grid. These tests inject replies straight into
// on_packet at chosen moments of a scan.

TEST(AdaptivePending, DuplicateSynAckAfterVerificationStartsIsIgnored) {
  World w;
  const Ipv4 box = Ipv4::from_octets(128, 125, 1, 1);
  const Ipv4 web = Ipv4::from_octets(128, 125, 1, 2);
  w.add_host(box).set_syn_policy(SynPolicy::kSynAckAll);
  w.add_host(web).add_service(tcp(80));
  Prober prober(w.network, {{w.prober_addr}}, AdaptiveConfig{});
  std::optional<ScanRecord> record;
  prober.start_scan(small_spec({box, web}),
                    [&](const ScanRecord& r) { record = r; });
  w.sim.run_until(util::TimePoint{} + util::msec(500));
  // Every first-stage probe is out: box:80, box:22 and web:80 SYN-ACKed,
  // so three verifications have started and web:80 already confirmed.
  ASSERT_FALSE(record.has_value());
  ASSERT_EQ(prober.verify_sent_total(), 3u);
  ASSERT_EQ(prober.verify_confirmed_total(), 1u);

  for (const Ipv4 from : {box, web}) {
    prober.on_packet(tcp_reply(w, from, 80, net::flags_syn_ack()));
  }
  prober.on_packet(tcp_reply(w, box, 22, net::flags_syn_ack()));
  EXPECT_EQ(prober.verify_sent_total(), 3u);
  w.sim.run();

  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->outcomes.size(), 4u);
  EXPECT_EQ(record->count(ProbeStatus::kUnverified), 2u);
  EXPECT_EQ(record->count(ProbeStatus::kOpen), 1u);
  EXPECT_EQ(prober.verify_sent_total(), 3u);
  EXPECT_EQ(prober.verify_confirmed_total(), 1u);
  EXPECT_EQ(prober.demotions_total(), 2u);
  EXPECT_EQ(prober.table().size(), 1u);
}

TEST(AdaptivePending, DuplicateReplyToASettledProbeIsIgnored) {
  World w;
  const Ipv4 web = Ipv4::from_octets(128, 125, 1, 1);
  w.add_host(web).add_service(tcp(80));
  Prober prober(w.network, {{w.prober_addr}}, AdaptiveConfig{});
  std::optional<ScanRecord> record;
  prober.start_scan(small_spec({web}),
                    [&](const ScanRecord& r) { record = r; });
  w.sim.run_until(util::TimePoint{} + util::msec(500));
  // web:80 verified open, web:22 answered RST: both settled.
  ASSERT_EQ(prober.priors().probes_recorded(), 2u);

  prober.on_packet(tcp_reply(w, web, 22, net::flags_rst()));
  prober.on_packet(tcp_reply(w, web, 22, net::flags_rst()));
  EXPECT_EQ(prober.priors().probes_recorded(), 2u);
  w.sim.run();

  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->count(ProbeStatus::kClosed), 1u);
  EXPECT_EQ(record->count(ProbeStatus::kOpen), 1u);
  EXPECT_EQ(prober.priors().probes_recorded(), 2u);
}

TEST(AdaptivePending, ReplyForCandidateNotYetProbedSettlesNothing) {
  World w;
  const Ipv4 web = Ipv4::from_octets(128, 125, 1, 1);
  const Ipv4 dark = Ipv4::from_octets(128, 125, 1, 5);  // no host
  w.add_host(web).add_service(tcp(80));
  Prober prober(w.network, {{w.prober_addr}}, AdaptiveConfig{});
  ScanSpec spec = small_spec({web, dark});
  spec.tcp_ports = {80};
  spec.probes_per_sec = 1.0;  // web:80 at 0 s, dark:80 at 1 s
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  w.sim.run_until(util::TimePoint{} + util::msec(500));
  ASSERT_EQ(prober.budget_spent_total(), 1u);
  const std::uint64_t verifies = prober.verify_sent_total();

  prober.on_packet(tcp_reply(w, dark, 80, net::flags_rst()));
  prober.on_packet(tcp_reply(w, dark, 80, net::flags_syn_ack()));
  EXPECT_EQ(prober.verify_sent_total(), verifies);
  w.sim.run();

  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 2u);
  const ProbeOutcome* late = find_outcome(*record, dark, 80);
  ASSERT_NE(late, nullptr);
  // Probed after the stray replies and never answered: filtered.
  EXPECT_EQ(late->status, ProbeStatus::kFiltered);
  EXPECT_EQ(record->count(ProbeStatus::kClosed), 0u);
  EXPECT_EQ(prober.table().size(), 1u);
}

TEST(AdaptivePending, ReplyFromKeyThatIsNotACandidateIsIgnored) {
  World w;
  const Ipv4 web = Ipv4::from_octets(128, 125, 1, 1);
  const Ipv4 other = Ipv4::from_octets(128, 125, 1, 7);  // not a target
  w.add_host(web).add_service(tcp(80));
  Prober prober(w.network, {{w.prober_addr}}, AdaptiveConfig{});
  ScanSpec spec = small_spec({web});
  spec.tcp_ports = {80};
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  w.sim.run_until(util::TimePoint{} + util::msec(500));
  ASSERT_EQ(prober.verify_sent_total(), 1u);

  prober.on_packet(tcp_reply(w, web, 9999, net::flags_syn_ack()));
  prober.on_packet(tcp_reply(w, other, 80, net::flags_syn_ack()));
  prober.on_packet(tcp_reply(w, other, 80, net::flags_rst()));
  net::Packet udp = net::make_udp(web, 53, w.prober_addr, 40001, 12);
  udp.time = w.sim.now();
  prober.on_packet(udp);
  const net::Packet probe = net::make_udp(w.prober_addr, 40002, web, 53, 0);
  net::Packet icmp = net::make_icmp_port_unreachable(probe);
  icmp.time = w.sim.now();
  prober.on_packet(icmp);
  EXPECT_EQ(prober.verify_sent_total(), 1u);
  w.sim.run();

  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 1u);
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kOpen);
  EXPECT_EQ(prober.table().size(), 1u);
  EXPECT_EQ(prober.priors().probes_recorded(), 1u);
}

TEST(AdaptivePending, HintAddedMidScanWaitsForTheNextScan) {
  World w;
  const Ipv4 web = Ipv4::from_octets(128, 125, 1, 1);
  const Ipv4 alt = Ipv4::from_octets(128, 125, 1, 9);
  w.add_host(web).add_service(tcp(80));
  w.add_host(alt).add_service(tcp(8080));
  Prober prober(w.network, {{w.prober_addr}}, AdaptiveConfig{});
  ScanSpec spec = small_spec({web, Ipv4::from_octets(128, 125, 1, 2)});
  spec.probes_per_sec = 1.0;
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  w.sim.run_until(util::TimePoint{} + util::msec(500));

  prober.note_passive({alt, Proto::kTcp, 8080});
  EXPECT_EQ(prober.hint_count(), 1u);
  const std::uint64_t verifies = prober.verify_sent_total();
  prober.on_packet(tcp_reply(w, alt, 8080, net::flags_syn_ack()));
  EXPECT_EQ(prober.verify_sent_total(), verifies);
  w.sim.run();

  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->outcomes.size(), 4u);
  EXPECT_EQ(find_outcome(*record, alt, 8080), nullptr);
  EXPECT_EQ(prober.seeds_probed_total(), 0u);
  EXPECT_EQ(prober.table().size(), 1u);

  // The next scan seeds it first.
  record.reset();
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  w.sim.run();
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 5u);
  EXPECT_EQ(record->outcomes[0].key.addr, alt);
  EXPECT_EQ(record->outcomes[0].key.port, 8080);
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kOpen);
  EXPECT_EQ(prober.seeds_probed_total(), 1u);
  EXPECT_EQ(prober.table().size(), 2u);
}

TEST(AdaptivePending, HintOnTheGridIsProbedAndCountedOnce) {
  World w;
  const Ipv4 web = Ipv4::from_octets(128, 125, 1, 1);
  w.add_host(web).add_service(tcp(80));
  Prober prober(w.network, {{w.prober_addr}}, AdaptiveConfig{});
  util::MetricsRegistry registry;
  prober.attach_metrics(registry, "prober");
  prober.note_passive({web, Proto::kTcp, 80});
  std::optional<ScanRecord> record;
  prober.start_scan(small_spec({web, Ipv4::from_octets(128, 125, 1, 2)}),
                    [&](const ScanRecord& r) { record = r; });
  w.sim.run();

  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 4u);  // 2 targets x 2 ports
  EXPECT_EQ(record->outcomes[0].key.addr, web);
  EXPECT_EQ(record->outcomes[0].key.port, 80);
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kOpen);
  EXPECT_EQ(record->count(ProbeStatus::kOpen), 1u);
  EXPECT_EQ(prober.budget_spent_total(), 4u);
  EXPECT_EQ(prober.seeds_probed_total(), 1u);
  EXPECT_EQ(registry.counter("adaptive.passive_seeds_probed").value(), 1u);
  EXPECT_EQ(prober.verify_sent_total(), 1u);
}

// ----------------------------------------------------- campaign contracts --

std::size_t services_in_block(const passive::ServiceTable& table,
                              const workload::CampusConfig& cfg,
                              std::uint32_t offset, std::uint32_t count) {
  const Prefix campus(cfg.campus_base, 16);
  std::size_t n = 0;
  table.for_each([&](const passive::ServiceKey& key,
                     const passive::ServiceRecord&) {
    const std::uint32_t delta = key.addr.value() - campus.base().value();
    if (campus.contains(key.addr) && delta >= offset &&
        delta < offset + count) {
      ++n;
    }
  });
  return n;
}

std::vector<passive::ServiceKey> keys_outside_block(
    const passive::ServiceTable& table, const workload::CampusConfig& cfg,
    std::uint32_t offset, std::uint32_t count) {
  const Prefix campus(cfg.campus_base, 16);
  std::vector<passive::ServiceKey> keys;
  table.for_each([&](const passive::ServiceKey& key,
                     const passive::ServiceRecord&) {
    const std::uint32_t delta = key.addr.value() - campus.base().value();
    if (campus.contains(key.addr) && delta >= offset &&
        delta < offset + count) {
      return;
    }
    keys.push_back(key);
  });
  return keys;
}

core::ScenarioSpec load_middlebox_pack() {
  core::ScenarioSpec spec;
  std::string error;
  const bool ok = core::load_scenario(
      std::string(SVCDISC_SCENARIO_DIR) + "/middlebox_dpi", &spec, &error);
  EXPECT_TRUE(ok) << error;
  return spec;
}

TEST(AdaptiveCampaign, MiddleboxPackDeflatesUnderLzrVerification) {
  // The satellite contract: on the middlebox_dpi scenario pack the fixed
  // sweep inflates active counts with one phantom service per probed
  // middlebox port, while the adaptive prober's verification stage
  // demotes every one — active falls to the passive-consistent set.
  const core::ScenarioSpec spec = load_middlebox_pack();
  const std::uint32_t boxes = spec.campus.middlebox_hosts;
  ASSERT_GT(boxes, 0u);

  workload::Campus fixed_campus(spec.campus);
  core::DiscoveryEngine fixed(fixed_campus, spec.engine);
  fixed.run();

  core::EngineConfig adaptive_cfg = spec.engine;
  adaptive_cfg.adaptive_prober = true;
  workload::Campus adaptive_campus(spec.campus);
  core::DiscoveryEngine adaptive(adaptive_campus, adaptive_cfg);
  adaptive.run();
  ASSERT_TRUE(adaptive.prober().adaptive());

  const std::size_t fixed_active = services_in_block(
      fixed.prober().table(), spec.campus, workload::kMiddleboxBlockOffset,
      boxes);
  const std::size_t adaptive_active = services_in_block(
      adaptive.prober().table(), spec.campus, workload::kMiddleboxBlockOffset,
      boxes);
  const std::size_t passive_seen = services_in_block(
      adaptive.monitor().table(), spec.campus, workload::kMiddleboxBlockOffset,
      boxes);

  // Fixed: every probed port on every box fabricates a service.
  EXPECT_GE(fixed_active, static_cast<std::size_t>(boxes) * 3u);
  // Adaptive: the SYN-ACKs never pass data-exchange verification.
  EXPECT_EQ(adaptive_active, 0u);
  EXPECT_LE(adaptive_active, passive_seen);
  EXPECT_GT(adaptive.prober().demotions_total(), 0u);

  // Outside the middlebox block, verification must not cost coverage:
  // everything the fixed sweep found, the adaptive prober confirmed.
  const auto fixed_rest = keys_outside_block(
      fixed.prober().table(), spec.campus, workload::kMiddleboxBlockOffset,
      boxes);
  const auto adaptive_rest = keys_outside_block(
      adaptive.prober().table(), spec.campus, workload::kMiddleboxBlockOffset,
      boxes);
  for (const passive::ServiceKey& key : fixed_rest) {
    EXPECT_NE(std::find(adaptive_rest.begin(), adaptive_rest.end(), key),
              adaptive_rest.end())
        << "lost " << key.addr.to_string() << ":" << key.port;
  }
}

TEST(AdaptiveCampaign, HalfBudgetKeepsNinetyPercentOfFixedDiscoveries) {
  // The acceptance bar: >= 90% of the fixed sweep's discovered services
  // at <= 50% of its probe budget, on a scenario-pack campus.
  auto cfg = workload::CampusConfig::tiny();
  cfg.duration = util::days(1);
  cfg.seed = 7;
  core::EngineConfig engine_cfg;
  engine_cfg.scan_count = 2;

  workload::Campus fixed_campus(cfg);
  core::DiscoveryEngine fixed(fixed_campus, engine_cfg);
  fixed.run();
  std::uint64_t fixed_probes = 0;
  for (const ScanRecord& scan : fixed.prober().scans()) {
    fixed_probes += scan.outcomes.size();
  }
  ASSERT_GT(fixed_probes, 0u);

  core::EngineConfig adaptive_cfg = engine_cfg;
  adaptive_cfg.adaptive_prober = true;
  adaptive_cfg.adaptive.probe_budget =
      fixed_probes / (2 * engine_cfg.scan_count);  // half the per-scan sweep
  workload::Campus adaptive_campus(cfg);
  core::DiscoveryEngine adaptive(adaptive_campus, adaptive_cfg);
  adaptive.run();
  ASSERT_TRUE(adaptive.prober().adaptive());
  EXPECT_LE(adaptive.prober().budget_spent_total(),
            fixed_probes / 2);

  std::size_t covered = 0;
  std::size_t fixed_total = 0;
  fixed.prober().table().for_each([&](const passive::ServiceKey& key,
                                      const passive::ServiceRecord&) {
    ++fixed_total;
    if (adaptive.prober().table().find(key) != nullptr) ++covered;
  });
  ASSERT_GT(fixed_total, 0u);
  EXPECT_GE(static_cast<double>(covered),
            0.9 * static_cast<double>(fixed_total))
      << covered << "/" << fixed_total << " services at half budget";
}

TEST(AdaptiveCampaign, EveryScanProbesEachKeyAtMostOnce) {
  // Passive hints overlap the target x port grid; each key must still be
  // one candidate, probed at most once per scan.
  auto cfg = workload::CampusConfig::tiny();
  cfg.duration = util::days(1);
  cfg.seed = 11;
  core::EngineConfig engine_cfg;
  engine_cfg.scan_count = 2;
  engine_cfg.adaptive_prober = true;
  workload::Campus campus(cfg);
  core::DiscoveryEngine engine(campus, engine_cfg);
  engine.run();
  ASSERT_TRUE(engine.prober().adaptive());
  EXPECT_GT(engine.prober().seeds_probed_total(), 0u);

  const auto& scans = engine.prober().scans();
  ASSERT_EQ(scans.size(), 2u);
  for (const ScanRecord& scan : scans) {
    std::set<std::tuple<std::uint32_t, net::Port, Proto>> keys;
    for (const ProbeOutcome& o : scan.outcomes) {
      EXPECT_TRUE(keys.insert({o.key.addr.value(), o.key.port, o.key.proto})
                      .second)
          << "scan " << scan.index << " probed " << o.key.addr.to_string()
          << ":" << o.key.port << " twice";
      EXPECT_NE(o.status, ProbeStatus::kPending);
    }
  }
}

TEST(AdaptiveCampaign, AdaptiveBudgetScenarioPackMatchesGoldens) {
  // Byte-level pin of the whole adaptive pipeline — seeding, priors,
  // budget draining, verification, adaptive.* metrics — through the
  // same oracle `svcdisc_cli scenario verify` uses. Behavioural drift
  // shows up as a reviewable diff under
  // tests/scenarios/adaptive_budget/expected/.
  const std::string dir =
      std::string(SVCDISC_SCENARIO_DIR) + "/adaptive_budget";
  core::ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(core::load_scenario(dir, &spec, &error)) << error;
  ASSERT_TRUE(spec.engine.adaptive_prober);
  EXPECT_GT(spec.engine.adaptive.probe_budget, 0u);

  core::ScenarioArtifacts artifacts;
  ASSERT_TRUE(core::run_scenario(spec, &artifacts, &error)) << error;
  const core::VerifyReport report = core::verify_scenario(spec, artifacts);
  EXPECT_TRUE(report.ok())
      << "adaptive campaign output drifted from the goldens; if the "
         "change is intentional, re-record with `svcdisc_cli scenario "
         "record "
      << dir << " --force`\n"
      << report.to_string();
}

}  // namespace
}  // namespace svcdisc::active
