// Unit tests for passive: the service table, the monitor's detection
// rules, and the external-scan detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "net/packet.h"
#include "passive/monitor.h"
#include "passive/scan_detector.h"
#include "passive/service_table.h"
#include "util/flat_hash.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace svcdisc::passive {
namespace {

using net::Ipv4;
using net::Packet;
using net::Prefix;
using util::hours;
using util::kEpoch;
using util::minutes;

const Ipv4 kServer = Ipv4::from_octets(128, 125, 1, 1);
const Ipv4 kClient = Ipv4::from_octets(66, 1, 2, 3);
const Prefix kCampus(Ipv4::from_octets(128, 125, 0, 0), 16);

Packet at(Packet p, util::TimePoint t) {
  p.time = t;
  return p;
}

// ---------------------------------------------------------- ServiceTable --

TEST(ServiceTable, FirstDiscoveryWins) {
  ServiceTable table;
  const ServiceKey key{kServer, net::Proto::kTcp, 80};
  EXPECT_TRUE(table.discover(key, kEpoch + minutes(5)));
  EXPECT_FALSE(table.discover(key, kEpoch + minutes(1)));
  const ServiceRecord* record = table.find(key);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->first_seen, kEpoch + minutes(5));
  EXPECT_EQ(table.size(), 1u);
}

TEST(ServiceTable, FlowsAccumulateBeforeDiscovery) {
  ServiceTable table;
  const ServiceKey key{kServer, net::Proto::kTcp, 80};
  table.count_flow(key, kClient, kEpoch);
  table.count_flow(key, kClient, kEpoch + minutes(1));
  table.count_flow(key, Ipv4::from_octets(66, 9, 9, 9), kEpoch + minutes(2));
  EXPECT_FALSE(table.contains(key));
  EXPECT_EQ(table.size(), 0u);
  table.discover(key, kEpoch + minutes(3));
  const ServiceRecord* record = table.find(key);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->flows, 3u);
  EXPECT_EQ(record->clients.size(), 2u);
}

TEST(ServiceTable, LastActivityTracksLatest) {
  ServiceTable table;
  const ServiceKey key{kServer, net::Proto::kTcp, 80};
  table.discover(key, kEpoch + minutes(1));
  table.count_flow(key, kClient, kEpoch + hours(5));
  EXPECT_EQ(table.find(key)->last_activity, kEpoch + hours(5));
}

TEST(ServiceTable, AddressCountCollapsesPorts) {
  ServiceTable table;
  table.discover({kServer, net::Proto::kTcp, 80}, kEpoch);
  table.discover({kServer, net::Proto::kTcp, 22}, kEpoch);
  table.discover({Ipv4::from_octets(128, 125, 2, 2), net::Proto::kTcp, 80},
                 kEpoch);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.address_count(), 2u);
}

TEST(ServiceTable, ChronologicalSorted) {
  ServiceTable table;
  table.discover({kServer, net::Proto::kTcp, 80}, kEpoch + minutes(10));
  table.discover({kServer, net::Proto::kTcp, 22}, kEpoch + minutes(2));
  table.discover({kServer, net::Proto::kTcp, 21}, kEpoch + minutes(30));
  const auto chrono = table.chronological();
  ASSERT_EQ(chrono.size(), 3u);
  EXPECT_EQ(chrono[0].first.port, 22);
  EXPECT_EQ(chrono[1].first.port, 80);
  EXPECT_EQ(chrono[2].first.port, 21);
}

// --------------------------------------------------------- PassiveMonitor --

MonitorConfig selected_config() {
  MonitorConfig cfg;
  cfg.internal_prefixes = {kCampus};
  cfg.tcp_ports = net::selected_tcp_ports();
  return cfg;
}

TEST(PassiveMonitor, SynAckFromInternalDiscoversService) {
  PassiveMonitor monitor(selected_config());
  monitor.observe(at(net::make_tcp(kServer, 80, kClient, 999,
                                   net::flags_syn_ack()),
                     kEpoch + minutes(3)));
  const ServiceKey key{kServer, net::Proto::kTcp, 80};
  ASSERT_TRUE(monitor.table().contains(key));
  EXPECT_EQ(monitor.table().find(key)->first_seen, kEpoch + minutes(3));
}

TEST(PassiveMonitor, SynAloneDoesNotDiscover) {
  PassiveMonitor monitor(selected_config());
  monitor.observe(at(net::make_tcp(kClient, 999, kServer, 80,
                                   net::flags_syn()),
                     kEpoch));
  EXPECT_EQ(monitor.table().size(), 0u);
}

TEST(PassiveMonitor, SynAckFromExternalIgnored) {
  PassiveMonitor monitor(selected_config());
  monitor.observe(at(net::make_tcp(kClient, 80, kServer, 999,
                                   net::flags_syn_ack()),
                     kEpoch));
  EXPECT_EQ(monitor.table().size(), 0u);
}

TEST(PassiveMonitor, UnselectedPortIgnored) {
  PassiveMonitor monitor(selected_config());
  monitor.observe(at(net::make_tcp(kServer, 8080, kClient, 999,
                                   net::flags_syn_ack()),
                     kEpoch));
  EXPECT_EQ(monitor.table().size(), 0u);
}

TEST(PassiveMonitor, AllPortsModeRecordsEverything) {
  MonitorConfig cfg;
  cfg.internal_prefixes = {kCampus};
  PassiveMonitor monitor(cfg);  // empty port list = all ports
  monitor.observe(at(net::make_tcp(kServer, 8080, kClient, 999,
                                   net::flags_syn_ack()),
                     kEpoch));
  EXPECT_EQ(monitor.table().size(), 1u);
}

TEST(PassiveMonitor, InboundSynCountsFlowAndClient) {
  PassiveMonitor monitor(selected_config());
  const ServiceKey key{kServer, net::Proto::kTcp, 80};
  monitor.observe(at(net::make_tcp(kClient, 999, kServer, 80,
                                   net::flags_syn()),
                     kEpoch));
  monitor.observe(at(net::make_tcp(kClient, 1000, kServer, 80,
                                   net::flags_syn()),
                     kEpoch + minutes(1)));
  monitor.observe(at(net::make_tcp(kServer, 80, kClient, 999,
                                   net::flags_syn_ack()),
                     kEpoch + minutes(2)));
  const ServiceRecord* record = monitor.table().find(key);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->flows, 2u);
  EXPECT_EQ(record->clients.size(), 1u);
}

TEST(PassiveMonitor, UdpWellKnownSourceDiscovers) {
  MonitorConfig cfg;
  cfg.internal_prefixes = {kCampus};
  cfg.detect_udp = true;
  cfg.udp_ports = net::selected_udp_ports();
  PassiveMonitor monitor(cfg);
  monitor.observe(at(net::make_udp(kServer, 53, kClient, 999, 64), kEpoch));
  EXPECT_TRUE(
      monitor.table().contains({kServer, net::Proto::kUdp, 53}));
  // Client->server UDP counts a flow but does not discover.
  monitor.observe(at(net::make_udp(kClient, 999, kServer, 137, 64), kEpoch));
  EXPECT_FALSE(
      monitor.table().contains({kServer, net::Proto::kUdp, 137}));
}

TEST(PassiveMonitor, UdpDisabledByDefault) {
  PassiveMonitor monitor(selected_config());
  monitor.observe(at(net::make_udp(kServer, 53, kClient, 999, 64), kEpoch));
  EXPECT_EQ(monitor.table().size(), 0u);
}

TEST(PassiveMonitor, DiscoveryCallbackFires) {
  PassiveMonitor monitor(selected_config());
  int calls = 0;
  monitor.on_discovery = [&](const ServiceKey& key, util::TimePoint) {
    ++calls;
    EXPECT_EQ(key.port, 80);
  };
  const Packet synack =
      net::make_tcp(kServer, 80, kClient, 999, net::flags_syn_ack());
  monitor.observe(at(synack, kEpoch));
  monitor.observe(at(synack, kEpoch + minutes(1)));  // duplicate
  EXPECT_EQ(calls, 1);
}

// ------------------------------------------------------------ ScanDetector

ScanDetectorConfig tight_config() {
  ScanDetectorConfig cfg;
  cfg.target_threshold = 10;
  cfg.rst_threshold = 10;
  cfg.window = hours(12);
  return cfg;
}

TEST(ScanDetector, FlagsWideScanner) {
  ScanDetector detector(tight_config(), {kCampus});
  const Ipv4 scanner = Ipv4::from_octets(7, 7, 7, 7);
  for (std::uint32_t i = 0; i < 10; ++i) {
    const Ipv4 target = Ipv4::from_octets(128, 125, 1, static_cast<uint8_t>(i));
    detector.observe(at(net::make_tcp(scanner, 1, target, 22,
                                      net::flags_syn()),
                        kEpoch + minutes(i)));
    detector.observe(at(net::make_tcp(target, 22, scanner, 1,
                                      net::flags_rst()),
                        kEpoch + minutes(i)));
  }
  EXPECT_TRUE(detector.is_scanner(scanner));
  EXPECT_EQ(detector.scanner_count(), 1u);
}

TEST(ScanDetector, RequiresBothThresholds) {
  ScanDetector detector(tight_config(), {kCampus});
  const Ipv4 scanner = Ipv4::from_octets(7, 7, 7, 7);
  // 20 SYNs but no RST responses (every port open or silent).
  for (std::uint32_t i = 0; i < 20; ++i) {
    detector.observe(at(net::make_tcp(scanner, 1,
                                      Ipv4::from_octets(128, 125, 2,
                                                        static_cast<uint8_t>(i)),
                                      22, net::flags_syn()),
                        kEpoch));
  }
  EXPECT_FALSE(detector.is_scanner(scanner));
}

TEST(ScanDetector, NormalClientNotFlagged) {
  ScanDetector detector(tight_config(), {kCampus});
  // One client talking to one server repeatedly.
  for (int i = 0; i < 100; ++i) {
    detector.observe(at(net::make_tcp(kClient, 1, kServer, 80,
                                      net::flags_syn()),
                        kEpoch + minutes(i)));
  }
  EXPECT_FALSE(detector.is_scanner(kClient));
}

TEST(ScanDetector, WindowResetsCounts) {
  ScanDetector detector(tight_config(), {kCampus});
  const Ipv4 scanner = Ipv4::from_octets(7, 7, 7, 7);
  // 6 targets in window 0, 6 more in window 2: never 10 in one window.
  for (std::uint32_t i = 0; i < 6; ++i) {
    const Ipv4 target = Ipv4::from_octets(128, 125, 3, static_cast<uint8_t>(i));
    detector.observe(at(net::make_tcp(scanner, 1, target, 22,
                                      net::flags_syn()),
                        kEpoch + minutes(i)));
    detector.observe(at(net::make_tcp(target, 22, scanner, 1,
                                      net::flags_rst()),
                        kEpoch + minutes(i)));
  }
  for (std::uint32_t i = 0; i < 6; ++i) {
    const Ipv4 target =
        Ipv4::from_octets(128, 125, 4, static_cast<uint8_t>(i));
    detector.observe(at(net::make_tcp(scanner, 1, target, 22,
                                      net::flags_syn()),
                        kEpoch + hours(25) + minutes(i)));
    detector.observe(at(net::make_tcp(target, 22, scanner, 1,
                                      net::flags_rst()),
                        kEpoch + hours(25) + minutes(i)));
  }
  EXPECT_FALSE(detector.is_scanner(scanner));
}

TEST(ScanDetector, InternalSourcesNeverFlagged) {
  ScanDetector detector(tight_config(), {kCampus});
  const Ipv4 internal_scanner = Ipv4::from_octets(128, 125, 9, 9);
  for (std::uint32_t i = 0; i < 30; ++i) {
    const Ipv4 target = Ipv4::from_octets(128, 125, 5, static_cast<uint8_t>(i));
    detector.observe(at(net::make_tcp(internal_scanner, 1, target, 22,
                                      net::flags_syn()),
                        kEpoch));
    detector.observe(at(net::make_tcp(target, 22, internal_scanner, 1,
                                      net::flags_rst()),
                        kEpoch));
  }
  EXPECT_FALSE(detector.is_scanner(internal_scanner));
}

// ---------------------------------------------- ScanDetector reference --
// The detector stops storing a source's addresses once a count reaches
// its threshold. This reference keeps every distinct address in
// unbounded std::sets, exactly as the §4.3 rule reads, and must flag the
// same sources in the same order.

class ReferenceScanDetector {
 public:
  ReferenceScanDetector(ScanDetectorConfig cfg, Prefix campus)
      : cfg_(cfg), campus_(campus) {}

  void observe(const Packet& p) {
    if (p.proto != net::Proto::kTcp) return;
    ++packets_seen;
    const std::int64_t window = util::floor_div(p.time.usec, cfg_.window.usec);
    if (window != window_) {
      window_ = window;
      state_.clear();
    }
    Ipv4 source;
    if (p.flags.is_syn_only()) {
      if (campus_.contains(p.src) || !campus_.contains(p.dst)) return;
      source = p.src;
      if (is_flagged(source)) return;
      state_[source].first.insert(p.dst);
    } else if (p.flags.rst()) {
      if (!campus_.contains(p.src) || campus_.contains(p.dst)) return;
      source = p.dst;
      if (is_flagged(source)) return;
      state_[source].second.insert(p.src);
    } else {
      return;
    }
    const auto& [targets, rst_from] = state_[source];
    if (targets.size() >= cfg_.target_threshold &&
        rst_from.size() >= cfg_.rst_threshold) {
      flagged.push_back(source);
    }
  }

  std::vector<Ipv4> flagged;
  std::uint64_t packets_seen{0};

 private:
  bool is_flagged(Ipv4 a) const {
    return std::find(flagged.begin(), flagged.end(), a) != flagged.end();
  }

  ScanDetectorConfig cfg_;
  Prefix campus_;
  std::int64_t window_{0};
  std::map<Ipv4, std::pair<std::set<Ipv4>, std::set<Ipv4>>> state_;
};

TEST(ScanDetectorModel, MatchesUnboundedReference) {
  const std::uint32_t thresholds[] = {0, 1, 2, 100};
  std::size_t flagged_at_paper_thresholds = 0;
  for (const std::uint32_t target_threshold : thresholds) {
    for (const std::uint32_t rst_threshold : thresholds) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "targets>=" << target_threshold << " rsts>="
                     << rst_threshold << " seed " << seed);
        ScanDetectorConfig cfg;
        cfg.target_threshold = target_threshold;
        cfg.rst_threshold = rst_threshold;
        cfg.window = hours(12);
        ScanDetector detector(cfg, {kCampus});
        util::MetricsRegistry registry;
        detector.attach_metrics(registry, "scan");
        ReferenceScanDetector reference(cfg, kCampus);

        util::Rng rng(seed * 1000 + target_threshold * 10 + rst_threshold);
        util::TimePoint t = kEpoch;
        for (int i = 0; i < 8000; ++i) {
          // ~40 h of traffic: three window rolls, with an occasional
          // step back in time (a skewed tap) thrown in.
          t = t + util::seconds(static_cast<std::int64_t>(rng.below(36)));
          if (rng.chance(0.001)) t = t - hours(13);
          // Source 0 scans hard enough to cross 100 distinct targets in
          // a window; 1 and 2 come near; 3-11 are light. With only 150
          // internal hosts every source revisits targets it has seen.
          const double pick = rng.uniform();
          const std::uint64_t source_index =
              pick < 0.4 ? 0 : pick < 0.6 ? 1 + rng.below(2) : 3 + rng.below(9);
          const Ipv4 external =
              Ipv4::from_octets(7, 7, 7, static_cast<std::uint8_t>(source_index));
          const Ipv4 internal = Ipv4::from_octets(
              128, 125, 1, static_cast<std::uint8_t>(rng.below(150)));
          Packet p;
          switch (rng.below(10)) {
            case 0:
              p = net::make_tcp(internal, 80, external, 1,
                                net::flags_syn_ack());
              break;
            case 1:
              p = net::make_udp(external, 1, internal, 53, 0);
              break;
            case 2:  // internal-to-internal: ignored by both
              p = net::make_tcp(internal, 1, Ipv4::from_octets(128, 125, 9, 9),
                                22, net::flags_syn());
              break;
            case 3:
            case 4:
            case 5:
              p = net::make_tcp(external, 1, internal, 22, net::flags_syn());
              break;
            default:
              p = net::make_tcp(internal, 22, external, 1, net::flags_rst());
              break;
          }
          p.time = t;
          detector.observe(p);
          reference.observe(p);
        }
        std::vector<Ipv4> got;
        for (const Ipv4 a : detector.scanners()) got.push_back(a);
        EXPECT_EQ(got, reference.flagged);
        EXPECT_EQ(registry.counter("scan.packets_seen").value(),
                  reference.packets_seen);
        EXPECT_EQ(registry.counter("scan.scanners_flagged").value(),
                  reference.flagged.size());
        if (target_threshold == 100 && rst_threshold == 100) {
          flagged_at_paper_thresholds += got.size();
        }
      }
    }
  }
  EXPECT_GT(flagged_at_paper_thresholds, 0u);
}

TEST(ScanDetectorModel, MatchesReferenceAtPaperThresholdsAcrossWindows) {
  // Sources reach 99, 100 or 101 distinct targets and as many distinct
  // RST senders, with repeats, inside one window or straddling a window
  // boundary, at the paper's 100/100 thresholds.
  constexpr std::uint32_t kCounts[] = {99, 100, 101};
  std::size_t flagged_total = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    util::Rng rng(seed);
    ScanDetectorConfig cfg;  // 100 targets, 100 RSTs, 12 h
    ScanDetector detector(cfg, {kCampus});
    ReferenceScanDetector reference(cfg, kCampus);

    std::vector<Packet> packets;
    std::vector<Ipv4> expect_flagged;  // sources wholly in one window
    for (std::uint8_t s = 0; s < 12; ++s) {
      const Ipv4 source = Ipv4::from_octets(7, 7, s, 7);
      const std::uint32_t targets = kCounts[rng.below(3)];
      const std::uint32_t rsts = kCounts[rng.below(3)];
      const bool straddle = rng.chance(0.3);
      // Window k's boundary sits at 12k h; a straddling source starts
      // half an hour before one, the rest well inside a window.
      const std::int64_t window = static_cast<std::int64_t>(rng.below(3));
      const util::TimePoint start =
          kEpoch + hours(12 * window) +
          (straddle ? hours(12) - minutes(30) : hours(2));
      const auto at_random = [&] {
        return start + util::seconds(
                           static_cast<std::int64_t>(rng.below(3600)));
      };
      // Distinct internal hosts per source, from a shuffled offset.
      const std::uint32_t base = static_cast<std::uint32_t>(rng.below(200));
      const auto host = [&](std::uint32_t i) {
        const std::uint32_t n = base + i;
        return Ipv4::from_octets(128, 125, static_cast<std::uint8_t>(n / 250),
                                 static_cast<std::uint8_t>(1 + n % 250));
      };
      for (std::uint32_t i = 0; i < targets; ++i) {
        for (std::uint64_t r = 1 + rng.below(2); r > 0; --r) {
          packets.push_back(at(
              net::make_tcp(source, 1, host(i), 22, net::flags_syn()),
              at_random()));
        }
      }
      for (std::uint32_t i = 0; i < rsts; ++i) {
        for (std::uint64_t r = 1 + rng.below(2); r > 0; --r) {
          packets.push_back(at(
              net::make_tcp(host(i), 22, source, 1, net::flags_rst()),
              at_random()));
        }
      }
      if (!straddle && targets >= 100 && rsts >= 100) {
        expect_flagged.push_back(source);
      }
    }
    std::stable_sort(packets.begin(), packets.end(),
                     [](const Packet& a, const Packet& b) {
                       return a.time < b.time;
                     });
    for (const Packet& p : packets) {
      detector.observe(p);
      reference.observe(p);
    }
    std::vector<Ipv4> got;
    for (const Ipv4 a : detector.scanners()) got.push_back(a);
    EXPECT_EQ(got, reference.flagged);
    for (const Ipv4 source : expect_flagged) {
      EXPECT_TRUE(detector.is_scanner(source)) << source.to_string();
    }
    flagged_total += got.size();
  }
  EXPECT_GT(flagged_total, 0u);
}

TEST(ScanDetectorModel, RepeatedSynsToOneTargetCountOnce) {
  ScanDetectorConfig cfg;
  cfg.target_threshold = 3;
  cfg.rst_threshold = 0;
  ScanDetector detector(cfg, {kCampus});
  const Ipv4 source = Ipv4::from_octets(7, 7, 7, 7);
  const auto syn_to = [&](std::uint8_t host) {
    detector.observe(at(net::make_tcp(source, 1,
                                      Ipv4::from_octets(128, 125, 1, host),
                                      22, net::flags_syn()),
                        kEpoch));
  };
  // The first and second targets are each repeated, the first again
  // after the second: still two distinct (source, target) pairs.
  for (int i = 0; i < 5; ++i) syn_to(1);
  for (int i = 0; i < 5; ++i) syn_to(2);
  syn_to(1);
  EXPECT_FALSE(detector.is_scanner(source));
  syn_to(3);
  EXPECT_TRUE(detector.is_scanner(source));
}

TEST(PassiveMonitor, ScannerExclusionSuppressesDiscovery) {
  MonitorConfig cfg = selected_config();
  cfg.exclude_scanner_triggered = true;
  PassiveMonitor monitor(cfg);
  auto detector =
      std::make_shared<ScanDetector>(tight_config(),
                                     std::vector<Prefix>{kCampus});
  monitor.set_scan_detector(detector);

  const Ipv4 scanner = Ipv4::from_octets(7, 7, 7, 7);
  // Scanner sweeps: targets RST back, crossing both thresholds.
  for (std::uint32_t i = 0; i < 12; ++i) {
    const Ipv4 target = Ipv4::from_octets(128, 125, 6, static_cast<uint8_t>(i));
    monitor.observe(at(net::make_tcp(scanner, 1, target, 80,
                                     net::flags_syn()),
                       kEpoch + minutes(i)));
    monitor.observe(at(net::make_tcp(target, 80, scanner, 1,
                                     net::flags_rst()),
                       kEpoch + minutes(i)));
  }
  ASSERT_TRUE(detector->is_scanner(scanner));
  // A server now answers the flagged scanner: suppressed.
  monitor.observe(at(net::make_tcp(kServer, 80, scanner, 1,
                                   net::flags_syn_ack()),
                     kEpoch + minutes(20)));
  EXPECT_EQ(monitor.table().size(), 0u);
  EXPECT_EQ(monitor.discoveries_suppressed(), 1u);
  // The same server answering a genuine client is recorded.
  monitor.observe(at(net::make_tcp(kServer, 80, kClient, 1,
                                   net::flags_syn_ack()),
                     kEpoch + minutes(21)));
  EXPECT_EQ(monitor.table().size(), 1u);
}

// --------------------------------------- retroactive scanner cleaning --

TEST(ServiceRecord, LastFlowExcludingCleansRetroactivelyFlaggedScanners) {
  ServiceTable table;
  const ServiceKey key{kServer, net::Proto::kTcp, 80};
  const Ipv4 scanner = Ipv4::from_octets(7, 7, 7, 7);
  const Ipv4 genuine = Ipv4::from_octets(66, 1, 2, 3);
  table.count_flow(key, genuine, kEpoch + minutes(10));
  table.count_flow(key, scanner, kEpoch + minutes(30));  // latest overall
  const ServiceRecord* record = [&] {
    table.discover(key, kEpoch + minutes(1));
    return table.find(key);
  }();
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->last_flow, kEpoch + minutes(30));

  util::FlatSet<Ipv4> exclude;
  // Nothing excluded: fast path returns last_flow directly.
  EXPECT_EQ(record->last_flow_excluding(exclude), kEpoch + minutes(30));
  // Scanner flagged after the fact: its flow no longer counts.
  exclude.insert(scanner);
  EXPECT_EQ(record->last_flow_excluding(exclude), kEpoch + minutes(10));
  // Every client excluded: no genuine flow remains.
  exclude.insert(genuine);
  EXPECT_EQ(record->last_flow_excluding(exclude), util::TimePoint{});
}

TEST(ServiceRecord, LastFlowExcludingFastPathMatchesScan) {
  // The maintained last_flow_client must track ties and updates: make
  // the latest flow come from a genuine client and exclude the scanner.
  ServiceTable table;
  const ServiceKey key{kServer, net::Proto::kTcp, 80};
  const Ipv4 scanner = Ipv4::from_octets(7, 7, 7, 7);
  const Ipv4 genuine = Ipv4::from_octets(66, 1, 2, 3);
  table.count_flow(key, scanner, kEpoch + minutes(5));
  table.count_flow(key, genuine, kEpoch + minutes(5));  // tie: later wins
  table.discover(key, kEpoch);
  util::FlatSet<Ipv4> exclude;
  exclude.insert(scanner);
  EXPECT_EQ(table.find(key)->last_flow_excluding(exclude),
            kEpoch + minutes(5));
}

// ---------------------------------------------------------- ClientTimes --
// The per-service client table against a std::map reference: the same
// clients, each with the latest time it was noted (or the first time it
// was inserted).

using ClientModel = std::map<std::uint32_t, util::TimePoint>;

void expect_matches(const ClientTimes& table, const ClientModel& model) {
  ASSERT_EQ(table.size(), model.size());
  EXPECT_EQ(table.empty(), model.empty());
  ClientModel seen;
  table.for_each([&](Ipv4 client, util::TimePoint t) {
    EXPECT_TRUE(seen.emplace(client.value(), t).second)
        << "client visited twice: " << client.to_string();
  });
  EXPECT_EQ(seen, model);
  for (const auto& [client, t] : model) {
    EXPECT_TRUE(table.contains(Ipv4(client))) << Ipv4(client).to_string();
  }
}

TEST(ClientTimes, MatchesReferenceThroughSpillAndGrowth) {
  const Ipv4 edges[] = {Ipv4(0), Ipv4(0xFFFFFFFFu), Ipv4(1),
                        Ipv4(0xFFFFFFFEu)};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    util::Rng rng(seed);
    ClientTimes table;
    ClientModel model;
    // Small seeds stay near the inline limit; larger ones grow the
    // block several times. Client pools this small force repeats.
    const std::uint64_t pool = seed < 10 ? 3 + seed : 40 * seed;
    for (int step = 0; step < 3000; ++step) {
      const Ipv4 client =
          rng.chance(0.05) ? edges[rng.below(4)]
                           : Ipv4(0x42000000u +
                                  static_cast<std::uint32_t>(rng.below(pool)));
      const util::TimePoint t{static_cast<std::int64_t>(rng.below(1000)) - 500};
      if (rng.chance(0.8)) {
        table.note(client, t);
        auto [it, added] = model.emplace(client.value(), t);
        if (!added && it->second < t) it->second = t;
      } else {
        EXPECT_EQ(table.insert(client, t),
                  model.emplace(client.value(), t).second);
      }
      EXPECT_EQ(table.contains(Ipv4(0x41000000u)), false);
    }
    expect_matches(table, model);
    // Copies and moves carry the clients, inline or spilled.
    ClientTimes copy = table;
    expect_matches(copy, model);
    ClientTimes moved = std::move(copy);
    expect_matches(moved, model);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    copy = moved;
    expect_matches(copy, model);
  }
}

TEST(ClientTimes, SpillsPastTheInlineLimit) {
  ClientTimes table;
  EXPECT_EQ(table.heap_bytes(), 0u);
  for (std::uint32_t i = 0; i < ClientTimes::kInline; ++i) {
    table.note(Ipv4(100 + i), kEpoch + minutes(i));
  }
  EXPECT_EQ(table.size(), ClientTimes::kInline);
  EXPECT_EQ(table.heap_bytes(), 0u) << "the first kInline clients sit inline";
  table.note(Ipv4(100), kEpoch + hours(1));  // a repeat does not spill
  EXPECT_EQ(table.heap_bytes(), 0u);
  table.note(Ipv4(200), kEpoch + hours(2));
  EXPECT_EQ(table.size(), ClientTimes::kInline + 1);
  EXPECT_GT(table.heap_bytes(), 0u);
  for (std::uint32_t i = 0; i < ClientTimes::kInline; ++i) {
    EXPECT_TRUE(table.contains(Ipv4(100 + i)));
  }
  EXPECT_TRUE(table.contains(Ipv4(200)));
  EXPECT_FALSE(table.contains(Ipv4(300)));
}

TEST(ClientTimes, KeepsTheLatestFlowTime) {
  // Inline and spilled alike: a newer flow raises the time, an older
  // one leaves it, and insert never overwrites.
  for (const std::uint32_t others : {0u, 10u}) {
    ClientTimes table;
    for (std::uint32_t i = 0; i < others; ++i) {
      table.note(Ipv4(500 + i), kEpoch);
    }
    const Ipv4 client = Ipv4::from_octets(66, 1, 2, 3);
    table.note(client, kEpoch + minutes(10));
    table.note(client, kEpoch + minutes(20));  // newer
    table.note(client, kEpoch + minutes(5));   // older
    EXPECT_FALSE(table.insert(client, kEpoch + hours(5)));
    util::TimePoint got{};
    table.for_each([&](Ipv4 c, util::TimePoint t) {
      if (c == client) got = t;
    });
    EXPECT_EQ(got, kEpoch + minutes(20)) << others << " other clients";
    EXPECT_EQ(table.size(), others + 1);
  }
}

TEST(ClientTimes, ZeroAndBroadcastAddressesAreClients) {
  // 255.255.255.255 marks a free block slot, so once spilled it is kept
  // beside the block; 0.0.0.0 is the first restore placeholder.
  ClientTimes table;
  table.note(Ipv4(0), kEpoch + minutes(1));
  table.note(Ipv4(0xFFFFFFFFu), kEpoch + minutes(2));
  EXPECT_EQ(table.size(), 2u);
  for (std::uint32_t i = 1; i <= 20; ++i) table.note(Ipv4(i), kEpoch);
  EXPECT_EQ(table.size(), 22u);
  EXPECT_GT(table.heap_bytes(), 0u);
  EXPECT_TRUE(table.contains(Ipv4(0)));
  EXPECT_TRUE(table.contains(Ipv4(0xFFFFFFFFu)));
  table.note(Ipv4(0xFFFFFFFFu), kEpoch + minutes(9));
  table.note(Ipv4(0), kEpoch);
  EXPECT_EQ(table.size(), 22u);
  ClientModel model;
  table.for_each([&](Ipv4 c, util::TimePoint t) { model[c.value()] = t; });
  EXPECT_EQ(model.at(0), kEpoch + minutes(1));
  EXPECT_EQ(model.at(0xFFFFFFFFu), kEpoch + minutes(9));

  // Spilled with the broadcast client first noted after the spill.
  ClientTimes late;
  for (std::uint32_t i = 1; i <= 6; ++i) late.note(Ipv4(i), kEpoch);
  EXPECT_FALSE(late.contains(Ipv4(0xFFFFFFFFu)));
  EXPECT_TRUE(late.insert(Ipv4(0xFFFFFFFFu), kEpoch + minutes(3)));
  EXPECT_FALSE(late.insert(Ipv4(0xFFFFFFFFu), kEpoch + minutes(4)));
  EXPECT_TRUE(late.contains(Ipv4(0xFFFFFFFFu)));
  EXPECT_EQ(late.size(), 7u);
}

TEST(ClientTimes, RestorePlaceholdersSpillPastTheInlineLimit) {
  ServiceTable table;
  const ServiceKey key{kServer, net::Proto::kTcp, 80};
  // A live client first, then a restored row of 9 clients on top: the
  // placeholders are 0.0.0.0..0.0.0.8 stamped at first_seen.
  table.count_flow(key, Ipv4(3), kEpoch + hours(2));
  EXPECT_EQ(table.restore(key, kEpoch + hours(1), kEpoch + hours(3), 20, 9,
                          1000),
            9u);
  const ServiceRecord* record = table.find(key);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->clients.size(), 9u);  // 0.0.0.3 was already there
  EXPECT_EQ(record->client_count(), 9u);
  ClientModel model;
  record->clients.for_each(
      [&](Ipv4 c, util::TimePoint t) { model[c.value()] = t; });
  for (std::uint32_t i = 0; i < 9; ++i) {
    EXPECT_EQ(model.at(i), i == 3 ? kEpoch + hours(2) : kEpoch + hours(1))
        << i;
  }
  EXPECT_EQ(record->flows, 21u);
}

TEST(ServiceRecord, LastFlowExcludingAfterSpill) {
  ServiceTable table;
  const ServiceKey key{kServer, net::Proto::kTcp, 80};
  const Ipv4 scanner = Ipv4::from_octets(7, 7, 7, 7);
  // Twelve genuine clients (past the inline limit), the newest at
  // minute 12; the scanner's flow is the latest of all.
  for (std::uint32_t i = 1; i <= 12; ++i) {
    table.count_flow(key, Ipv4::from_octets(66, 1, 2, static_cast<uint8_t>(i)),
                     kEpoch + minutes(i));
  }
  table.count_flow(key, scanner, kEpoch + minutes(40));
  table.count_flow(key, Ipv4::from_octets(66, 1, 2, 5),
                   kEpoch + minutes(30));  // a repeat raises 66.1.2.5
  table.discover(key, kEpoch);
  const ServiceRecord* record = table.find(key);
  ASSERT_NE(record, nullptr);
  ASSERT_GT(record->clients.heap_bytes(), 0u);
  util::FlatSet<Ipv4> exclude;
  EXPECT_EQ(record->last_flow_excluding(exclude), kEpoch + minutes(40));
  exclude.insert(scanner);
  EXPECT_EQ(record->last_flow_excluding(exclude), kEpoch + minutes(30));
  exclude.insert(Ipv4::from_octets(66, 1, 2, 5));
  EXPECT_EQ(record->last_flow_excluding(exclude), kEpoch + minutes(12));
}

// ------------------------------------------- batch/single equivalence --

// Random border-crossing traffic mix covering every monitor rule:
// internal SYN-ACKs (discovery), external SYNs (flows + scan detector
// targets), outbound RSTs (scan detector), UDP from well-known ports.
std::vector<Packet> equivalence_traffic(std::uint64_t seed, int count) {
  util::Rng rng(seed);
  std::vector<Packet> packets;
  packets.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const Ipv4 internal =
        Ipv4::from_octets(128, 125, 6, static_cast<std::uint8_t>(rng.below(8)));
    const Ipv4 external =
        Ipv4::from_octets(7, 7, 7, static_cast<std::uint8_t>(rng.below(4)));
    Packet p;
    switch (rng.below(5)) {
      case 0:
        p = net::make_tcp(internal, 80, external, 999, net::flags_syn_ack());
        break;
      case 1:
        p = net::make_tcp(external, 999, internal, 80, net::flags_syn());
        break;
      case 2:
        p = net::make_tcp(internal, 80, external, 999, net::flags_rst());
        break;
      case 3:
        p = net::make_udp(internal, 53, external, 999, 64);
        break;
      default:
        p = net::make_tcp(external, 999, internal, 22, net::flags_syn());
        break;
    }
    // Coarse timestamps so some packets share a time, as batching does.
    p.time = kEpoch + minutes(i / 4);
    packets.push_back(p);
  }
  return packets;
}

PassiveMonitor make_equivalence_monitor() {
  MonitorConfig cfg = selected_config();
  cfg.detect_udp = true;
  cfg.udp_ports = net::selected_udp_ports();
  cfg.exclude_scanner_triggered = true;
  PassiveMonitor monitor(cfg);
  ScanDetectorConfig scan_cfg;
  scan_cfg.target_threshold = 4;
  scan_cfg.rst_threshold = 4;
  monitor.set_scan_detector(std::make_shared<ScanDetector>(
      scan_cfg, std::vector<Prefix>{kCampus}));
  return monitor;
}

TEST(PassiveMonitor, BatchDeliveryEquivalentToPerPacket) {
  const std::vector<Packet> traffic = equivalence_traffic(0xBA7C4, 600);

  PassiveMonitor single = make_equivalence_monitor();
  for (const Packet& p : traffic) single.observe(p);

  PassiveMonitor batched = make_equivalence_monitor();
  util::Rng rng(0x51CE5);
  std::size_t i = 0;
  while (i < traffic.size()) {
    const std::size_t n =
        std::min(traffic.size() - i, 1 + rng.below(7));
    batched.observe_batch(
        std::span<const Packet>(traffic.data() + i, n));
    i += n;
  }

  EXPECT_EQ(batched.packets_seen(), single.packets_seen());
  EXPECT_EQ(batched.discoveries_suppressed(),
            single.discoveries_suppressed());
  EXPECT_EQ(batched.scan_detector()->scanner_count(),
            single.scan_detector()->scanner_count());
  ASSERT_EQ(batched.table().size(), single.table().size());
  single.table().for_each([&](const ServiceKey& key,
                              const ServiceRecord& expect) {
    const ServiceRecord* got = batched.table().find(key);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->first_seen, expect.first_seen);
    EXPECT_EQ(got->last_activity, expect.last_activity);
    EXPECT_EQ(got->last_flow, expect.last_flow);
    EXPECT_EQ(got->flows, expect.flows);
    EXPECT_EQ(got->clients.size(), expect.clients.size());
  });
}

}  // namespace
}  // namespace svcdisc::passive
