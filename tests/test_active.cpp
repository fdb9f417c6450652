// Unit tests for active: token bucket, prober semantics, scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "active/prober.h"
#include "active/rate_limiter.h"
#include "active/scan_scheduler.h"
#include "host/host.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace svcdisc::active {
namespace {

using host::Firewall;
using host::FirewallMode;
using host::Host;
using host::LifecycleConfig;
using host::LifecycleKind;
using host::Service;
using net::Ipv4;
using net::Prefix;
using util::hours;
using util::kEpoch;
using util::seconds;

// ------------------------------------------------------------ TokenBucket

TEST(TokenBucket, BurstAvailableImmediately) {
  TokenBucket bucket(10.0, 5.0);
  EXPECT_EQ(bucket.next_available(kEpoch), kEpoch);
  for (int i = 0; i < 5; ++i) bucket.consume(kEpoch);
  // Burst exhausted: the sixth token takes 1/10 s to refill.
  const auto next = bucket.next_available(kEpoch);
  EXPECT_NEAR(static_cast<double>((next - kEpoch).usec), 1e5, 1e3);
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket bucket(2.0, 1.0);
  bucket.consume(kEpoch);
  EXPECT_NEAR(bucket.tokens_at(kEpoch + seconds(1)), 1.0, 1e-9);
  // Tokens cap at burst.
  EXPECT_NEAR(bucket.tokens_at(kEpoch + seconds(100)), 1.0, 1e-9);
}

TEST(TokenBucket, RejectsBadConfig) {
  EXPECT_THROW(TokenBucket(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(TokenBucket(1.0, 0.5), std::invalid_argument);
}

// ---------------------------------------------------------------- Prober --

struct ProberFixture : ::testing::Test {
  ProberFixture()
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

  static Service tcp(net::Port port) {
    Service s;
    s.proto = net::Proto::kTcp;
    s.port = port;
    return s;
  }

  ScanSpec spec_for(std::vector<Ipv4> targets) {
    ScanSpec spec;
    spec.targets = std::move(targets);
    spec.tcp_ports = {80, 22};
    spec.probes_per_sec = 100.0;
    return spec;
  }

  sim::Simulator sim;
  sim::Network network;
  std::vector<std::unique_ptr<Host>> hosts;
  host::HostId next_id{1};
  const Ipv4 prober_addr = Ipv4::from_octets(10, 1, 0, 1);
};

TEST_F(ProberFixture, ClassifiesOpenClosedFiltered) {
  Host& open_host = add_host(Ipv4::from_octets(128, 125, 1, 1));
  open_host.add_service(tcp(80));
  Host& firewalled = add_host(Ipv4::from_octets(128, 125, 1, 2));
  firewalled.add_service(tcp(80));
  firewalled.firewall().set_mode(FirewallMode::kBlockProbers);
  firewalled.firewall().add_prober(prober_addr);
  // 128.125.1.3 has no host at all.

  Prober prober(network, {{prober_addr}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec_for({Ipv4::from_octets(128, 125, 1, 1),
                              Ipv4::from_octets(128, 125, 1, 2),
                              Ipv4::from_octets(128, 125, 1, 3)}),
                    [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->outcomes.size(), 6u);
  EXPECT_EQ(record->count(ProbeStatus::kOpen), 1u);    // 1.1:80
  EXPECT_EQ(record->count(ProbeStatus::kClosed), 1u);  // 1.1:22 RST
  EXPECT_EQ(record->count(ProbeStatus::kFiltered), 4u);

  const auto open = record->open_services();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].addr, Ipv4::from_octets(128, 125, 1, 1));
  EXPECT_EQ(open[0].port, 80);
}

TEST_F(ProberFixture, CumulativeTableAndCallback) {
  Host& h = add_host(Ipv4::from_octets(128, 125, 1, 1));
  h.add_service(tcp(80));
  Prober prober(network, {{prober_addr}});
  int discoveries = 0;
  prober.on_discovery = [&](const passive::ServiceKey&, util::TimePoint) {
    ++discoveries;
  };
  prober.start_scan(spec_for({Ipv4::from_octets(128, 125, 1, 1)}));
  sim.run();
  prober.start_scan(spec_for({Ipv4::from_octets(128, 125, 1, 1)}));
  sim.run();
  EXPECT_EQ(prober.scans().size(), 2u);
  EXPECT_EQ(prober.table().size(), 1u);  // discovered once
  EXPECT_EQ(discoveries, 1);
}

TEST_F(ProberFixture, RateLimitPacesScan) {
  for (int i = 0; i < 20; ++i) {
    add_host(Ipv4::from_octets(128, 125, 2, static_cast<std::uint8_t>(i)));
  }
  std::vector<Ipv4> targets;
  for (int i = 0; i < 20; ++i) {
    targets.push_back(Ipv4::from_octets(128, 125, 2,
                                        static_cast<std::uint8_t>(i)));
  }
  ScanSpec spec = spec_for(targets);
  spec.probes_per_sec = 2.0;  // 40 probes -> ~20 s
  Prober prober(network, {{prober_addr}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  const double elapsed_sec =
      static_cast<double>((record->finished - record->started).usec) / 1e6;
  EXPECT_GT(elapsed_sec, 18.0);
  EXPECT_LT(elapsed_sec, 28.0);
}

TEST_F(ProberFixture, SplitsAcrossMachines) {
  for (int i = 0; i < 20; ++i) {
    add_host(Ipv4::from_octets(128, 125, 2, static_cast<std::uint8_t>(i)));
  }
  std::vector<Ipv4> targets;
  for (int i = 0; i < 20; ++i) {
    targets.push_back(Ipv4::from_octets(128, 125, 2,
                                        static_cast<std::uint8_t>(i)));
  }
  ScanSpec spec = spec_for(targets);
  spec.probes_per_sec = 2.0;
  // Two machines should roughly halve the elapsed time.
  Prober prober(network,
                {{prober_addr, Ipv4::from_octets(10, 1, 0, 2)}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  const double elapsed_sec =
      static_cast<double>((record->finished - record->started).usec) / 1e6;
  EXPECT_LT(elapsed_sec, 15.0);
}

TEST_F(ProberFixture, UdpScanStatuses) {
  // Host A: DNS answers generic probes; port 137 closed (ICMP).
  Host& a = add_host(Ipv4::from_octets(128, 125, 3, 1));
  Service dns;
  dns.proto = net::Proto::kUdp;
  dns.port = 53;
  dns.udp_replies_to_generic_probe = true;
  a.add_service(dns);
  // Host B: silent open service on 137 (replies to nothing, no ICMP for
  // the open port), closed 53 -> ICMP, so the host is provably alive.
  Host& b = add_host(Ipv4::from_octets(128, 125, 3, 2));
  Service netbios;
  netbios.proto = net::Proto::kUdp;
  netbios.port = 137;
  netbios.udp_replies_to_generic_probe = false;
  b.add_service(netbios);
  // Address .3 has no host: every probe unanswered -> no-host.

  ScanSpec spec;
  spec.targets = {Ipv4::from_octets(128, 125, 3, 1),
                  Ipv4::from_octets(128, 125, 3, 2),
                  Ipv4::from_octets(128, 125, 3, 3)};
  spec.udp_ports = {53, 137};
  spec.probes_per_sec = 100.0;

  Prober prober(network, {{prober_addr}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->count(ProbeStatus::kOpenUdp), 1u);   // A:53
  EXPECT_EQ(record->count(ProbeStatus::kClosed), 2u);    // A:137, B:53
  EXPECT_EQ(record->count(ProbeStatus::kMaybeOpen), 1u); // B:137
  EXPECT_EQ(record->count(ProbeStatus::kNoHost), 2u);    // .3 both ports
}

TEST_F(ProberFixture, PingAliveHostUpgradesSilentUdpToMaybeOpen) {
  // Regression: a host that proved itself alive *only* through the
  // host-discovery ping (no port probe ever answered: no UDP service, no
  // ICMP port-unreachable) used to classify as kNoHost. §4.5 says
  // "possibly open IF the host proved alive" — and a ping reply is
  // proof.
  Host& h = add_host(Ipv4::from_octets(128, 125, 4, 1));
  h.set_udp_icmp(false);  // closed ports stay silent

  ScanSpec spec;
  spec.targets = {Ipv4::from_octets(128, 125, 4, 1)};
  spec.udp_ports = {137};
  spec.probes_per_sec = 100.0;
  spec.host_discovery = true;

  Prober prober(network, {{prober_addr}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->hosts_alive, 1u);
  ASSERT_EQ(record->outcomes.size(), 1u);
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kMaybeOpen);
}

TEST_F(ProberFixture, RejectsConcurrentScans) {
  add_host(Ipv4::from_octets(128, 125, 1, 1));
  Prober prober(network, {{prober_addr}});
  prober.start_scan(spec_for({Ipv4::from_octets(128, 125, 1, 1)}));
  EXPECT_THROW(
      prober.start_scan(spec_for({Ipv4::from_octets(128, 125, 1, 1)})),
      std::logic_error);
  sim.run();
}

TEST_F(ProberFixture, RequiresSourceAddress) {
  EXPECT_THROW(Prober(network, {{}}), std::invalid_argument);
}

TEST_F(ProberFixture, EmptyScanCompletes) {
  Prober prober(network, {{prober_addr}});
  bool completed = false;
  ScanSpec spec;
  spec.tcp_ports = {80};
  prober.start_scan(spec, [&](const ScanRecord&) { completed = true; });
  sim.run();
  EXPECT_TRUE(completed);
  EXPECT_FALSE(prober.scan_in_progress());
}

// ------------------------------------------------- Probe bookkeeping --
//
// Which probes get an outcome, which replies resolve one, and which are
// ignored. A scan probes each (addr, port, proto) once, a repeated
// target or port at its first occurrence, and gives the probe one
// outcome; a reply resolves the pending outcome of its (addr, port,
// proto) once, and is a no-op when there is none.

/// A target whose replies a test scripts: every probe delivered to it
/// goes to `reply`.
struct ScriptedSink final : sim::PacketSink {
  std::function<void(const net::Packet&)> reply;
  void on_packet(const net::Packet& p) override {
    if (reply) reply(p);
  }
};

struct BookkeepingFixture : ProberFixture {
  /// Sends `p` into the network `delay` from now.
  void send_after(util::Duration delay, net::Packet p) {
    sim.after(delay, [this, p] { network.send(p); });
  }
  static net::Packet tcp_reply(const net::Packet& probe, net::TcpFlags f) {
    return net::make_tcp(probe.dst, probe.dport, probe.src, probe.sport, f);
  }
  static net::Packet echo_reply(const net::Packet& ping) {
    net::Packet p;
    p.src = ping.dst;
    p.dst = ping.src;
    p.proto = net::Proto::kIcmp;
    p.icmp_type = net::IcmpType::kEchoReply;
    return p;
  }
  std::uint64_t responses() const {
    return static_cast<std::uint64_t>(
        registry.snapshot().value_of("active.responses_received"));
  }

  util::MetricsRegistry registry;
  const Ipv4 a = Ipv4::from_octets(128, 125, 5, 1);
  const Ipv4 b = Ipv4::from_octets(128, 125, 5, 2);
};

TEST_F(BookkeepingFixture, DuplicateTargetIsProbedOnce) {
  Host& up = add_host(a);  // 80 open, 22 closed (RST)
  up.add_service(tcp(80));
  // The repeats of a (answered) and of b (no host, still pending when
  // the repeat would go out) are both dropped.
  Prober prober(network, {{prober_addr}});
  prober.attach_metrics(registry, "active");
  std::optional<ScanRecord> record;
  prober.start_scan(spec_for({a, b, a, b}),
                    [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 4u);
  const std::vector<std::pair<Ipv4, net::Port>> keys = {
      {a, 80}, {a, 22}, {b, 80}, {b, 22}};
  const std::vector<ProbeStatus> statuses = {
      ProbeStatus::kOpen, ProbeStatus::kClosed, ProbeStatus::kFiltered,
      ProbeStatus::kFiltered};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(record->outcomes[i].addr, keys[i].first) << i;
    EXPECT_EQ(record->outcomes[i].port, keys[i].second) << i;
    EXPECT_EQ(record->outcomes[i].status, statuses[i]) << i;
  }
  // Unanswered outcomes keep their send time; answered ones the reply's.
  EXPECT_EQ(record->outcomes[2].when, kEpoch + util::msec(20));
  EXPECT_GT(record->outcomes[1].when, kEpoch + util::msec(10));
  EXPECT_EQ(registry.snapshot().value_of("active.probes_tcp_sent"), 4.0);
  EXPECT_EQ(responses(), 2u);
  EXPECT_EQ(prober.table().size(), 1u);
}

TEST_F(BookkeepingFixture, DuplicatedPortInList) {
  Host& up = add_host(a);
  up.add_service(tcp(80));
  ScanSpec spec = spec_for({a});
  spec.tcp_ports = {80, 80, 22};
  // {80, 80, 22} is probed as {80, 22}, whether the first 80 probe is
  // answered before the repeat would go out (10 ms apart) or not (100 us
  // apart, 2 ms round trip).
  for (const double rate : {100.0, 10000.0}) {
    SCOPED_TRACE(testing::Message() << rate << " probes/s");
    spec.probes_per_sec = rate;
    util::MetricsRegistry metrics;
    Prober prober(network, {{prober_addr}});
    prober.attach_metrics(metrics, "active");
    std::optional<ScanRecord> record;
    prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
    sim.run();
    ASSERT_TRUE(record.has_value());
    ASSERT_EQ(record->outcomes.size(), 2u);
    EXPECT_EQ(record->outcomes[0].port, 80);
    EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kOpen);
    EXPECT_EQ(record->outcomes[1].port, 22);
    EXPECT_EQ(record->outcomes[1].status, ProbeStatus::kClosed);
    EXPECT_EQ(metrics.snapshot().value_of("active.probes_tcp_sent"), 2.0);
    EXPECT_EQ(metrics.snapshot().value_of("active.responses_received"), 2.0);
  }
}

TEST_F(BookkeepingFixture, RepeatedRepliesResolveOnce) {
  ScriptedSink sink;
  network.attach(a, &sink);
  sink.reply = [&](const net::Packet& probe) {
    if (probe.dport == 80) {
      // Two SYN-ACKs and a trailing RST: only the first counts.
      send_after(util::msec(1), tcp_reply(probe, net::flags_syn_ack()));
      send_after(util::msec(3), tcp_reply(probe, net::flags_syn_ack()));
      send_after(util::msec(5), tcp_reply(probe, net::flags_rst()));
    } else {
      send_after(util::msec(1), tcp_reply(probe, net::flags_rst()));
      send_after(util::msec(2), tcp_reply(probe, net::flags_rst()));
    }
  };
  Prober prober(network, {{prober_addr}});
  prober.attach_metrics(registry, "active");
  int discoveries = 0;
  int open_responses = 0;
  prober.on_discovery = [&](const passive::ServiceKey&, util::TimePoint) {
    ++discoveries;
  };
  prober.on_open_response = [&](const passive::ServiceKey&, util::TimePoint,
                                bool) { ++open_responses; };
  std::optional<ScanRecord> record;
  prober.start_scan(spec_for({a}), [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 2u);
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kOpen);
  EXPECT_EQ(record->outcomes[0].when, kEpoch + util::msec(3));
  EXPECT_EQ(record->outcomes[1].status, ProbeStatus::kClosed);
  EXPECT_EQ(responses(), 2u);
  EXPECT_EQ(discoveries, 1);
  EXPECT_EQ(open_responses, 1);
}

TEST_F(BookkeepingFixture, IgnoresRepliesFromOutsideTheScan) {
  // a is dark; stray replies claim to come from a non-target address,
  // from a target port outside the list, and in the wrong protocol.
  const Ipv4 outsider = Ipv4::from_octets(128, 125, 5, 99);
  const net::Packet syn_to_a = net::make_tcp(prober_addr, 40001, a, 80,
                                             net::flags_syn());
  net::Packet from_outsider = syn_to_a;
  from_outsider.dst = outsider;
  send_after(util::msec(5), tcp_reply(from_outsider, net::flags_syn_ack()));
  net::Packet off_list = syn_to_a;
  off_list.dport = 443;
  send_after(util::msec(5), tcp_reply(off_list, net::flags_syn_ack()));
  send_after(util::msec(5), net::make_udp(a, 80, prober_addr, 40001, 8));
  send_after(util::msec(5), net::make_icmp_port_unreachable(
                                net::make_udp(prober_addr, 40001, a, 22, 0)));

  Prober prober(network, {{prober_addr}});
  prober.attach_metrics(registry, "active");
  std::optional<ScanRecord> record;
  prober.start_scan(spec_for({a}), [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 2u);
  EXPECT_EQ(record->count(ProbeStatus::kFiltered), 2u);
  EXPECT_EQ(responses(), 0u);
  EXPECT_EQ(prober.table().size(), 0u);
}

TEST_F(BookkeepingFixture, IgnoresPortRepliesDuringPingPhase) {
  // a answers the host-discovery ping, and in the same breath volunteers
  // a SYN-ACK, a UDP reply and a port-unreachable for the ports the scan
  // will probe later. No port probe is out yet, so none of them counts;
  // a then ignores the real port probes.
  ScriptedSink sink;
  network.attach(a, &sink);
  sink.reply = [&](const net::Packet& probe) {
    if (probe.proto != net::Proto::kIcmp) return;
    send_after(util::msec(1), echo_reply(probe));
    send_after(util::msec(2), net::make_tcp(a, 80, probe.src, 40001,
                                            net::flags_syn_ack()));
    send_after(util::msec(2), net::make_udp(a, 53, probe.src, 40002, 8));
    send_after(util::msec(2),
               net::make_icmp_port_unreachable(
                   net::make_tcp(probe.src, 40003, a, 80, net::flags_syn())));
  };
  ScanSpec spec = spec_for({a});
  spec.tcp_ports = {80};
  spec.udp_ports = {53};
  spec.host_discovery = true;
  Prober prober(network, {{prober_addr}});
  prober.attach_metrics(registry, "active");
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->hosts_alive, 1u);
  ASSERT_EQ(record->outcomes.size(), 2u);
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kFiltered);
  EXPECT_EQ(record->outcomes[1].status, ProbeStatus::kMaybeOpen);
  EXPECT_EQ(responses(), 0u);
  EXPECT_EQ(prober.table().size(), 0u);
}

TEST_F(BookkeepingFixture, PortUnreachableQuotingTcpProbeCloses) {
  ScriptedSink sink;
  network.attach(a, &sink);
  sink.reply = [&](const net::Packet& probe) {
    send_after(util::msec(1), net::make_icmp_port_unreachable(probe));
  };
  Prober prober(network, {{prober_addr}});
  prober.attach_metrics(registry, "active");
  std::optional<ScanRecord> record;
  prober.start_scan(spec_for({a}), [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 2u);
  EXPECT_EQ(record->count(ProbeStatus::kClosed), 2u);
  EXPECT_EQ(responses(), 2u);
}

// Property: on random target and port lists (duplicates included)
// against a responder with random replies and delays — some past the
// timeout, some past the scan's end — every outcome and the response
// count match a reference model of the bookkeeping rules: a std::map of
// pending probes, each erased when its first reply arrives. The model
// replays whatever the prober sent, in send order, so it holds for the
// adaptive mode's ranked order as for the sweep's, and for both outcome
// layouts (DESIGN.md §16): the sweep runs on one to five machines, and
// half the scans drop repeated targets and ports before the prober does.
// Both modes must probe each distinct (target, port) of the port phase
// exactly once.

/// How many of a property run's scans kept each outcome layout.
struct Layouts {
  int index_free{0};
  int indexed{0};
};

template <typename T>
void drop_repeats(std::vector<T>& list) {
  std::vector<T> seen;
  std::erase_if(list, [&seen](const T& x) {
    if (std::find(seen.begin(), seen.end(), x) != seen.end()) return true;
    seen.push_back(x);
    return false;
  });
}

/// Where a random scan's targets and stray replies come from.
struct TargetPool {
  /// The network's internal prefixes (the prober's 10.1.0.0/24 too).
  std::vector<Prefix> internal;
  /// The /24s the scripted responder answers for.
  std::vector<Ipv4> blocks;
  /// Appends one scan's targets, repeats included.
  std::function<void(util::Rng&, std::vector<Ipv4>&)> draw_targets;
  /// Adds a "SYN-ACK, then RST" answer to the TCP reply mix.
  bool syn_ack_then_rst{false};
  /// A stray reply to send beside the answers to `probe`, if any.
  std::function<std::optional<net::Packet>(util::Rng&, const net::Packet&)>
      stray;
};

void check_reference_model(const TargetPool& pool,
                           std::optional<AdaptiveConfig> adaptive,
                           Layouts* layouts) {
  constexpr util::Duration kLatency = util::msec(1);  // campus one-way
  const auto tcp_reply = BookkeepingFixture::tcp_reply;
  const auto echo_reply = BookkeepingFixture::echo_reply;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Simulator s;
    sim::Network net(s, pool.internal);
    net.set_internal_latency(kLatency);
    util::Rng rng(seed);

    // The sweep runs on one to five machines, so shares come out uneven
    // and some machines get none; the adaptive mode runs on one (the draw
    // stays, so a seed draws the same scan in both modes).
    std::vector<Ipv4> machines = {Ipv4::from_octets(10, 1, 0, 1)};
    for (std::uint64_t n = rng.below(5); n > 0 && !adaptive; --n) {
      machines.push_back(Ipv4::from_octets(
          10, 1, 0, static_cast<std::uint8_t>(machines.size() + 1)));
    }
    ScanSpec spec;
    pool.draw_targets(rng, spec.targets);
    const net::Port tcp_pool[] = {21, 22, 80, 443};
    const net::Port udp_pool[] = {53, 137, 161};
    for (std::uint64_t n = rng.below(5); n > 0; --n) {
      spec.tcp_ports.push_back(tcp_pool[rng.below(4)]);
    }
    for (std::uint64_t n = rng.below(4); n > 0; --n) {
      spec.udp_ports.push_back(udp_pool[rng.below(3)]);
    }
    if (rng.chance(0.5)) {
      drop_repeats(spec.targets);
      drop_repeats(spec.tcp_ports);
      drop_repeats(spec.udp_ports);
    }
    // 10 ms between probes, so every send falls on an even microsecond;
    // replies are delayed by an odd number of microseconds, so no reply
    // ever ties with a send or a phase boundary.
    spec.probes_per_sec = 100.0;
    spec.timeout = util::msec(50);
    spec.host_discovery = rng.chance(0.3);
    // Adaptive hints on and off the grid: targets or other block
    // addresses, listed or unlisted ports.
    std::vector<passive::ServiceKey> hints;
    for (std::uint64_t n = adaptive ? rng.below(4) : 0; n > 0; --n) {
      const Ipv4 addr =
          rng.chance(0.5)
              ? spec.targets[rng.below(spec.targets.size())]
              : Ipv4(pool.blocks[rng.below(pool.blocks.size())].value() | 77);
      const bool tcp = rng.chance(0.7);
      const net::Port port =
          rng.chance(0.5) ? (tcp ? tcp_pool[rng.below(4)] : udp_pool[0])
                          : net::Port{8080};
      hints.push_back({addr, tcp ? net::Proto::kTcp : net::Proto::kUdp, port});
    }

    // Everything the prober sends (logged on delivery) and receives.
    struct Event {
      util::TimePoint at;
      bool sent;
      net::Packet p;
    };
    std::vector<Event> log;

    const auto odd_delay = [&rng] {
      return util::usec(2 * static_cast<std::int64_t>(rng.below(100000)) + 1);
    };
    ScriptedSink responder;
    responder.reply = [&](const net::Packet& probe) {
      log.push_back({probe.time - kLatency, true, probe});
      const auto send = [&](net::Packet p) {
        s.after(odd_delay(), [&net, p] { net.send(p); });
      };
      const int copies = rng.chance(0.2) ? 2 : 1;
      for (int c = 0; c < copies; ++c) {
        if (probe.proto == net::Proto::kIcmp) {
          if (rng.chance(0.6)) send(echo_reply(probe));
        } else if (probe.proto == net::Proto::kTcp) {
          const std::uint64_t pick = rng.below(10);
          if (pick < 3) {
            send(tcp_reply(probe, net::flags_syn_ack()));
          } else if (pick < 5) {
            send(tcp_reply(probe, net::flags_rst()));
          } else if (pick < 6) {
            send(net::make_icmp_port_unreachable(probe));
          } else if (pick < 7 && pool.syn_ack_then_rst) {
            send(tcp_reply(probe, net::flags_syn_ack()));
            send(tcp_reply(probe, net::flags_rst()));
          }
        } else {
          const std::uint64_t pick = rng.below(10);
          if (pick < 4) {
            send(net::make_udp(probe.dst, probe.dport, probe.src,
                               probe.sport, 8));
          } else if (pick < 7) {
            send(net::make_icmp_port_unreachable(probe));
          }
        }
      }
      if (auto stray = pool.stray(rng, probe)) send(*stray);
    };
    for (const Ipv4 block : pool.blocks) {
      net.attach_prefix(Prefix(block, 24), &responder);
    }

    Prober prober(net, {machines}, adaptive);
    for (const passive::ServiceKey& hint : hints) prober.note_passive(hint);
    util::MetricsRegistry metrics;
    prober.attach_metrics(metrics, "active");
    // Sit between the network and the prober to log every reply in
    // arrival order.
    struct Relay final : sim::PacketSink {
      Prober* prober{nullptr};
      std::vector<Event>* log{nullptr};
      void on_packet(const net::Packet& p) override {
        log->push_back({p.time, false, p});
        prober->on_packet(p);
      }
    } relay;
    relay.prober = &prober;
    relay.log = &log;
    for (const Ipv4 machine : machines) net.attach(machine, &relay);

    std::optional<ScanRecord> record;
    prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
    s.run();
    ASSERT_TRUE(record.has_value());

    // ---- Reference model, replaying the log in time order.
    std::stable_sort(
        log.begin(), log.end(),
        [](const Event& x, const Event& y) { return x.at < y.at; });
    using Key = std::tuple<std::uint32_t, net::Port, net::Proto>;
    std::vector<ProbeOutcome> outcomes;
    std::map<Key, std::size_t> pending;
    std::set<std::uint32_t> ping_alive;
    std::uint64_t responses = 0;
    util::TimePoint port_phase = kEpoch;  // host discovery: ping phase end
    if (spec.host_discovery) {
      util::TimePoint last_ping = kEpoch;
      for (const Event& e : log) {
        if (e.sent && e.p.proto == net::Proto::kIcmp) last_ping = e.at;
      }
      port_phase = last_ping + spec.timeout + util::msec(100);
    }
    const auto respond = [&](Key key, ProbeStatus status, util::TimePoint at) {
      const auto it = pending.find(key);
      if (it == pending.end()) return;
      outcomes[it->second].status = status;
      outcomes[it->second].when = at;
      pending.erase(it);
      ++responses;
    };
    for (const Event& e : log) {
      if (e.at > record->finished) break;  // the scan is over
      const net::Packet& p = e.p;
      if (e.sent) {
        if (p.proto == net::Proto::kIcmp) continue;  // ping
        const Key key{p.dst.value(), p.dport, p.proto};
        if (!pending.contains(key)) {
          pending[key] = outcomes.size();
          outcomes.push_back(
              {p.dst, p.proto, ProbeStatus::kPending, p.dport, e.at});
        }
        continue;
      }
      switch (p.proto) {
        case net::Proto::kTcp:
          if (p.flags.is_syn_ack()) {
            respond({p.src.value(), p.sport, p.proto}, ProbeStatus::kOpen,
                    e.at);
          } else if (p.flags.rst()) {
            respond({p.src.value(), p.sport, p.proto}, ProbeStatus::kClosed,
                    e.at);
          }
          break;
        case net::Proto::kUdp:
          respond({p.src.value(), p.sport, p.proto}, ProbeStatus::kOpenUdp,
                  e.at);
          break;
        case net::Proto::kIcmp:
          if (p.icmp_type == net::IcmpType::kEchoReply) {
            if (e.at < port_phase) ping_alive.insert(p.src.value());
          } else {
            respond({p.src.value(), p.icmp_orig_dport, p.icmp_orig_proto},
                    ProbeStatus::kClosed, e.at);
          }
          break;
      }
    }
    std::set<std::uint32_t> alive = ping_alive;
    for (const ProbeOutcome& o : outcomes) {
      if (o.status != ProbeStatus::kPending) alive.insert(o.addr.value());
    }
    for (ProbeOutcome& o : outcomes) {
      if (o.status != ProbeStatus::kPending) continue;
      if (o.proto == net::Proto::kTcp) {
        o.status = ProbeStatus::kFiltered;
      } else {
        o.status = alive.contains(o.addr.value()) ? ProbeStatus::kMaybeOpen
                                                  : ProbeStatus::kNoHost;
      }
    }

    // A sweep is index-free, the adaptive mode indexed.
    EXPECT_EQ(record->outcomes.index_free(), !adaptive);
    ++(record->outcomes.index_free() ? layouts->index_free
                                     : layouts->indexed);

    // The port phase probes every distinct (target, port) of its grid
    // once, and the adaptive mode each queued hint off the grid once.
    const auto on_port_phase = [&](Ipv4 addr) {
      return !spec.host_discovery || ping_alive.contains(addr.value());
    };
    std::map<Key, int> want_probes;
    for (const Ipv4 addr : spec.targets) {
      if (!on_port_phase(addr)) continue;
      for (const net::Port port : spec.tcp_ports) {
        want_probes[{addr.value(), port, net::Proto::kTcp}] = 1;
      }
      for (const net::Port port : spec.udp_ports) {
        want_probes[{addr.value(), port, net::Proto::kUdp}] = 1;
      }
    }
    for (const passive::ServiceKey& hint : hints) {
      if (on_port_phase(hint.addr)) {
        want_probes[{hint.addr.value(), hint.port, hint.proto}] = 1;
      }
    }
    std::map<Key, int> probes;
    for (const Event& e : log) {
      if (e.sent && e.p.proto != net::Proto::kIcmp) {
        ++probes[{e.p.dst.value(), e.p.dport, e.p.proto}];
      }
    }
    EXPECT_EQ(probes, want_probes);

    ASSERT_EQ(record->outcomes.size(), outcomes.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const ProbeOutcome& got = record->outcomes[i];
      EXPECT_EQ(got.key(), outcomes[i].key()) << "outcome " << i;
      EXPECT_EQ(got.status, outcomes[i].status) << "outcome " << i;
      EXPECT_EQ(got.when, outcomes[i].when) << "outcome " << i;
    }
    EXPECT_EQ(metrics.snapshot().value_of("active.responses_received"),
              static_cast<double>(responses));
    if (spec.host_discovery) {
      EXPECT_EQ(record->hosts_alive, ping_alive.size());
    }
  }
}

/// Targets 128.125.9.1-6 on one /24 page; strays claim a non-target
/// address, an off-list port or the other protocol.
TargetPool single_page_pool() {
  TargetPool pool;
  pool.internal = {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16),
                   Prefix(Ipv4::from_octets(10, 1, 0, 0), 24)};
  pool.blocks = {Ipv4::from_octets(128, 125, 9, 0)};
  pool.draw_targets = [](util::Rng& rng, std::vector<Ipv4>& targets) {
    for (std::uint64_t n = 1 + rng.below(12); n > 0; --n) {
      targets.push_back(Ipv4::from_octets(
          128, 125, 9, static_cast<std::uint8_t>(1 + rng.below(6))));
    }
  };
  pool.syn_ack_then_rst = true;
  pool.stray = [](util::Rng& rng,
                  const net::Packet& probe) -> std::optional<net::Packet> {
    if (!rng.chance(0.1)) return std::nullopt;
    net::Packet stray =
        probe.proto == net::Proto::kTcp
            ? BookkeepingFixture::tcp_reply(probe, net::flags_syn_ack())
            : net::make_udp(probe.dst, probe.dport, probe.src, probe.sport, 8);
    switch (rng.below(3)) {
      case 0: stray.src = Ipv4::from_octets(128, 125, 9, 200); break;
      case 1: stray.sport = 9999; break;
      default:
        stray = stray.proto == net::Proto::kTcp
                    ? net::make_udp(probe.dst, probe.dport, probe.src,
                                    probe.sport, 8)
                    : BookkeepingFixture::tcp_reply(probe,
                                                    net::flags_syn_ack());
    }
    return stray;
  };
  return pool;
}

/// Targets over several /24 row pages in two internal /16s. Host octets
/// include 0 and 255 (page edges), the same /24 appears in both /16s, and
/// strays come from unprobed addresses in allocated pages and from /24s
/// with no page.
TargetPool row_pages_pool() {
  static constexpr std::uint8_t kHostOctets[] = {0, 1, 2, 77, 128, 255};
  TargetPool pool;
  pool.internal = {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16),
                   Prefix(Ipv4::from_octets(128, 126, 0, 0), 16),
                   Prefix(Ipv4::from_octets(10, 1, 0, 0), 24)};
  pool.blocks = {
      Ipv4::from_octets(128, 125, 9, 0), Ipv4::from_octets(128, 126, 9, 0),
      Ipv4::from_octets(128, 125, 200, 0), Ipv4::from_octets(128, 126, 41, 0)};
  pool.draw_targets = [blocks = pool.blocks](util::Rng& rng,
                                             std::vector<Ipv4>& targets) {
    const auto pick_host = [&](std::size_t block) {
      return Ipv4(blocks[block].value() | kHostOctets[rng.below(6)]);
    };
    // The first three targets come from three distinct /24s in both
    // /16s; the rest from any block, repeats included.
    const std::size_t skip = 2 + rng.below(2);  // block 2 or 3 left out
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (b != skip) targets.push_back(pick_host(b));
    }
    for (std::uint64_t n = rng.below(12); n > 0; --n) {
      targets.push_back(pick_host(rng.below(blocks.size())));
    }
  };
  pool.stray = [](util::Rng& rng,
                  const net::Packet& probe) -> std::optional<net::Packet> {
    if (probe.proto == net::Proto::kIcmp || !rng.chance(0.3)) {
      return std::nullopt;
    }
    // A stray answer for the probed port from another address: the
    // other host octets of the probed /24 (an allocated page), the next
    // /24 (never a page), or the same /24 in the other /16.
    net::Packet stray =
        probe.proto == net::Proto::kTcp
            ? BookkeepingFixture::tcp_reply(probe, net::flags_syn_ack())
            : net::make_udp(probe.dst, probe.dport, probe.src, probe.sport, 8);
    const std::uint32_t a = probe.dst.value();
    switch (rng.below(3)) {
      case 0: stray.src = Ipv4((a & ~0xffu) | kHostOctets[rng.below(6)]); break;
      case 1: stray.src = Ipv4(a + 0x100); break;
      default: stray.src = Ipv4(a ^ 0x30000); break;  // .125 <-> .126
    }
    return stray;
  };
  return pool;
}

TEST_F(BookkeepingFixture, MatchesReferenceModelOnRandomScans) {
  Layouts layouts;
  check_reference_model(single_page_pool(), std::nullopt, &layouts);
  EXPECT_GT(layouts.index_free, 60);
  EXPECT_EQ(layouts.indexed, 0);
}

TEST_F(BookkeepingFixture, MatchesReferenceModelAcrossRowPages) {
  Layouts layouts;
  check_reference_model(row_pages_pool(), std::nullopt, &layouts);
  EXPECT_GT(layouts.index_free, 60);
  EXPECT_EQ(layouts.indexed, 0);
}

// The adaptive mode on one machine, verification off (a SYN-ACK is
// open, as in the model) and priors untrained at scan start, with
// passive hints on and off the grid: its ranked order is not the sweep's,
// but every rule the model checks is the same.
TEST_F(BookkeepingFixture, AdaptiveModeMatchesReferenceModel) {
  AdaptiveConfig config;
  config.verify = false;
  Layouts layouts;
  check_reference_model(row_pages_pool(), config, &layouts);
  EXPECT_EQ(layouts.index_free, 0);
}

// Directed row-page cases. a and b share the /24 page 128.125.5; c sits
// on page 128.125.77, allocated after it.

TEST_F(BookkeepingFixture, DuplicateTargetAcrossRowPagesSharesFirstRow) {
  // The repeat of a comes after c's page was allocated (and memoized), and
  // c's repeat after a's page is back in the memo. Both repeats find
  // their first row and are dropped, whether answered (a) or still
  // pending (c, dark); b then takes the third row.
  const Ipv4 c = Ipv4::from_octets(128, 125, 77, 1);
  Host& up = add_host(a);  // 80 open, 22 closed (RST)
  up.add_service(tcp(80));
  Prober prober(network, {{prober_addr}});
  prober.attach_metrics(registry, "active");
  std::optional<ScanRecord> record;
  prober.start_scan(spec_for({a, c, a, c, b}),
                    [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  const std::vector<std::pair<Ipv4, ProbeStatus>> want = {
      {a, ProbeStatus::kOpen},     {a, ProbeStatus::kClosed},
      {c, ProbeStatus::kFiltered}, {c, ProbeStatus::kFiltered},
      {b, ProbeStatus::kFiltered}, {b, ProbeStatus::kFiltered}};
  ASSERT_EQ(record->outcomes.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(record->outcomes[i].addr, want[i].first) << i;
    EXPECT_EQ(record->outcomes[i].status, want[i].second) << i;
  }
  EXPECT_EQ(registry.snapshot().value_of("active.probes_tcp_sent"), 6.0);
  EXPECT_EQ(responses(), 2u);
}

TEST_F(BookkeepingFixture, IgnoresStrayFromNonTargetInAllocatedPage) {
  // a is row 0 and dark. 128.125.5.9 shares a's page but has no row: its
  // SYN-ACK and port-unreachable for a's ports must not reach row 0.
  const Ipv4 neighbour = Ipv4::from_octets(128, 125, 5, 9);
  send_after(util::msec(5),
             net::make_tcp(neighbour, 80, prober_addr, 40001,
                           net::flags_syn_ack()));
  send_after(util::msec(15), net::make_icmp_port_unreachable(net::make_tcp(
                                 prober_addr, 40002, neighbour, 22,
                                 net::flags_syn())));
  Prober prober(network, {{prober_addr}});
  prober.attach_metrics(registry, "active");
  std::optional<ScanRecord> record;
  prober.start_scan(spec_for({a}), [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 2u);
  EXPECT_EQ(record->count(ProbeStatus::kFiltered), 2u);
  EXPECT_EQ(responses(), 0u);
}

TEST_F(BookkeepingFixture, IgnoresReplyFromUnallocatedPage) {
  // 128.125.6.1 has a's host octet on a /24 with no page (and, checked
  // after a's page is memoized, 10.1.0.1 too), so nothing resolves; a's
  // own SYN-ACK afterwards still does.
  const Ipv4 off_page = Ipv4::from_octets(128, 125, 6, 1);
  send_after(util::msec(5), net::make_tcp(off_page, 80, prober_addr, 40001,
                                          net::flags_syn_ack()));
  send_after(util::msec(6), net::make_tcp(Ipv4::from_octets(10, 1, 0, 1), 80,
                                          prober_addr, 40001,
                                          net::flags_syn_ack()));
  send_after(util::msec(7),
             net::make_tcp(a, 80, prober_addr, 40001, net::flags_syn_ack()));
  Prober prober(network, {{prober_addr}});
  prober.attach_metrics(registry, "active");
  std::optional<ScanRecord> record;
  prober.start_scan(spec_for({a}), [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->outcomes.size(), 2u);
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kOpen);
  EXPECT_EQ(record->outcomes[0].when, kEpoch + util::msec(8));
  EXPECT_EQ(record->outcomes[1].status, ProbeStatus::kFiltered);
  EXPECT_EQ(responses(), 1u);
}

TEST_F(BookkeepingFixture, OneProbeMachineBeforeIdleMachineFinishes) {
  // Regression: with more machines than targets, a machine whose whole
  // share was a single probe finished before the idle machines were
  // counted, so the end-of-phase timer was never armed and the scan
  // never completed. Here: the ping phase (one ping, two machines).
  ScriptedSink sink;
  network.attach(a, &sink);
  sink.reply = [&](const net::Packet& probe) {
    if (probe.proto == net::Proto::kIcmp) {
      send_after(util::msec(1), echo_reply(probe));
    }
  };
  ScanSpec spec = spec_for({a});
  spec.tcp_ports = {80};
  spec.host_discovery = true;
  Prober prober(network, {{prober_addr, Ipv4::from_octets(10, 1, 0, 2)}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->hosts_alive, 1u);
  ASSERT_EQ(record->outcomes.size(), 1u);
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kFiltered);
  EXPECT_FALSE(prober.scan_in_progress());
}

TEST_F(BookkeepingFixture, RejectsGridBeyondIndexRange) {
  // Cells index outcomes in 32 bits: 65,536 targets x 65,536 ports is one
  // probe too many. The check runs before anything is sent or allocated.
  Prober prober(network, {{prober_addr}});
  ScanSpec spec = spec_for(std::vector<Ipv4>(65536, a));
  spec.tcp_ports.resize(65536);
  for (std::size_t i = 0; i < spec.tcp_ports.size(); ++i) {
    spec.tcp_ports[i] = static_cast<net::Port>(i);
  }
  EXPECT_THROW(prober.start_scan(spec), std::length_error);
  spec.host_discovery = true;  // the ping phase checks the same bound
  EXPECT_THROW(prober.start_scan(spec), std::length_error);
  EXPECT_FALSE(prober.scan_in_progress());
  EXPECT_EQ(network.packets_sent(), 0u);

  // The prober stays usable.
  prober.start_scan(spec_for({a}));
  sim.run();
  EXPECT_EQ(prober.scans().size(), 1u);
}

// ------------------------------------------------------ Outcome layouts --
//
// A scan's record layout (DESIGN.md §16) follows from the prober's mode
// alone: a sweep is index-free; the adaptive mode, like a record built by
// hand, keeps each outcome's probe index.

TEST_F(BookkeepingFixture, RepeatFreeSweepIsIndexFreeInRoundRobinOrder) {
  // Five targets on three machines: shares of two, two and one target,
  // walked address-major, port-minor, one probe per machine per round.
  Host& up = add_host(a);
  up.add_service(tcp(80));
  std::vector<Ipv4> targets = {a, b};
  for (std::uint8_t octet = 3; octet <= 5; ++octet) {
    targets.push_back(Ipv4::from_octets(128, 125, 5, octet));
  }
  ScanSpec spec = spec_for(targets);
  spec.udp_ports = {53};
  Prober prober(network, {{prober_addr, Ipv4::from_octets(10, 1, 0, 2),
                           Ipv4::from_octets(10, 1, 0, 3)}});
  std::optional<ScanRecord> record;
  prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(record->outcomes.index_free());

  const std::vector<std::vector<std::size_t>> shares = {{0, 1}, {2, 3}, {4}};
  std::vector<passive::ServiceKey> want;
  for (std::size_t round = 0; round < 6; ++round) {
    for (const std::vector<std::size_t>& share : shares) {
      if (round >= 3 * share.size()) continue;
      const Ipv4 addr = targets[share[round / 3]];
      want.push_back(round % 3 == 2
                         ? passive::ServiceKey{addr, net::Proto::kUdp, 53}
                         : passive::ServiceKey{addr, net::Proto::kTcp,
                                               round % 3 == 0 ? net::Port{80}
                                                              : net::Port{22}});
    }
  }
  ASSERT_EQ(record->outcomes.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(record->outcomes.key(i), want[i]) << i;
  }
  // The machines send together: round 1 goes out 10 ms after round 0.
  EXPECT_EQ(record->outcomes[0].status, ProbeStatus::kOpen);
  EXPECT_EQ(record->outcomes[2].when, kEpoch);
  EXPECT_EQ(record->outcomes[4].when, kEpoch + util::msec(10));
  EXPECT_EQ(record->count(ProbeStatus::kFiltered), 8u);
}

TEST_F(BookkeepingFixture, RepeatedTargetOrPortStaysIndexFree) {
  const auto run = [&](const ScanSpec& spec) {
    Prober prober(network, {{prober_addr, Ipv4::from_octets(10, 1, 0, 2)}});
    std::optional<ScanRecord> record;
    prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
    sim.run();
    return record.value_or(ScanRecord{});
  };
  const ScanRecord plain = run(spec_for({a, b}));
  EXPECT_TRUE(plain.outcomes.index_free());
  const ScanRecord targets = run(spec_for({a, b, a}));
  EXPECT_TRUE(targets.outcomes.index_free());
  EXPECT_EQ(targets.outcomes.size(), 4u);
  ScanSpec ports = spec_for({a, b});
  ports.tcp_ports = {80, 22, 80};
  const ScanRecord columns = run(ports);
  EXPECT_TRUE(columns.outcomes.index_free());
  ASSERT_EQ(columns.outcomes.size(), plain.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    EXPECT_EQ(columns.outcomes.key(i), plain.outcomes.key(i)) << i;
  }
  // A record built by hand is indexed.
  ScanRecord hand;
  hand.outcomes = {{a, net::Proto::kTcp, ProbeStatus::kOpen, 80, kEpoch}};
  EXPECT_FALSE(hand.outcomes.index_free());
}

TEST_F(BookkeepingFixture, AdaptiveModeKeepsIndexedLayout) {
  Prober prober(network, {{prober_addr}}, AdaptiveConfig{});
  std::optional<ScanRecord> record;
  prober.start_scan(spec_for({a, b}),
                    [&](const ScanRecord& r) { record = r; });
  sim.run();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->outcomes.size(), 4u);
  EXPECT_FALSE(record->outcomes.index_free());
}

TEST_F(BookkeepingFixture, SlowPingPrePassStartsPortPhaseInStep) {
  // At 0.2 probes/s machine 0 pings twice (0 s, 5 s) and machine 1 once;
  // 1.1 s later the port phase starts, too soon to refill machine 0's
  // bucket. Buckets are rebuilt at each phase start, so both machines
  // start the port phase full and send in the round-robin order, each
  // still 1/rate apart. At 100 probes/s the pause alone refills them.
  const Ipv4 c = Ipv4::from_octets(128, 125, 5, 3);
  ScriptedSink sink;  // answers every ping, logs the port probes
  std::vector<passive::ServiceKey> order;  // port probes as they arrive
  std::map<std::uint32_t, std::vector<util::TimePoint>> sent;  // per machine
  sink.reply = [&](const net::Packet& probe) {
    if (probe.proto == net::Proto::kIcmp) {
      send_after(util::msec(1), echo_reply(probe));
    } else {
      order.push_back({probe.dst, probe.proto, probe.dport});
      sent[probe.src.value()].push_back(probe.time);
    }
  };
  for (const Ipv4 addr : {a, b, c}) network.attach(addr, &sink);
  ScanSpec spec = spec_for({a, b, c});
  spec.host_discovery = true;
  spec.timeout = util::seconds(1);
  const auto run = [&](double rate) {
    spec.probes_per_sec = rate;
    order.clear();
    sent.clear();
    Prober prober(network, {{prober_addr, Ipv4::from_octets(10, 1, 0, 2)}});
    std::optional<ScanRecord> record;
    prober.start_scan(spec, [&](const ScanRecord& r) { record = r; });
    sim.run();
    return record.value_or(ScanRecord{});
  };
  const ScanRecord slow = run(0.2);
  EXPECT_EQ(slow.hosts_alive, 3u);
  EXPECT_TRUE(slow.outcomes.index_free());
  const std::vector<passive::ServiceKey> want = {
      {a, net::Proto::kTcp, 80}, {c, net::Proto::kTcp, 80},
      {a, net::Proto::kTcp, 22}, {c, net::Proto::kTcp, 22},
      {b, net::Proto::kTcp, 80}, {b, net::Proto::kTcp, 22}};
  // The record names each probe by its send position, so the probes
  // must go out in that order.
  EXPECT_EQ(order, want);
  ASSERT_EQ(slow.outcomes.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(slow.outcomes.key(i), want[i]) << i;
  }
  ASSERT_EQ(sent.size(), 2u);
  for (const auto& [machine, times] : sent) {
    EXPECT_EQ(times.front(), sent.begin()->second.front());
    for (std::size_t i = 1; i < times.size(); ++i) {
      EXPECT_GE((times[i] - times[i - 1]).usec, util::seconds(5).usec)
          << "machine " << Ipv4(machine).to_string() << " probe " << i;
    }
  }

  const ScanRecord fast = run(100.0);
  EXPECT_EQ(fast.hosts_alive, 3u);
  EXPECT_TRUE(fast.outcomes.index_free());
  EXPECT_EQ(fast.outcomes.key(2),
            (passive::ServiceKey{a, net::Proto::kTcp, 22}));
}

// --------------------------------------------------------- Pacing slots --

/// One two-machine scan of a small /24 (open, closed, firewalled, UDP
/// and empty addresses); with `slots_taken`, every pacing slot of the
/// simulator is reserved before the prober asks for its own.
struct PacedScan {
  ScanRecord record;
  std::uint64_t events{0};
};

PacedScan run_paced_scan(bool slots_taken, bool ping,
                         std::optional<AdaptiveConfig> adaptive) {
  sim::Simulator sim;
  if (slots_taken) {
    while (sim.reserve_pacing_slot() != sim::Simulator::kNoPacingSlot) {
    }
  }
  sim::Network network(sim, {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16),
                             Prefix(Ipv4::from_octets(10, 1, 0, 0), 24)});
  const Ipv4 machine_a = Ipv4::from_octets(10, 1, 0, 1);
  std::vector<std::unique_ptr<Host>> hosts;
  const auto add = [&](std::uint8_t octet, net::Proto proto, net::Port port) {
    const auto id = static_cast<host::HostId>(hosts.size() + 1);
    hosts.push_back(std::make_unique<Host>(
        id, network, nullptr, Ipv4::from_octets(128, 125, 1, octet),
        LifecycleConfig{LifecycleKind::kAlwaysOn, {}, {}, false},
        util::Rng(id)));
    Service service;
    service.proto = proto;
    service.port = port;
    hosts.back()->add_service(service);
    hosts.back()->start();
    return hosts.back().get();
  };
  add(1, net::Proto::kTcp, 80);
  add(2, net::Proto::kTcp, 22);
  add(3, net::Proto::kUdp, 53);
  Host* firewalled = add(4, net::Proto::kTcp, 443);
  firewalled->firewall().set_mode(FirewallMode::kBlockProbers);
  firewalled->firewall().add_prober(machine_a);
  add(5, net::Proto::kTcp, 80);
  // .6 to .9 hold no host.

  Prober prober(network, {{machine_a, Ipv4::from_octets(10, 1, 0, 2)}},
                adaptive);
  ScanSpec spec;
  for (std::uint8_t octet = 1; octet <= 9; ++octet) {
    spec.targets.push_back(Ipv4::from_octets(128, 125, 1, octet));
  }
  spec.tcp_ports = {80, 22, 443};
  spec.udp_ports = {53};
  spec.probes_per_sec = 50.0;  // both machines tick on the same usecs
  spec.host_discovery = ping;
  PacedScan out;
  prober.start_scan(spec, [&](const ScanRecord& r) { out.record = r; });
  sim.run();
  out.events = sim.events_processed();
  return out;
}

TEST(ProberPacing, ScanWithEverySlotTakenMatchesScanWithSlots) {
  // The probers' per-probe ticks ride the queue's pacing slots; with
  // every slot already taken they take the heap. Both pop in (time, seq)
  // order, so the scan must not change, in either mode.
  for (const bool ping : {false, true}) {
    for (const bool adaptive : {false, true}) {
      SCOPED_TRACE(testing::Message() << "ping " << ping << " adaptive "
                                      << adaptive);
      const auto mode = adaptive ? std::optional<AdaptiveConfig>(
                                       AdaptiveConfig{.probe_budget = 20})
                                 : std::nullopt;
      const PacedScan slotted = run_paced_scan(false, ping, mode);
      const PacedScan spilled = run_paced_scan(true, ping, mode);
      const ScanOutcomes& want = slotted.record.outcomes;
      const ScanOutcomes& got = spilled.record.outcomes;
      EXPECT_GT(slotted.record.count(ProbeStatus::kOpen), 0u);
      EXPECT_GT(slotted.record.count(ProbeStatus::kClosed), 0u);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].key(), want[i].key()) << i;
        EXPECT_EQ(got[i].status, want[i].status) << i;
        EXPECT_EQ(got[i].when, want[i].when) << i;
      }
      EXPECT_EQ(spilled.record.hosts_alive, slotted.record.hosts_alive);
      EXPECT_EQ(spilled.record.finished, slotted.record.finished);
      EXPECT_EQ(spilled.events, slotted.events);
    }
  }
}

// -------------------------------------------------------------- Scheduler --

TEST_F(ProberFixture, SchedulerFiresPeriodically) {
  Host& h = add_host(Ipv4::from_octets(128, 125, 1, 1));
  h.add_service(tcp(80));
  Prober prober(network, {{prober_addr}});
  ScheduleConfig schedule;
  schedule.first_scan = kEpoch + hours(1);
  schedule.period = hours(12);
  schedule.count = 4;
  ScanScheduler scheduler(sim, prober,
                          spec_for({Ipv4::from_octets(128, 125, 1, 1)}),
                          schedule);
  int completions = 0;
  scheduler.on_scan_complete = [&](const ScanRecord&) { ++completions; };
  scheduler.arm();
  sim.run_until(kEpoch + hours(48));
  EXPECT_EQ(scheduler.fired(), 4);
  EXPECT_EQ(completions, 4);
  ASSERT_EQ(prober.scans().size(), 4u);
  EXPECT_EQ(prober.scans()[0].started, kEpoch + hours(1));
  EXPECT_EQ(prober.scans()[1].started, kEpoch + hours(13));
}

TEST_F(ProberFixture, SchedulerCannotArmTwice) {
  Prober prober(network, {{prober_addr}});
  ScanScheduler scheduler(sim, prober, spec_for({}), ScheduleConfig{});
  scheduler.arm();
  EXPECT_THROW(scheduler.arm(), std::logic_error);
}

}  // namespace
}  // namespace svcdisc::active
