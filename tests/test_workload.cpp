// Unit tests for workload: diurnal curve, flow generation, external
// scanners, and campus construction invariants.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <vector>

#include "workload/campus.h"
#include "workload/diurnal.h"
#include "workload/external_scanner.h"
#include "workload/flow_generator.h"

namespace svcdisc::workload {
namespace {

using host::AddressClass;
using net::Ipv4;
using net::Prefix;
using util::hours;
using util::kEpoch;

// ---------------------------------------------------------------- Diurnal

TEST(Diurnal, PeaksAtConfiguredHour) {
  const util::Calendar cal(2006, 9, 19, 0);  // campaign starts at midnight
  DiurnalCurve curve(0.6, 14.0, cal);
  const double at_peak = curve.multiplier(kEpoch + hours(14));
  const double at_trough = curve.multiplier(kEpoch + hours(2));
  EXPECT_NEAR(at_peak, 1.6, 1e-6);
  EXPECT_NEAR(at_trough, 0.4, 1e-6);
  EXPECT_DOUBLE_EQ(curve.max_multiplier(), 1.6);
}

TEST(Diurnal, MeanIsOneOverADay) {
  const util::Calendar cal(2006, 9, 19, 0);
  DiurnalCurve curve(0.5, 14.0, cal);
  double total = 0;
  constexpr int kSamples = 24 * 60;
  for (int i = 0; i < kSamples; ++i) {
    total += curve.multiplier(kEpoch + util::minutes(i));
  }
  EXPECT_NEAR(total / kSamples, 1.0, 1e-3);
}

TEST(Diurnal, RejectsBadAmplitude) {
  EXPECT_THROW(DiurnalCurve(1.0), std::invalid_argument);
  EXPECT_THROW(DiurnalCurve(-0.1), std::invalid_argument);
}

// ---------------------------------------------------------- FlowGenerator

struct FlowFixture : ::testing::Test {
  FlowFixture()
      : network(sim, {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16)}),
        server(1, network, nullptr, Ipv4::from_octets(128, 125, 1, 1),
               host::LifecycleConfig{host::LifecycleKind::kAlwaysOn,
                                     {},
                                     {},
                                     false},
               util::Rng(7)) {
    host::Service web;
    web.proto = net::Proto::kTcp;
    web.port = 80;
    server.add_service(web);
    server.start();
  }
  sim::Simulator sim;
  sim::Network network;
  host::Host server;
};

TEST_F(FlowFixture, GeneratesRoughlyExpectedFlowCount) {
  FlowGenerator gen(network, DiurnalCurve(0.0), util::Rng(3));
  TrafficTarget t;
  t.target = &server;
  t.proto = net::Proto::kTcp;
  t.port = 80;
  t.flows_per_hour = 100.0;
  t.clients = {Ipv4::from_octets(66, 1, 1, 1), Ipv4::from_octets(66, 1, 1, 2)};
  gen.add_target(std::move(t));
  gen.start();
  sim.run_until(kEpoch + hours(10));
  EXPECT_NEAR(static_cast<double>(gen.flows_generated()), 1000.0, 150.0);
}

TEST_F(FlowFixture, ZeroRateTargetGeneratesNothing) {
  FlowGenerator gen(network, DiurnalCurve(0.0), util::Rng(3));
  TrafficTarget t;
  t.target = &server;
  t.flows_per_hour = 0.0;
  t.clients = {Ipv4::from_octets(66, 1, 1, 1)};
  gen.add_target(std::move(t));
  gen.start();
  sim.run_until(kEpoch + hours(10));
  EXPECT_EQ(gen.flows_generated(), 0u);
}

TEST_F(FlowFixture, CannotAddTargetsAfterStart) {
  FlowGenerator gen(network, DiurnalCurve(0.0), util::Rng(3));
  gen.start();
  EXPECT_THROW(gen.add_target({}), std::logic_error);
}

TEST_F(FlowFixture, FlowsCrossBorderAndElicitSynAck) {
  network.border().add_peering("only", 1.0);
  class SynAckCounter : public sim::PacketObserver {
   public:
    void observe(const net::Packet& p) override {
      syn += p.proto == net::Proto::kTcp && p.flags.is_syn_only();
      synack += p.proto == net::Proto::kTcp && p.flags.is_syn_ack();
    }
    int syn{0}, synack{0};
  } tap;
  network.border().add_tap(0, &tap);

  FlowGenerator gen(network, DiurnalCurve(0.0), util::Rng(3));
  TrafficTarget t;
  t.target = &server;
  t.proto = net::Proto::kTcp;
  t.port = 80;
  t.flows_per_hour = 50.0;
  t.clients = {Ipv4::from_octets(66, 1, 1, 1)};
  gen.add_target(std::move(t));
  gen.start();
  sim.run_until(kEpoch + hours(5));
  EXPECT_GT(tap.syn, 100);
  EXPECT_EQ(tap.syn, tap.synack);  // open service answers every SYN
}

// -------------------------------------------------------- ExternalScanner

TEST(ExternalScanner, SweepCoversItsSlice) {
  sim::Simulator sim;
  sim::Network network(sim, {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16)});
  std::vector<Ipv4> targets;
  for (int i = 0; i < 100; ++i) {
    targets.push_back(Ipv4::from_octets(128, 125, 0,
                                        static_cast<std::uint8_t>(i)));
  }
  ExternalScannerFleet fleet(
      network, std::make_shared<const std::vector<Ipv4>>(std::move(targets)));
  SweepSpec sweep;
  sweep.source = Ipv4::from_octets(7, 7, 7, 7);
  sweep.start = kEpoch + hours(1);
  sweep.port = 22;
  sweep.probes_per_sec = 100.0;
  sweep.first_target = 10;
  sweep.last_target = 60;
  fleet.add_sweep(sweep);
  fleet.start();
  sim.run_until(kEpoch + hours(2));
  EXPECT_EQ(fleet.probes_sent(), 50u);
  EXPECT_EQ(fleet.scanner_sources().size(), 1u);
}

TEST(ExternalScanner, ZeroLastTargetMeansAll) {
  sim::Simulator sim;
  sim::Network network(sim, {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16)});
  std::vector<Ipv4> targets(25, Ipv4::from_octets(128, 125, 0, 1));
  ExternalScannerFleet fleet(
      network, std::make_shared<const std::vector<Ipv4>>(std::move(targets)));
  SweepSpec sweep;
  sweep.source = Ipv4::from_octets(7, 7, 7, 7);
  sweep.probes_per_sec = 100.0;
  fleet.add_sweep(sweep);
  fleet.start();
  sim.run();
  EXPECT_EQ(fleet.probes_sent(), 25u);
}

// ----------------------------------------------------------------- Campus

struct CampusFixture : ::testing::Test {
  CampusFixture() : campus(CampusConfig::tiny()) {}
  Campus campus;
};

TEST_F(CampusFixture, AddressPlanBlocksClassified) {
  const auto base = campus.config().campus_base;
  EXPECT_EQ(campus.class_of(base + 10), AddressClass::kStatic);
  EXPECT_EQ(campus.class_of(base + 14080), AddressClass::kVpn);
  EXPECT_EQ(campus.class_of(base + 14336), AddressClass::kDhcp);
  EXPECT_EQ(campus.class_of(base + 15360), AddressClass::kPpp);
  EXPECT_EQ(campus.class_of(base + 15872), AddressClass::kWireless);
  EXPECT_EQ(campus.class_of(Ipv4::from_octets(8, 8, 8, 8)),
            AddressClass::kStatic);
}

TEST_F(CampusFixture, ScanTargetsExcludeWirelessByDefault) {
  const auto base = campus.config().campus_base;
  for (const Ipv4 target : campus.scan_targets()) {
    EXPECT_NE(campus.class_of(target), AddressClass::kWireless)
        << target.to_string();
  }
  // Static + VPN + DHCP + PPP all present.
  std::unordered_set<AddressClass> classes;
  for (const Ipv4 target : campus.scan_targets()) {
    classes.insert(campus.class_of(target));
  }
  EXPECT_TRUE(classes.contains(AddressClass::kStatic));
  EXPECT_TRUE(classes.contains(AddressClass::kVpn));
  EXPECT_TRUE(classes.contains(AddressClass::kDhcp));
  EXPECT_TRUE(classes.contains(AddressClass::kPpp));
  (void)base;
}

TEST_F(CampusFixture, ProberSourcesAreInternalButOffCampus) {
  ASSERT_FALSE(campus.prober_sources().empty());
  const Prefix campus_prefix(campus.config().campus_base, 16);
  for (const Ipv4 src : campus.prober_sources()) {
    EXPECT_TRUE(campus.network().is_internal(src));
    EXPECT_FALSE(campus_prefix.contains(src));
  }
}

TEST_F(CampusFixture, PopulationCountsMatchConfig) {
  const auto& cfg = campus.config();
  std::size_t static_servers = 0, vpn_hosts = 0, wireless_with_service = 0;
  for (const HostInfo& info : campus.hosts()) {
    if (info.cls == AddressClass::kStatic && info.has_service) {
      ++static_servers;
    }
    vpn_hosts += info.cls == AddressClass::kVpn;
    wireless_with_service +=
        info.cls == AddressClass::kWireless && info.has_service;
  }
  const std::size_t expected_web = cfg.web_custom + cfg.web_default +
                                   cfg.web_minimal + cfg.web_config +
                                   cfg.web_database + cfg.web_restricted;
  EXPECT_EQ(static_servers, expected_web + cfg.ssh_only + cfg.ftp_only +
                                cfg.mysql_only);
  EXPECT_EQ(vpn_hosts, cfg.vpn_hosts);
  EXPECT_EQ(wireless_with_service, 0u);  // the paper found none
}

TEST_F(CampusFixture, DeterministicForSameSeed) {
  Campus other(CampusConfig::tiny());
  ASSERT_EQ(campus.hosts().size(), other.hosts().size());
  for (std::size_t i = 0; i < campus.hosts().size(); ++i) {
    const HostInfo& a = campus.hosts()[i];
    const HostInfo& b = other.hosts()[i];
    EXPECT_EQ(a.cls, b.cls);
    ASSERT_EQ(a.host->services().size(), b.host->services().size());
    for (std::size_t s = 0; s < a.host->services().size(); ++s) {
      EXPECT_EQ(a.host->services()[s].port, b.host->services()[s].port);
    }
  }
}

TEST_F(CampusFixture, HostAtTracksOnlineHosts) {
  campus.start();
  campus.simulator().run_until(kEpoch + hours(1));
  // Every always-on static host is reachable through host_at.
  int checked = 0;
  for (const HostInfo& info : campus.hosts()) {
    if (info.cls != AddressClass::kStatic) continue;
    ASSERT_TRUE(info.host->online());
    ASSERT_TRUE(info.host->address().has_value());
    EXPECT_EQ(campus.host_at(*info.host->address()), info.host);
    if (++checked > 20) break;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(CampusFixture, StartTwiceThrows) {
  campus.start();
  EXPECT_THROW(campus.start(), std::logic_error);
}

TEST(CampusPresets, PresetParametersMatchPaperDatasets) {
  const auto d18 = CampusConfig::dtcp1_18d();
  EXPECT_EQ(d18.duration.days(), 18.0);
  const auto d90 = CampusConfig::dtcp1_90d();
  EXPECT_EQ(d90.duration.days(), 90.0);
  const auto brk = CampusConfig::dtcp_break();
  EXPECT_EQ(brk.duration.days(), 11.0);
  EXPECT_TRUE(brk.internet2);
  EXPECT_LT(brk.vpn_hosts, d18.vpn_hosts / 4);
  const auto all = CampusConfig::dtcp_all();
  EXPECT_TRUE(all.all_ports_mode);
  EXPECT_EQ(all.static_addresses, 256u);
  const auto udp = CampusConfig::dudp();
  EXPECT_TRUE(udp.udp_mode);
  EXPECT_EQ(udp.duration.days(), 1.0);
}

TEST(CampusPresets, FullScaleAddressPlanIs16130ish) {
  // The paper studies 16,130 addresses; our plan covers 13,826 static +
  // 2,304 transient = 16,130 with wireless included in the space.
  const auto cfg = CampusConfig::dtcp1_18d();
  EXPECT_EQ(cfg.static_addresses + 256u + 1024u + 512u + 512u, 16130u);
}

TEST(CampusAllPorts, LabSubnetHasPortDiversity) {
  Campus campus(CampusConfig::dtcp_all());
  EXPECT_GT(campus.tcp_ports().size(), 200u);
  std::unordered_set<net::Port> service_ports;
  for (const HostInfo& info : campus.hosts()) {
    for (const auto& s : info.host->services()) service_ports.insert(s.port);
  }
  EXPECT_TRUE(service_ports.contains(22));
  EXPECT_TRUE(service_ports.contains(135));  // epmap
  EXPECT_TRUE(service_ports.contains(80));
  EXPECT_GT(service_ports.size(), 10u);
}

TEST(CampusUdp, UdpModePopulatesUdpServices) {
  auto cfg = CampusConfig::tiny();
  cfg.udp_mode = true;
  Campus campus(cfg);
  EXPECT_EQ(campus.udp_ports(), net::selected_udp_ports());
  std::size_t udp_services = 0;
  for (const HostInfo& info : campus.hosts()) {
    for (const auto& s : info.host->services()) {
      udp_services += s.proto == net::Proto::kUdp;
    }
  }
  EXPECT_GT(udp_services, 10u);
}

}  // namespace
}  // namespace svcdisc::workload
