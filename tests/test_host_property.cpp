// Property sweeps over host response semantics: for every firewall mode
// and source kind, the host's reply to a SYN follows the paper's
// decision table exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <type_traits>

#include "analysis/timeseries.h"
#include "host/host.h"
#include "net/packet.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace svcdisc::host {
namespace {

using net::Ipv4;
using net::Packet;
using net::Prefix;

enum class SourceKind { kExternalClient, kInternalProber };
enum class PortKind { kOpenService, kClosedPort };
enum class Reply { kSynAck, kRst, kSilence };

// gtest has no printer for CaseSpec, so each case is registered under a
// hex dump of its 16 bytes. `name_tag` makes the three bytes after `mode`
// an explicit, zeroed field instead of padding (see PoolCase in
// test_pool_property.cpp), so the case names never depend on what the
// padding held.
struct CaseSpec {
  FirewallMode mode;
  std::uint8_t name_tag[3];
  SourceKind source;
  PortKind port;
  Reply expected;
};
static_assert(sizeof(CaseSpec) == 16);
static_assert(std::has_unique_object_representations_v<CaseSpec>,
              "CaseSpec must have no padding");

// The full decision table for SYN handling (kPortKnock: no knock given,
// so the protected service stays silent; closed ports are not covered by
// the port-scoped knock and RST normally).
const CaseSpec kCases[] = {
    {FirewallMode::kOpen, {}, SourceKind::kExternalClient,
     PortKind::kOpenService, Reply::kSynAck},
    {FirewallMode::kOpen, {}, SourceKind::kExternalClient,
     PortKind::kClosedPort, Reply::kRst},
    {FirewallMode::kOpen, {}, SourceKind::kInternalProber,
     PortKind::kOpenService, Reply::kSynAck},
    {FirewallMode::kOpen, {}, SourceKind::kInternalProber,
     PortKind::kClosedPort, Reply::kRst},
    {FirewallMode::kBlockProbers, {}, SourceKind::kExternalClient,
     PortKind::kOpenService, Reply::kSynAck},
    {FirewallMode::kBlockProbers, {}, SourceKind::kInternalProber,
     PortKind::kOpenService, Reply::kSilence},
    {FirewallMode::kBlockProbers, {}, SourceKind::kInternalProber,
     PortKind::kClosedPort, Reply::kSilence},
    {FirewallMode::kBlockExternal, {}, SourceKind::kExternalClient,
     PortKind::kOpenService, Reply::kSilence},
    {FirewallMode::kBlockExternal, {}, SourceKind::kExternalClient,
     PortKind::kClosedPort, Reply::kSilence},
    {FirewallMode::kBlockExternal, {}, SourceKind::kInternalProber,
     PortKind::kOpenService, Reply::kSynAck},
    {FirewallMode::kBlockExternal, {}, SourceKind::kInternalProber,
     PortKind::kClosedPort, Reply::kRst},
    {FirewallMode::kBlockAll, {}, SourceKind::kExternalClient,
     PortKind::kOpenService, Reply::kSilence},
    {FirewallMode::kBlockAll, {}, SourceKind::kInternalProber,
     PortKind::kOpenService, Reply::kSilence},
};

class HostResponse : public ::testing::TestWithParam<CaseSpec> {};

TEST_P(HostResponse, MatchesDecisionTable) {
  const CaseSpec spec = GetParam();
  sim::Simulator sim;
  sim::Network network(sim,
                       {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16),
                        Prefix(Ipv4::from_octets(10, 1, 0, 0), 24)});
  const Ipv4 host_addr = Ipv4::from_octets(128, 125, 7, 7);
  const Ipv4 prober = Ipv4::from_octets(10, 1, 0, 1);
  const Ipv4 client = Ipv4::from_octets(66, 5, 4, 3);

  Host host(1, network, nullptr, host_addr,
            LifecycleConfig{LifecycleKind::kAlwaysOn, {}, {}, false},
            util::Rng(3));
  Service web;
  web.proto = net::Proto::kTcp;
  web.port = 80;
  host.add_service(web);
  host.firewall().set_mode(spec.mode);
  host.firewall().add_prober(prober);
  host.start();

  class Rec : public sim::PacketSink {
   public:
    void on_packet(const Packet& p) override { reply = p; }
    std::optional<Packet> reply;
  } rec;
  const Ipv4 source =
      spec.source == SourceKind::kInternalProber ? prober : client;
  network.attach(source, &rec);
  const net::Port dport = spec.port == PortKind::kOpenService ? 80 : 4444;
  network.send(net::make_tcp(source, 999, host_addr, dport,
                             net::flags_syn()));
  sim.run();

  switch (spec.expected) {
    case Reply::kSynAck:
      ASSERT_TRUE(rec.reply.has_value());
      EXPECT_TRUE(rec.reply->flags.is_syn_ack());
      break;
    case Reply::kRst:
      ASSERT_TRUE(rec.reply.has_value());
      EXPECT_TRUE(rec.reply->flags.rst());
      break;
    case Reply::kSilence:
      EXPECT_FALSE(rec.reply.has_value());
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(DecisionTable, HostResponse,
                         ::testing::ValuesIn(kCases));

// StepCurve property: the incremental structure must agree with a naive
// O(n^2) recomputation over random event sets.
TEST(StepCurveProperty, MatchesNaiveRecomputation) {
  util::Rng rng(0x57EB);
  for (int trial = 0; trial < 50; ++trial) {
    analysis::StepCurve curve;
    std::vector<std::pair<util::TimePoint, double>> events;
    const int n = 1 + static_cast<int>(rng.below(200));
    for (int i = 0; i < n; ++i) {
      const util::TimePoint t{
          static_cast<std::int64_t>(rng.below(1'000'000))};
      const double w = 1.0 + static_cast<double>(rng.below(5));
      curve.add(t, w);
      events.emplace_back(t, w);
    }
    for (int probe = 0; probe < 20; ++probe) {
      const util::TimePoint at{
          static_cast<std::int64_t>(rng.below(1'100'000))};
      double naive = 0;
      for (const auto& [t, w] : events) {
        if (t <= at) naive += w;
      }
      ASSERT_DOUBLE_EQ(curve.at(at), naive) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace svcdisc::host
