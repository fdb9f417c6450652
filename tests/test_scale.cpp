// Scale-universe suite (`ctest -L scale`, DESIGN.md §14): the
// internet-scale address layer must (a) compute stateless per-address
// profiles that track the configured fractions, (b) answer probes and
// contacts exactly the way a default Host would, (c) materialize state
// only for contacted addresses, and (d) carry a million-address
// campaign with bounded RSS. The expensive million-address campaign is
// shared across all its assertions, so this binary is registered as a single ctest entry
// (like test_calibration), not through gtest_discover_tests.
//
// SVCDISC_SCALE_SMOKE=1 shrinks the big campaign to one /16 block —
// scripts/sanitize.sh sets it so the ASan pass stays fast.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__)
#include <sys/resource.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define SVCDISC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SVCDISC_ASAN 1
#endif
#endif

#include "core/campaign_runner.h"
#include "core/engine.h"
#include "host/universe.h"
#include "net/packet.h"
#include "passive/table_io.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "workload/campus.h"

namespace svcdisc {
namespace {

using net::Ipv4;
using net::Packet;
using net::Prefix;

bool scale_smoke() {
  const char* env = std::getenv("SVCDISC_SCALE_SMOKE");
  return env && *env && std::strcmp(env, "0") != 0;
}

// ---------------------------------------------------------------------
// ScaleUniverse unit coverage: profiles and reply semantics.

class Recorder final : public sim::PacketSink {
 public:
  void on_packet(const Packet& p) override { received.push_back(p); }
  std::vector<Packet> received;
};

struct UniverseFixture : ::testing::Test {
  static constexpr auto kBlock = [] {
    return Prefix(Ipv4::from_octets(11, 0, 0, 0), 16);
  };

  UniverseFixture() : network(sim, {kBlock()}) {
    host::ScaleUniverseConfig cfg;
    cfg.blocks = {kBlock()};
    cfg.seed = 0x5CA1EULL;
    universe = std::make_unique<host::ScaleUniverse>(network, cfg);
    network.attach(client, &recorder);
  }

  /// Sends `p` and returns the reply it elicited, if any.
  const Packet* exchange(const Packet& p) {
    const std::size_t before = recorder.received.size();
    network.send(p);
    sim.run();
    if (recorder.received.size() == before) return nullptr;
    EXPECT_EQ(recorder.received.size(), before + 1);
    return &recorder.received.back();
  }

  /// First universe address whose profile satisfies `pred`.
  template <typename Pred>
  Ipv4 find_addr(Pred pred) {
    for (const Ipv4 addr : kBlock()) {
      if (pred(universe->profile(addr))) return addr;
    }
    ADD_FAILURE() << "no address matches predicate";
    return Ipv4(0);
  }

  sim::Simulator sim;
  sim::Network network;
  std::unique_ptr<host::ScaleUniverse> universe;
  const Ipv4 client = Ipv4::from_octets(66, 1, 1, 1);
  Recorder recorder;
};

TEST_F(UniverseFixture, ProfilesTrackConfiguredFractions) {
  std::size_t live = 0, service = 0, echo = 0;
  for (const Ipv4 addr : kBlock()) {
    const auto prof = universe->profile(addr);
    live += prof.live;
    service += prof.service;
    echo += prof.icmp_echo;
    if (prof.service) {
      EXPECT_TRUE(prof.port == net::Port{80} || prof.port == net::Port{22} ||
                  prof.port == net::Port{443})
          << "service port " << prof.port;
    } else {
      EXPECT_EQ(prof.port, net::Port{0});
    }
    if (!prof.live) {
      EXPECT_FALSE(prof.service);
      EXPECT_FALSE(prof.icmp_echo);
    }
  }
  const double n = static_cast<double>(kBlock().size());
  EXPECT_NEAR(static_cast<double>(live) / n, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(service) / static_cast<double>(live), 0.02,
              0.005);
  EXPECT_NEAR(static_cast<double>(echo) / static_cast<double>(live), 0.8,
              0.02);
  // Probing the whole block consumed no state: profiles are pure.
  EXPECT_EQ(universe->materialized_count(), 0u);
}

TEST_F(UniverseFixture, ProfilesAreDeterministicPerSeed) {
  host::ScaleUniverseConfig cfg;
  cfg.blocks = {kBlock()};
  cfg.seed = 0x5CA1EULL;
  sim::Simulator other_sim;
  sim::Network other_net(other_sim, {kBlock()});
  host::ScaleUniverse twin(other_net, cfg);
  cfg.seed = 0xD1FFULL;
  sim::Simulator reseeded_sim;
  sim::Network reseeded_net(reseeded_sim, {kBlock()});
  host::ScaleUniverse reseeded(reseeded_net, cfg);

  std::size_t differing = 0;
  for (std::uint32_t i = 0; i < 4096; ++i) {
    const Ipv4 addr(kBlock().base().value() + i * 16);
    const auto a = universe->profile(addr);
    const auto b = twin.profile(addr);
    EXPECT_EQ(a.live, b.live);
    EXPECT_EQ(a.service, b.service);
    EXPECT_EQ(a.icmp_echo, b.icmp_echo);
    EXPECT_EQ(a.port, b.port);
    const auto c = reseeded.profile(addr);
    differing += a.live != c.live || a.service != c.service;
  }
  EXPECT_GT(differing, 0u) << "different seed produced identical universe";
}

TEST_F(UniverseFixture, ReplySemanticsMirrorHostDefaults) {
  const Ipv4 service_addr =
      find_addr([](const host::ScaleProfile& p) { return p.service; });
  const net::Port open_port = universe->profile(service_addr).port;
  const Ipv4 live_addr = find_addr(
      [](const host::ScaleProfile& p) { return p.live && !p.service; });
  const Ipv4 dark_addr =
      find_addr([](const host::ScaleProfile& p) { return !p.live; });
  const Ipv4 echo_addr = find_addr(
      [](const host::ScaleProfile& p) { return p.live && p.icmp_echo; });
  const Ipv4 deaf_addr = find_addr(
      [](const host::ScaleProfile& p) { return p.live && !p.icmp_echo; });

  // SYN to the listening port: SYN-ACK acknowledging our sequence.
  Packet syn = net::make_tcp(client, net::Port{31000}, service_addr,
                             open_port, net::flags_syn());
  syn.seq = 41;
  const Packet* reply = exchange(syn);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->proto, net::Proto::kTcp);
  EXPECT_TRUE(reply->flags.is_syn_ack());
  EXPECT_EQ(reply->ack_no, 42u);
  EXPECT_EQ(reply->src, service_addr);
  EXPECT_EQ(reply->sport, open_port);

  // SYN to a closed port of a live machine: RST. (Port 3306 is in the
  // campus scan list but never in a universe profile.)
  reply = exchange(net::make_tcp(client, net::Port{31000}, live_addr,
                                 net::Port{3306}, net::flags_syn()));
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->flags.rst());

  // Dark address, and non-SYN segments anywhere: silence.
  EXPECT_EQ(exchange(net::make_tcp(client, net::Port{31000}, dark_addr,
                                   net::Port{80}, net::flags_syn())),
            nullptr);
  EXPECT_EQ(exchange(net::make_tcp(client, net::Port{31000}, service_addr,
                                   open_port, net::flags_ack())),
            nullptr);

  // UDP: live machines answer ICMP port-unreachable, dark ones nothing.
  reply = exchange(
      net::make_udp(client, net::Port{31000}, live_addr, net::Port{53}, 64));
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->proto, net::Proto::kIcmp);
  EXPECT_EQ(reply->icmp_type, net::IcmpType::kDestUnreachable);
  EXPECT_EQ(exchange(net::make_udp(client, net::Port{31000}, dark_addr,
                                   net::Port{53}, 64)),
            nullptr);

  // ICMP echo: only ping-visible live machines answer.
  Packet ping;
  ping.src = client;
  ping.dst = echo_addr;
  ping.proto = net::Proto::kIcmp;
  ping.icmp_type = net::IcmpType::kEchoRequest;
  reply = exchange(ping);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->icmp_type, net::IcmpType::kEchoReply);
  ping.dst = deaf_addr;
  EXPECT_EQ(exchange(ping), nullptr);
}

TEST_F(UniverseFixture, MaterializesOnlyContactedAddresses) {
  EXPECT_EQ(universe->materialized_count(), 0u);
  EXPECT_EQ(universe->memory_bytes(), 0u);
  constexpr std::uint32_t kContacted = 100;
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < kContacted; ++i) {
      network.send(net::make_tcp(client, net::Port{31000},
                                 Ipv4(kBlock().base().value() + i * 7),
                                 net::Port{80}, net::flags_syn()));
    }
    sim.run();
    // Repeat contacts reuse their slot; the SoA grows with *distinct*
    // contacted addresses only.
    EXPECT_EQ(universe->materialized_count(), kContacted);
  }
  EXPECT_LT(universe->memory_bytes(), kContacted * 64u);
  EXPECT_GT(universe->replies_sent(), 0u);
}

// ---------------------------------------------------------------------
// Campus integration: a contacts-only universe stays lazy end to end.

TEST(ScaleCampus, ContactsOnlyMaterializeContactedAddresses) {
  auto cfg = workload::CampusConfig::tiny();
  cfg.duration = util::seconds_f(0.25 * 86400.0);
  cfg.scale_blocks = 4;
  cfg.scale_block_bits = 20;  // 4 x 4096 addresses
  cfg.scale_scan = false;     // nothing probes the universe
  cfg.scale_oneshot_contacts = 64;
  workload::Campus campus(cfg);
  ASSERT_NE(campus.universe(), nullptr);
  EXPECT_EQ(campus.universe()->universe_size(), 4u * 4096u);
  campus.start();
  campus.simulator().run_until(util::kEpoch + cfg.duration);

  const auto& u = *campus.universe();
  // Only the contacted service addresses exist; the other ~16k never
  // cost a byte.
  EXPECT_GT(u.materialized_count(), 0u);
  EXPECT_LE(u.materialized_count(), 64u);
  EXPECT_GT(u.replies_sent(), 0u);
  EXPECT_LT(u.memory_bytes(), 16u * 1024u);
}

// ---------------------------------------------------------------------
// The million-address campaign: bounded memory.

struct ScaleRun {
  std::string passive_table;
  util::MetricsSnapshot snapshot;
  std::string error;
};

ScaleRun run_scale_campaign(const workload::CampusConfig& campus_cfg) {
  core::CampaignJob job;
  job.campus_cfg = campus_cfg;
  job.engine_cfg.scan_count = 1;
  job.seed = 1;
  job.label = "scale";
  job.provenance = true;
  std::vector<core::CampaignJob> jobs;
  jobs.push_back(std::move(job));
  auto results = core::CampaignRunner(1).run(std::move(jobs));
  core::CampaignResult& r = results.at(0);
  ScaleRun out;
  if (!r.ok()) {
    out.error = r.error;
    return out;
  }
  {
    std::ostringstream s;
    passive::save_table(r.engine->monitor().table(), s);
    out.passive_table = s.str();
  }
  out.snapshot = std::move(r.snapshot);
  return out;
}

TEST(ScaleCampaign, MillionAddressesBoundedRss) {
  auto cfg = workload::CampusConfig::scale1m();
  if (scale_smoke()) cfg.scale_blocks = 1;  // one /16 under sanitizers
  const std::uint64_t expected_universe =
      std::uint64_t{cfg.scale_blocks} << (32 - cfg.scale_block_bits);

  const ScaleRun run = run_scale_campaign(cfg);
  ASSERT_TRUE(run.error.empty()) << run.error;

  // The universe gauges are part of the deterministic metrics export.
  EXPECT_EQ(run.snapshot.value_of("scale.universe_addresses"),
            static_cast<double>(expected_universe));
  // A full-universe scan contacts every address, so the SoA reaches
  // universe size — at ~28 bytes per contacted address, not a Host each.
  EXPECT_EQ(run.snapshot.value_of("scale.materialized_addresses"),
            static_cast<double>(expected_universe));
  EXPECT_GT(run.snapshot.value_of("scale.replies_sent"), 0.0);
  EXPECT_LT(run.snapshot.value_of("scale.universe_bytes"),
            64.0 * 1024 * 1024);

  // Passive discovery still works at scale: the one-shot contacts are
  // observable at the border taps.
  EXPECT_NE(run.passive_table.find("tcp"), std::string::npos);

#if defined(__unix__) && !defined(SVCDISC_ASAN)
  // Peak RSS over the whole binary — including the full campaign
  // above — must stay far below what a Host per address would cost
  // (shadow memory makes the figure meaningless under ASan). A
  // RelWithDebInfo x86-64 build peaks at ~65 MiB, its two sweeps' records
  // index-free (DESIGN.md §16); the ceiling is that plus 25%, rounded up
  // to 10 MiB, so indexed records (~126 MiB) fail it.
  if (!scale_smoke()) {
    struct rusage usage {};
    ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
    const long rss_mb = usage.ru_maxrss / 1024;  // ru_maxrss is KiB on Linux
    EXPECT_LT(rss_mb, 90) << "peak RSS " << rss_mb << " MiB";
  }
#endif
}

}  // namespace
}  // namespace svcdisc
