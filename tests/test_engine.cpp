// Tests for core::DiscoveryEngine wiring: tap construction, sampled and
// per-link monitors, extra consumers, scan scheduling configuration.
#include <gtest/gtest.h>

#include <stdexcept>

#include "capture/pcap_file.h"
#include "capture/sampler.h"
#include "core/engine.h"
#include "workload/campus.h"

namespace svcdisc::core {
namespace {

using util::hours;
using util::kEpoch;
using util::minutes;

workload::CampusConfig fast_tiny() {
  auto cfg = workload::CampusConfig::tiny();
  cfg.duration = util::days(1);
  return cfg;
}

TEST(DiscoveryEngine, OneTapPerPeering) {
  workload::Campus campus(fast_tiny());
  DiscoveryEngine engine(campus, EngineConfig{});
  EXPECT_EQ(engine.tap_count(),
            campus.network().border().peering_count());
  EXPECT_EQ(engine.tap(0).name(), "commercial1");
  EXPECT_EQ(engine.tap(1).name(), "commercial2");
}

TEST(DiscoveryEngine, RejectsThreadsOtherThanOne) {
  // The engine is serial; EngineConfig::threads survives only as a
  // must-be-1 field, and any other value is a configuration error.
  workload::Campus campus(fast_tiny());
  for (const std::size_t threads : {0u, 2u, 4u}) {
    EngineConfig cfg;
    cfg.threads = threads;
    EXPECT_THROW({ DiscoveryEngine engine(campus, cfg); },
                 std::invalid_argument)
        << "threads " << threads;
  }
}

TEST(DiscoveryEngine, NoScansWhenDisabled) {
  workload::Campus campus(fast_tiny());
  EngineConfig cfg;
  cfg.scan_count = 0;
  DiscoveryEngine engine(campus, cfg);
  EXPECT_EQ(engine.scheduler(), nullptr);
  engine.run();
  EXPECT_TRUE(engine.prober().scans().empty());
  EXPECT_GT(engine.monitor().table().size(), 0u);
}

TEST(DiscoveryEngine, ScanScheduleRespected) {
  workload::Campus campus(fast_tiny());
  EngineConfig cfg;
  cfg.scan_count = 2;
  cfg.scan_period = hours(12);
  cfg.first_scan_offset = hours(1);
  DiscoveryEngine engine(campus, cfg);
  engine.run();
  ASSERT_EQ(engine.prober().scans().size(), 2u);
  EXPECT_EQ(engine.prober().scans()[0].started, kEpoch + hours(1));
  EXPECT_EQ(engine.prober().scans()[1].started, kEpoch + hours(13));
}

TEST(DiscoveryEngine, SampledMonitorSeesSubset) {
  workload::Campus campus(fast_tiny());
  EngineConfig cfg;
  cfg.scan_count = 0;
  DiscoveryEngine engine(campus, cfg);
  auto& sampled = engine.add_sampled_monitor(
      std::make_unique<capture::FixedPeriodSampler>(minutes(10), hours(1)));
  engine.run();
  EXPECT_LT(sampled.packets_seen(), engine.monitor().packets_seen());
  EXPECT_LE(sampled.table().size(), engine.monitor().table().size());
  // Everything the sampled monitor found, the full monitor found too.
  sampled.table().for_each(
      [&](const passive::ServiceKey& key, const passive::ServiceRecord&) {
        EXPECT_TRUE(engine.monitor().table().contains(key));
      });
}

TEST(DiscoveryEngine, ExcludedMonitorOnlyWhenConfigured) {
  workload::Campus campus(fast_tiny());
  DiscoveryEngine plain(campus, EngineConfig{});
  EXPECT_EQ(plain.excluded_monitor(), nullptr);
}

TEST(DiscoveryEngine, ExtraTapConsumerReceivesTraffic) {
  workload::Campus campus(fast_tiny());
  EngineConfig cfg;
  cfg.scan_count = 0;
  DiscoveryEngine engine(campus, cfg);
  const std::string path = ::testing::TempDir() + "/engine_capture.pcap";
  capture::PcapWriter writer(path);
  ASSERT_TRUE(writer.ok());
  engine.add_tap_consumer(&writer);
  engine.run();
  EXPECT_GT(writer.written(), 100u);
  std::remove(path.c_str());
}

TEST(DiscoveryEngine, LinkMonitorsRequireConfig) {
  workload::Campus campus(fast_tiny());
  EngineConfig cfg;
  cfg.per_link_monitors = true;
  DiscoveryEngine engine(campus, cfg);
  EXPECT_EQ(engine.link_monitor_count(), engine.tap_count());
}

TEST(DiscoveryEngine, AllPortsModeLeavesMonitorUnrestricted) {
  auto cfg = workload::CampusConfig::dtcp_all();
  cfg.duration = util::hours(6);
  workload::Campus campus(cfg);
  EngineConfig ecfg;
  ecfg.scan_count = 0;
  DiscoveryEngine engine(campus, ecfg);
  engine.run();
  // A high-port service revealed by traffic would be recorded; at
  // minimum the dominant web server's SYN-ACKs are.
  EXPECT_GT(engine.monitor().table().size(), 0u);
}

TEST(DiscoveryEngine, UdpModeDetectsUdpServices) {
  auto cfg = workload::CampusConfig::tiny();
  cfg.udp_mode = true;
  cfg.duration = util::days(1);
  workload::Campus campus(cfg);
  EngineConfig ecfg;
  ecfg.scan_count = 1;
  DiscoveryEngine engine(campus, ecfg);
  engine.run();
  while (engine.prober().scan_in_progress()) campus.simulator().step();
  bool saw_udp_passive = false;
  engine.monitor().table().for_each(
      [&](const passive::ServiceKey& key, const passive::ServiceRecord&) {
        saw_udp_passive |= key.proto == net::Proto::kUdp;
      });
  EXPECT_TRUE(saw_udp_passive);
  ASSERT_EQ(engine.prober().scans().size(), 1u);
  EXPECT_GT(engine.prober().scans()[0].count(active::ProbeStatus::kOpenUdp),
            0u);
  EXPECT_GT(engine.prober().scans()[0].count(active::ProbeStatus::kMaybeOpen),
            0u);
}

}  // namespace
}  // namespace svcdisc::core
