// Streaming analytics (DESIGN.md §15): sketch error bounds, change-point
// detection, and the determinism contract.
//
// The error-bound tests are the checkable half of the sketch bargain:
// HyperLogLog client/address cardinalities must land within ±2% of the
// exact ServiceTable tallies over randomized campaigns, and count-min
// flow estimates within the classic eps*N envelope (and never under).
// The determinism tests pin the contract DESIGN.md promises: streaming
// artifacts are byte-identical across same-seed reruns, and a disabled
// streaming layer leaves the simulation (rng stream, event count,
// tables) untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/streaming.h"
#include "core/campaign_runner.h"
#include "core/engine.h"
#include "net/ipv4.h"
#include "net/packet.h"
#include "passive/monitor.h"
#include "passive/service_table.h"
#include "util/flat_hash.h"
#include "util/sketch.h"
#include "workload/campus.h"

namespace svcdisc {
namespace {

using analysis::ChangePoint;
using analysis::StreamingAnalytics;
using analysis::StreamingConfig;
using net::Ipv4;
using net::Packet;
using net::Prefix;
using passive::ServiceKey;
using util::CountMinSketch;
using util::HyperLogLog;
using util::hash_mix;
using util::hours;
using util::kEpoch;
using util::minutes;

const Ipv4 kServer = Ipv4::from_octets(128, 125, 1, 1);
const Prefix kCampus(Ipv4::from_octets(128, 125, 0, 0), 16);

// ------------------------------------------------------------ sketches --

TEST(HyperLogLog, DisabledByDefault) {
  HyperLogLog hll;
  EXPECT_FALSE(hll.enabled());
  hll.add(123);  // must not crash
  EXPECT_EQ(hll.count(), 0u);
  EXPECT_EQ(hll.memory_bytes(), 0u);
}

TEST(HyperLogLog, SmallCardinalitiesNearExact) {
  // Linear-counting regime: up to a few hundred distinct items, a p=12
  // sketch is essentially exact.
  for (const std::uint64_t n : {1u, 10u, 100u, 500u}) {
    HyperLogLog hll;
    hll.init(12);
    for (std::uint64_t i = 0; i < n; ++i) hll.add(hash_mix(i * 7919 + 1));
    const double est = static_cast<double>(hll.count());
    const double exact = static_cast<double>(n);
    EXPECT_NEAR(est, exact, std::max(1.0, exact * 0.02)) << "n=" << n;
  }
}

TEST(HyperLogLog, LargeCardinalityWithinTwoPercent) {
  // p=12 gives sigma ~1.04/sqrt(4096) = 1.6%; the fixed input stream
  // makes the estimate deterministic, so this is a regression pin, not a
  // flaky probabilistic assertion.
  HyperLogLog hll;
  hll.init(12);
  constexpr std::uint64_t kN = 200000;
  for (std::uint64_t i = 0; i < kN; ++i) hll.add(hash_mix(i * 17 + 17));
  const double est = static_cast<double>(hll.count());
  EXPECT_NEAR(est, static_cast<double>(kN), kN * 0.02);
}

TEST(HyperLogLog, DuplicatesDoNotInflate) {
  HyperLogLog hll;
  hll.init(12);
  for (int round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 64; ++i) hll.add(hash_mix(i));
  }
  EXPECT_NEAR(static_cast<double>(hll.count()), 64.0, 3.0);
}

TEST(HyperLogLog, MergeMatchesUnionAndCommutes) {
  HyperLogLog a, b, whole;
  a.init(12);
  b.init(12);
  whole.init(12);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const std::uint64_t h = hash_mix(i);
    whole.add(h);
    (i % 2 == 0 ? a : b).add(h);
  }
  HyperLogLog ab = a;
  ab.merge(b);
  HyperLogLog ba = b;
  ba.merge(a);
  // Register-max merge: both orders land on identical registers, which
  // must equal the single-sketch union.
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.count(), whole.count());
}

TEST(CountMinSketch, NeverUnderestimatesAndRespectsEpsN) {
  CountMinSketch cms;
  cms.init(4096, 4);
  util::FlatMap<std::uint64_t, std::uint64_t> exact;
  // Zipf-ish workload: key i gets ~1000/(i+1) increments.
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::uint64_t n = 1000 / (i + 1) + 1;
    const std::uint64_t h = hash_mix(i + 17);
    for (std::uint64_t k = 0; k < n; ++k) cms.add(h);
    exact[h] += n;
  }
  const double eps_n =
      2.72 * static_cast<double>(cms.total()) / 4096.0;  // e/width * N
  for (const auto& [h, n] : exact) {
    const std::uint64_t est = cms.estimate(h);
    EXPECT_GE(est, n);
    EXPECT_LE(static_cast<double>(est - n), eps_n);
  }
  EXPECT_EQ(cms.estimate(hash_mix(99991)), 0u)
      << "an unseen key may only collide within eps*N";
}

TEST(CountMinSketch, MergeIsAdditive) {
  CountMinSketch a, b;
  a.init(1024, 4);
  b.init(1024, 4);
  const std::uint64_t h = hash_mix(42);
  for (int i = 0; i < 10; ++i) a.add(h);
  for (int i = 0; i < 5; ++i) b.add(h);
  a.merge(b);
  EXPECT_GE(a.estimate(h), 15u);
  EXPECT_EQ(a.total(), 15u);
}

TEST(DecayRate, HalvesPerHalfLife) {
  util::DecayRate rate(hours(2));
  rate.observe(kEpoch, 8.0);
  EXPECT_DOUBLE_EQ(rate.mass(kEpoch), 8.0);
  EXPECT_NEAR(rate.mass(kEpoch + hours(2)), 4.0, 1e-9);
  EXPECT_NEAR(rate.mass(kEpoch + hours(4)), 2.0, 1e-9);
}

// --------------------------------------------- sketch-backed ServiceTable --

TEST(SketchTable, ClientCountTracksExactWithinTwoPercent) {
  // The same flow stream through an exact and a sketch-accounted table:
  // per-service client estimates must stay within max(1, 2%) of truth.
  passive::ServiceTable exact;
  passive::ServiceTable sketch(passive::ClientAccounting::kSketch);
  const ServiceKey key{kServer, net::Proto::kTcp, 80};
  constexpr std::uint64_t kClients = 150;
  for (std::uint64_t i = 0; i < kClients; ++i) {
    const Ipv4 client(static_cast<std::uint32_t>(0x42000000u + i * 131));
    // Every client contacts twice: duplicates must not inflate.
    for (int k = 0; k < 2; ++k) {
      exact.count_flow(key, client, kEpoch + minutes(i));
      sketch.count_flow(key, client, kEpoch + minutes(i));
    }
  }
  exact.discover(key, kEpoch);
  sketch.discover(key, kEpoch);
  const auto* e = exact.find(key);
  const auto* s = sketch.find(key);
  ASSERT_NE(e, nullptr);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(e->client_count(), kClients);
  EXPECT_TRUE(s->clients.empty()) << "sketch mode must not keep client maps";
  EXPECT_NEAR(static_cast<double>(s->client_count()),
              static_cast<double>(kClients),
              std::max(1.0, kClients * 0.02));
  EXPECT_EQ(s->flows, e->flows);
}

TEST(SketchTable, MemoryIsBoundedPerService) {
  // O(services): table bytes must not grow with the client count.
  const ServiceKey key{kServer, net::Proto::kTcp, 80};
  passive::ServiceTable sketch(passive::ClientAccounting::kSketch);
  sketch.count_flow(key, Ipv4::from_octets(66, 0, 0, 1), kEpoch);
  const std::size_t after_one = sketch.memory_bytes();
  for (std::uint64_t i = 0; i < 50000; ++i) {
    sketch.count_flow(key, Ipv4(static_cast<std::uint32_t>(0x50000000u + i)),
                      kEpoch + minutes(1));
  }
  EXPECT_EQ(sketch.memory_bytes(), after_one)
      << "50k extra clients must not add a byte in sketch mode";
}

// ------------------------------------------------ streaming unit tests --

StreamingConfig unit_config() {
  StreamingConfig cfg;
  cfg.internal_prefixes = {kCampus};
  cfg.window = hours(1);
  cfg.burst_floor = 50;
  return cfg;
}

Packet syn(Ipv4 src, Ipv4 dst, net::Port dport, util::TimePoint t) {
  Packet p = net::make_tcp(src, 40000, dst, dport, net::flags_syn());
  p.time = t;
  return p;
}

Packet syn_ack(Ipv4 src, net::Port sport, Ipv4 dst, util::TimePoint t) {
  Packet p = net::make_tcp(src, sport, dst, 40000, net::flags_syn_ack());
  p.time = t;
  return p;
}

TEST(Streaming, DetectsInjectedScanBurst) {
  StreamingAnalytics stream(unit_config());
  const Ipv4 scanner = Ipv4::from_octets(7, 7, 7, 7);
  // Five calm windows (~8 inbound SYNs each) seed the EWMA baseline,
  // then one hot window sprays 400 SYNs across the campus.
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 8; ++i) {
      const Ipv4 client = Ipv4::from_octets(66, 0, w, i);
      stream.observe(syn(client, kServer, 80,
                         kEpoch + hours(w) + minutes(i)));
    }
  }
  for (int i = 0; i < 400; ++i) {
    const Ipv4 target(static_cast<std::uint32_t>(kServer.value() + i));
    stream.observe(
        syn(scanner, target, 80, kEpoch + hours(5) + minutes(i % 50)));
  }
  stream.finish(kEpoch + hours(7));
  ASSERT_GE(stream.burst_count(), 1u);
  bool found = false;
  for (const ChangePoint& e : stream.change_points()) {
    if (e.kind == ChangePoint::Kind::kScanBurst) {
      found = true;
      EXPECT_GE(e.observed, 400u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Streaming, QuietTrafficRaisesNoBurst) {
  StreamingAnalytics stream(unit_config());
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 8; ++i) {
      stream.observe(syn(Ipv4::from_octets(66, 1, w, i), kServer, 80,
                         kEpoch + hours(w) + minutes(i)));
    }
  }
  stream.finish(kEpoch + hours(11));
  EXPECT_EQ(stream.burst_count(), 0u);
}

TEST(Streaming, ServiceDeathAndReturnTimeline) {
  auto cfg = unit_config();
  cfg.death_min_activity = 6;
  cfg.death_windows = 6;
  StreamingAnalytics stream(cfg);
  const Ipv4 client = Ipv4::from_octets(66, 2, 3, 4);
  // Hour 0-5: lively service (6 SYN-ACK sightings), then 12h of silence
  // (kept observable by unrelated background SYNs), then it answers
  // again.
  for (int i = 0; i < 6; ++i) {
    stream.observe(syn_ack(kServer, 80, client, kEpoch + hours(i)));
  }
  const Ipv4 other = Ipv4::from_octets(128, 125, 9, 9);
  for (int i = 6; i < 20; ++i) {
    stream.observe(syn(client, other, 443, kEpoch + hours(i)));
  }
  stream.observe(syn_ack(kServer, 80, client, kEpoch + hours(20)));
  stream.finish(kEpoch + hours(21));

  const ServiceKey key{kServer, net::Proto::kTcp, 80};
  std::vector<ChangePoint::Kind> kinds;
  for (const ChangePoint& e : stream.change_points()) {
    if (e.key.addr == key.addr && e.key.port == key.port) {
      kinds.push_back(e.kind);
    }
  }
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], ChangePoint::Kind::kServiceAppeared);
  EXPECT_EQ(kinds[1], ChangePoint::Kind::kServiceDied);
  EXPECT_EQ(kinds[2], ChangePoint::Kind::kServiceReturned);

  const util::Calendar calendar(0);
  const auto lines = stream.explain_lines(key, calendar);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("stream/service_appeared"), std::string::npos);
  EXPECT_NE(lines[1].find("stream/service_died"), std::string::npos);
  EXPECT_NE(lines[2].find("stream/service_returned"), std::string::npos);
}

TEST(Streaming, MultiDayCampaignClosesOneWindowPerDay) {
  // 90 simulated days under daily windows: every window closes exactly
  // once, on the epoch-anchored day grid, with no drift across the long
  // horizon.
  auto cfg = unit_config();
  cfg.window = util::days(1);
  StreamingAnalytics stream(cfg);
  const Ipv4 client = Ipv4::from_octets(66, 9, 1, 1);
  for (int day = 0; day < 90; ++day) {
    stream.observe(syn_ack(kServer, 80, client,
                           kEpoch + util::days(day) + hours(12)));
  }
  stream.finish(kEpoch + util::days(90));
  ASSERT_EQ(stream.snapshots().size(), 90u);
  for (int day = 0; day < 90; ++day) {
    EXPECT_EQ(stream.snapshots()[static_cast<std::size_t>(day)].at,
              kEpoch + util::days(day + 1));
  }
  EXPECT_EQ(stream.burst_count(), 0u);
}

TEST(Streaming, DeathAndReturnAcrossADailyWindowHorizon) {
  // The death/return state machine at day granularity: six sightings in
  // week one, then 50+ days of silence (windows kept rolling by
  // unrelated background traffic), then a one-day comeback on day 60 —
  // after which the 30 silent days to the horizon kill it again.
  auto cfg = unit_config();
  cfg.window = util::days(1);
  StreamingAnalytics stream(cfg);
  const Ipv4 client = Ipv4::from_octets(66, 9, 2, 2);
  for (int day = 0; day < 6; ++day) {
    stream.observe(syn_ack(kServer, 80, client, kEpoch + util::days(day)));
  }
  const Ipv4 other = Ipv4::from_octets(128, 125, 9, 9);
  for (int day = 6; day < 60; ++day) {
    stream.observe(syn(client, other, 443, kEpoch + util::days(day)));
  }
  stream.observe(syn_ack(kServer, 80, client, kEpoch + util::days(60)));
  stream.finish(kEpoch + util::days(90));

  std::vector<ChangePoint::Kind> kinds;
  for (const ChangePoint& e : stream.change_points()) {
    if (e.key.addr == kServer && e.key.port == 80) kinds.push_back(e.kind);
  }
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[0], ChangePoint::Kind::kServiceAppeared);
  EXPECT_EQ(kinds[1], ChangePoint::Kind::kServiceDied);
  EXPECT_EQ(kinds[2], ChangePoint::Kind::kServiceReturned);
  EXPECT_EQ(kinds[3], ChangePoint::Kind::kServiceDied);
}

TEST(Streaming, NinetyDayGapRollsEveryHourlyWindowWithoutDrift) {
  // One observation after an 89-day silence forces the window clock to
  // catch up through ~2,100 empty hourly windows in a single roll; every
  // one must close (the snapshot log has no holes) and land exactly on
  // the hour grid.
  StreamingAnalytics stream(unit_config());
  const Ipv4 client = Ipv4::from_octets(66, 9, 3, 3);
  stream.observe(syn(client, kServer, 80, kEpoch + minutes(30)));
  stream.observe(syn(client, kServer, 80, kEpoch + util::days(89)));
  stream.finish(kEpoch + util::days(90));
  ASSERT_EQ(stream.snapshots().size(), 90u * 24u);
  EXPECT_EQ(stream.snapshots().back().at, kEpoch + util::days(90));
  EXPECT_EQ(stream.burst_count(), 0u);
}

TEST(Streaming, NonPositiveWindowClampsToDefaultInsteadOfSpinning) {
  // Regression: a zero (or negative) window advanced the epoch anchor by
  // nothing in roll_windows() — an infinite loop on the first packet.
  // The constructor now clamps to the hourly default.
  auto cfg = unit_config();
  cfg.window = util::usec(0);
  StreamingAnalytics stream(cfg);
  const Ipv4 client = Ipv4::from_octets(66, 9, 4, 4);
  stream.observe(syn(client, kServer, 80, kEpoch + minutes(90)));
  stream.finish(kEpoch + hours(3));
  EXPECT_EQ(stream.snapshots().size(), 3u);

  auto negative = unit_config();
  negative.window = util::usec(-5);
  StreamingAnalytics neg(negative);
  neg.observe(syn(client, kServer, 80, kEpoch + minutes(30)));
  neg.finish(kEpoch + hours(1));
  EXPECT_EQ(neg.snapshots().size(), 1u);
}

TEST(Streaming, CmsFlowEstimateWithinEpsN) {
  StreamingAnalytics stream(unit_config());
  // 40 services on distinct campus addresses with skewed flow counts.
  for (int svc = 0; svc < 40; ++svc) {
    const Ipv4 server = Ipv4::from_octets(128, 125, 2, svc + 1);
    const int flows = 200 / (svc + 1) + 1;
    for (int i = 0; i < flows; ++i) {
      stream.observe(syn(Ipv4::from_octets(66, 3, svc, i % 250), server, 80,
                         kEpoch + minutes(svc * 13 + i)));
    }
  }
  stream.finish(kEpoch + hours(2));
  const double eps_n =
      2.72 * static_cast<double>(stream.flows_seen()) / 4096.0;
  for (int svc = 0; svc < 40; ++svc) {
    const ServiceKey key{Ipv4::from_octets(128, 125, 2, svc + 1),
                         net::Proto::kTcp, 80};
    const std::uint64_t exact = stream.flow_exact(key);
    const std::uint64_t est = stream.flow_estimate(key);
    ASSERT_GT(exact, 0u);
    EXPECT_GE(est, exact);
    EXPECT_LE(static_cast<double>(est - exact), eps_n);
  }
}

// --------------------------------------------- campaign property tests --

workload::CampusConfig fast_tiny(std::uint64_t seed) {
  auto cfg = workload::CampusConfig::tiny();
  cfg.duration = util::days(1);
  cfg.seed = seed;
  return cfg;
}

struct CampaignArtifacts {
  std::string streaming_jsonl;
  std::uint64_t events_processed{0};
  std::vector<std::pair<ServiceKey, std::uint64_t>> client_counts;
};

CampaignArtifacts run_campaign(std::uint64_t seed, bool streaming) {
  workload::Campus campus(fast_tiny(seed));
  util::MetricsRegistry metrics;
  core::EngineConfig cfg;
  cfg.scan_count = 2;
  cfg.metrics = &metrics;
  StreamingAnalytics stream(core::streaming_config_for(campus));
  if (streaming) {
    cfg.streaming = &stream;
    cfg.sketch_tables = true;
  }
  core::DiscoveryEngine engine(campus, cfg);
  engine.run();
  CampaignArtifacts out;
  if (streaming) {
    out.streaming_jsonl = stream.snapshots_jsonl() + stream.events_jsonl();
  }
  out.events_processed = static_cast<std::uint64_t>(
      metrics.snapshot().value_of("sim.events_processed"));
  for (const auto& [key, when] : engine.monitor().table().chronological()) {
    const auto* record = engine.monitor().table().find(key);
    out.client_counts.emplace_back(key, record ? record->client_count() : 0);
  }
  return out;
}

TEST(StreamingCampaign, SketchClientCountsWithinTwoPercentOfExact) {
  // Randomized campaigns: the sketch-accounted monitor table must agree
  // with the exact table on every per-service client tally to within
  // max(1 client, 2%), and exactly on the service set.
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const auto exact = run_campaign(seed, /*streaming=*/false);
    const auto sketch = run_campaign(seed, /*streaming=*/true);
    ASSERT_EQ(exact.client_counts.size(), sketch.client_counts.size());
    for (std::size_t i = 0; i < exact.client_counts.size(); ++i) {
      ASSERT_EQ(exact.client_counts[i].first, sketch.client_counts[i].first);
      const double e = static_cast<double>(exact.client_counts[i].second);
      const double s = static_cast<double>(sketch.client_counts[i].second);
      EXPECT_NEAR(s, e, std::max(1.0, e * 0.02))
          << "seed " << seed << " service " << i;
    }
  }
}

TEST(StreamingCampaign, ArtifactsByteIdenticalAcrossReruns) {
  // A campaign is a pure function of (config, seed): rerunning the same
  // seed must reproduce the streaming JSONL and the sketch-accounted
  // client counts exactly. No scenario golden pins the streaming output,
  // so this is its determinism check.
  const auto first = run_campaign(21, /*streaming=*/true);
  const auto second = run_campaign(21, /*streaming=*/true);
  ASSERT_FALSE(first.streaming_jsonl.empty());
  EXPECT_EQ(first.streaming_jsonl, second.streaming_jsonl);
  EXPECT_EQ(first.client_counts, second.client_counts);
}

TEST(StreamingCampaign, DisabledStreamingIsRngNeutral) {
  // The streaming layer only observes; turning it off must not change
  // the simulation's event stream.
  const auto on = run_campaign(31, /*streaming=*/true);
  const auto off = run_campaign(31, /*streaming=*/false);
  EXPECT_EQ(on.events_processed, off.events_processed);
}

TEST(StreamingCampaign, RunnerWiresStreamingJobs) {
  core::CampaignJob job;
  job.campus_cfg = fast_tiny(41);
  job.engine_cfg.scan_count = 2;
  job.seed = 41;
  job.streaming = true;
  core::CampaignRunner runner(1);
  std::vector<core::CampaignJob> jobs;
  jobs.push_back(std::move(job));
  auto results = runner.run(std::move(jobs));
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].error;
  ASSERT_NE(results[0].streaming, nullptr);
  EXPECT_GT(results[0].streaming->services_seen(), 0u);
  EXPECT_GT(results[0].streaming->snapshots().size(), 0u);
  // Completeness snapshots must be live: the last window's union
  // estimate reflects the campaign's discovered addresses.
  EXPECT_GT(results[0].streaming->union_addr_estimate(), 0u);
  // stream.* metrics flow through the job's registry.
  EXPECT_GT(results[0].snapshot.value_of("stream.snapshots"), 0.0);
}

}  // namespace
}  // namespace svcdisc
