// Calibration regression tests: one full-scale DTCP1-18d campaign must
// keep reproducing the paper's headline shapes (EXPERIMENTS.md). These
// are the guardrails that stop a refactor from silently bending the
// reproduction; bands are generous around the paper's values.
//
// This binary runs one ~6 s full-scale simulation in SetUpTestSuite and
// asserts against it from many small tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "core/completeness.h"
#include "util/stats.h"
#include "core/engine.h"
#include "core/report.h"
#include "core/scenario.h"
#include "core/weighted.h"
#include "workload/campus.h"

namespace svcdisc {
namespace {

using util::hours;
using util::kEpoch;

class Dtcp1Campaign : public ::testing::Test {
 protected:
  // The paper's DTCP1-18d campaign as the figures run it
  // (bench/packs/dtcp1_18d).
  static void SetUpTestSuite() {
    core::ScenarioSpec spec;
    std::string error;
    if (!core::load_scenario(SVCDISC_BENCH_PACK_DIR "/dtcp1_18d", &spec,
                             &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      std::abort();
    }
    campus_ = new workload::Campus(spec.campus);
    engine_ = new core::DiscoveryEngine(*campus_, spec.engine);
    engine_->run();
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete campus_;
    engine_ = nullptr;
    campus_ = nullptr;
  }

  static core::Completeness completeness_at(util::TimePoint cutoff) {
    return core::completeness(
        core::addresses_found(engine_->monitor().table(), cutoff),
        core::addresses_found(engine_->prober().table(), cutoff));
  }

  static workload::Campus* campus_;
  static core::DiscoveryEngine* engine_;
};

workload::Campus* Dtcp1Campaign::campus_ = nullptr;
core::DiscoveryEngine* Dtcp1Campaign::engine_ = nullptr;

TEST_F(Dtcp1Campaign, OneScanFindsNearlyAllOf12hUnion) {
  const auto c = completeness_at(kEpoch + hours(12));
  // Paper: 98%.
  EXPECT_GE(c.active_pct(), 94.0);
}

TEST_F(Dtcp1Campaign, TwelveHourPassiveFindsSmallFraction) {
  const auto c = completeness_at(kEpoch + hours(12));
  // Paper: 19%.
  EXPECT_GE(c.passive_pct(), 10.0);
  EXPECT_LE(c.passive_pct(), 30.0);
}

TEST_F(Dtcp1Campaign, EighteenDayPassiveClosesMostOfTheGap) {
  const auto c = completeness_at(kEpoch + util::days(18));
  // Paper: passive 71%, active 94%.
  EXPECT_GE(c.passive_pct(), 60.0);
  EXPECT_LE(c.passive_pct(), 85.0);
  EXPECT_GE(c.active_pct(), 90.0);
  EXPECT_GT(c.active_total, c.passive_total);
}

TEST_F(Dtcp1Campaign, SomeServersOnlyEverSeenPassively) {
  const auto c = completeness_at(kEpoch + util::days(18));
  // Paper: 6.3%.
  EXPECT_GE(util::pct(c.passive_only, c.union_count), 2.0);
  EXPECT_LE(util::pct(c.passive_only, c.union_count), 12.0);
}

TEST_F(Dtcp1Campaign, UnionWithinPaperBallpark) {
  const auto c = completeness_at(kEpoch + util::days(18));
  // Paper: 2,960 servers over 16,130 addresses.
  EXPECT_GE(c.union_count, 2000u);
  EXPECT_LE(c.union_count, 3800u);
}

TEST_F(Dtcp1Campaign, PassiveFindsWeightedMassWithinMinutes) {
  const auto end = kEpoch + campus_->config().duration;
  const auto times =
      core::address_discovery_times(engine_->monitor().table(), end);
  const auto weights = core::address_weights(engine_->monitor().table());
  const auto curves = core::weighted_curves(times, weights);
  // Paper: 99% of flow-weighted servers in 5 minutes; allow 30.
  const auto t99 =
      curves.flow_weighted.time_to_reach(0.99 * curves.flow_weighted.total());
  EXPECT_LT((t99 - kEpoch).usec, util::minutes(30).usec);
}

TEST_F(Dtcp1Campaign, MySqlHasWorstPassiveCompleteness) {
  const auto end = kEpoch + campus_->config().duration;
  const auto pct_for = [&](net::Port port) {
    core::ServiceFilter f;
    f.port = port;
    const auto c = core::completeness(
        core::addresses_found(engine_->monitor().table(), end, f),
        core::addresses_found(engine_->prober().table(), end, f));
    return c.passive_pct();
  };
  const double mysql = pct_for(net::kPortMysql);
  EXPECT_LT(mysql, pct_for(net::kPortHttp));
  EXPECT_LT(mysql, pct_for(net::kPortFtp));
  EXPECT_LT(mysql, pct_for(net::kPortSsh));
  // Paper: 52%.
  EXPECT_GE(mysql, 35.0);
  EXPECT_LE(mysql, 70.0);
}

TEST_F(Dtcp1Campaign, VpnFoundActivelyNotPassively) {
  const auto end = kEpoch + campus_->config().duration;
  core::ServiceFilter vpn;
  auto* campus = campus_;
  vpn.address_pred = [campus](net::Ipv4 addr) {
    return campus->class_of(addr) == host::AddressClass::kVpn;
  };
  const auto passive =
      core::addresses_found(engine_->monitor().table(), end, vpn);
  const auto active =
      core::addresses_found(engine_->prober().table(), end, vpn);
  // Paper: ~100 active vs ~10 passive after 18 days.
  EXPECT_GT(active.size(), 5 * passive.size());
}

TEST_F(Dtcp1Campaign, PppPassiveBeatsActive) {
  const auto end = kEpoch + campus_->config().duration;
  core::ServiceFilter ppp;
  auto* campus = campus_;
  ppp.address_pred = [campus](net::Ipv4 addr) {
    return campus->class_of(addr) == host::AddressClass::kPpp;
  };
  const auto passive =
      core::addresses_found(engine_->monitor().table(), end, ppp);
  const auto active =
      core::addresses_found(engine_->prober().table(), end, ppp);
  // Paper: passive finds ~15% more on PPP.
  EXPECT_GT(passive.size(), active.size());
}

TEST_F(Dtcp1Campaign, ScanDetectorFindsDozensOfScanners) {
  // Paper: 65 scanner IPs.
  EXPECT_GE(engine_->scan_detector().scanner_count(), 30u);
  EXPECT_LE(engine_->scan_detector().scanner_count(), 150u);
}

TEST_F(Dtcp1Campaign, FlaggedScannersAreGenuine) {
  const auto genuine = campus_->scanners().scanner_sources();
  for (const net::Ipv4 flagged : engine_->scan_detector().scanners()) {
    EXPECT_NE(std::find(genuine.begin(), genuine.end(), flagged),
              genuine.end())
        << flagged.to_string();
  }
}

TEST_F(Dtcp1Campaign, ProbesNeverCrossTheBorder) {
  // No prober address may appear as a client anywhere in passive data.
  for (const net::Ipv4 prober : campus_->prober_sources()) {
    engine_->monitor().table().for_each(
        [&](const passive::ServiceKey&, const passive::ServiceRecord& r) {
          EXPECT_FALSE(r.clients.contains(prober));
        });
  }
}

TEST_F(Dtcp1Campaign, AllScansCompleted) {
  EXPECT_EQ(engine_->prober().scans().size(), 35u);
  for (const auto& scan : engine_->prober().scans()) {
    EXPECT_EQ(scan.count(active::ProbeStatus::kPending), 0u);
    // Scans take 1-2 simulated hours (paper: 90-120 minutes).
    const double minutes =
        static_cast<double>((scan.finished - scan.started).usec) / 6e7;
    EXPECT_GT(minutes, 45.0);
    EXPECT_LT(minutes, 150.0);
  }
}

}  // namespace
}  // namespace svcdisc
