// Memory ceilings of the prober (`ctest -L scale`): one DTCP1-18d
// campaign (bench/packs/dtcp1_18d) must finish under a peak-RSS ceiling,
// once with the fixed sweep and once with the adaptive prober at half
// the sweep's per-scan grid and LZR verification; and the million-address
// scale1m campaign must finish under one with the adaptive prober at a
// 20,000-probe budget. Like test_scale, each ctest entry runs one
// campaign (the binary is registered once per test, each entry filtered
// to it), so the process peak is that campaign's alone. Skipped under
// ASan, whose shadow memory would dominate the figure.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

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

#include "core/engine.h"
#include "core/scenario.h"
#include "workload/campus.h"

namespace svcdisc {
namespace {

#if !defined(SVCDISC_ASAN) && defined(__unix__)
core::ScenarioSpec dtcp1_pack() {
  core::ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(core::load_scenario(SVCDISC_BENCH_PACK_DIR "/dtcp1_18d", &spec,
                                  &error))
      << error;
  return spec;
}

/// The process's peak RSS so far, in MiB.
long peak_rss_mib() {
  struct rusage usage {};
  EXPECT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  return usage.ru_maxrss / 1024;  // ru_maxrss is KiB on Linux
}
#endif

TEST(SweepCampaign, FixedSweepDtcp1BoundedRss) {
#if defined(SVCDISC_ASAN) || !defined(__unix__)
  GTEST_SKIP() << "peak RSS is meaningless under ASan";
#else
  const core::ScenarioSpec spec = dtcp1_pack();
  workload::Campus campus(spec.campus);
  core::DiscoveryEngine engine(campus, spec.engine);
  engine.run();

  const auto& scans = engine.prober().scans();
  ASSERT_EQ(scans.size(), static_cast<std::size_t>(spec.engine.scan_count));
  // The paper's sweep repeats no target or port: every record is
  // index-free, 4 bytes per probe (DESIGN.md §16).
  for (const active::ScanRecord& scan : scans) {
    EXPECT_TRUE(scan.outcomes.index_free()) << "scan " << scan.index;
  }
  EXPECT_GT(engine.prober().table().size(), 0u);

  // A RelWithDebInfo x86-64 build peaks at ~60 MiB; the ceiling is that
  // plus 25%, rounded up to 10 MiB. (Indexed records would add ~11 MiB,
  // inside the ceiling: the assertion above is what catches them here.)
  const long rss_mb = peak_rss_mib();
  EXPECT_LT(rss_mb, 80) << "peak RSS " << rss_mb << " MiB";
#endif
}

TEST(AdaptiveCampaign, HalfBudgetDtcp1BoundedRss) {
#if defined(SVCDISC_ASAN) || !defined(__unix__)
  GTEST_SKIP() << "peak RSS is meaningless under ASan";
#else
  const core::ScenarioSpec spec = dtcp1_pack();
  workload::Campus campus(spec.campus);
  const std::uint64_t grid =
      campus.scan_targets().size() *
      (campus.tcp_ports().size() + campus.udp_ports().size());
  core::EngineConfig cfg = spec.engine;
  cfg.adaptive_prober = true;
  cfg.adaptive.probe_budget = grid / 2;
  cfg.adaptive.verify = true;
  core::DiscoveryEngine engine(campus, cfg);
  engine.run();

  const std::size_t scans = engine.prober().scans().size();
  ASSERT_EQ(scans, static_cast<std::size_t>(cfg.scan_count));
  EXPECT_LE(engine.prober().budget_spent_total(),
            cfg.adaptive.probe_budget * scans);
  EXPECT_GT(engine.prober().table().size(), 0u);

  // A RelWithDebInfo x86-64 build peaks at ~61 MiB; the ceiling is that
  // plus 25%, rounded up to 10 MiB.
  const long rss_mb = peak_rss_mib();
  EXPECT_LT(rss_mb, 80) << "peak RSS " << rss_mb << " MiB";
#endif
}

TEST(AdaptiveScaleCampaign, BudgetedScale1mBoundedRss) {
#if defined(SVCDISC_ASAN) || !defined(__unix__)
  GTEST_SKIP() << "peak RSS is meaningless under ASan";
#else
  // `svcdisc_cli run --scenario=scale1m --prober=adaptive
  // --probe-budget=20000`: two scans over 1,050,968 targets x 5 ports.
  // The queue holds one run per (/24, port) class, so ranking and
  // draining a scan cost O(classes + budget), not O(cells x budget); a
  // per-cell queue did not finish inside the ctest timeout (60 s).
  workload::CampusConfig campus_cfg = workload::CampusConfig::scale1m();
  campus_cfg.seed = 24301;
  workload::Campus campus(campus_cfg);
  core::EngineConfig cfg;
  cfg.scan_count = 2;
  cfg.adaptive_prober = true;
  cfg.adaptive.probe_budget = 20000;
  core::DiscoveryEngine engine(campus, cfg);
  engine.run();

  ASSERT_EQ(engine.prober().scans().size(), 2u);
  EXPECT_EQ(engine.prober().budget_spent_total(), 2u * 20000u);
  EXPECT_GT(engine.prober().table().size(), 0u);

  // A RelWithDebInfo x86-64 build peaks at ~62 MiB; the ceiling is that
  // plus 25%, rounded up to 10 MiB.
  const long rss_mb = peak_rss_mib();
  EXPECT_LT(rss_mb, 80) << "peak RSS " << rss_mb << " MiB";
#endif
}

}  // namespace
}  // namespace svcdisc
