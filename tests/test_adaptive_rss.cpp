// Memory ceiling of the adaptive prober on the paper's campus (`ctest -L
// scale`): one DTCP1-18d campaign (bench/packs/dtcp1_18d) with the
// adaptive prober at half the sweep's per-scan grid and LZR verification
// must finish under a peak-RSS ceiling. Like test_scale, the binary runs
// one campaign and registers as a single ctest entry, so the process peak
// is this campaign's alone. Skipped under ASan, whose shadow memory would
// dominate the figure.
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

TEST(AdaptiveCampaign, HalfBudgetDtcp1BoundedRss) {
#if defined(SVCDISC_ASAN) || !defined(__unix__)
  GTEST_SKIP() << "peak RSS is meaningless under ASan";
#else
  core::ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(core::load_scenario(SVCDISC_BENCH_PACK_DIR "/dtcp1_18d", &spec,
                                  &error))
      << error;
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
  struct rusage usage {};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  const long rss_mb = usage.ru_maxrss / 1024;  // ru_maxrss is KiB on Linux
  EXPECT_LT(rss_mb, 80) << "peak RSS " << rss_mb << " MiB";
#endif
}

}  // namespace
}  // namespace svcdisc
