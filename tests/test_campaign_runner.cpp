// Determinism regression tests for core::CampaignRunner, plus unit
// coverage for the WorkerPool it runs jobs on.
//
// A campaign is a pure function of (config, seed): the same job must
// produce byte-identical exports whether run serially, run twice, or
// run on a multi-threaded CampaignRunner. The byte-level golden for the
// tiny campaign lives in the usc_tiny scenario pack
// (tests/scenarios/usc_tiny/, see DESIGN.md §12); this suite pins the
// runner against those goldens through the same verify oracle the CLI
// uses, so there is exactly one source of truth. Re-record with
//   svcdisc_cli scenario record tests/scenarios/usc_tiny --force
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/export.h"
#include "core/campaign_runner.h"
#include "core/categorize.h"
#include "core/completeness.h"
#include "core/report.h"
#include "core/scenario.h"
#include "core/worker_pool.h"
#include "workload/campus.h"

namespace svcdisc::core {
namespace {

constexpr std::uint64_t kGoldenSeed = 42;

workload::CampusConfig golden_campus() {
  auto cfg = workload::CampusConfig::tiny();
  cfg.duration = util::days(1);
  return cfg;
}

EngineConfig golden_engine() {
  EngineConfig cfg;
  cfg.scan_count = 2;
  cfg.scan_period = util::hours(12);
  cfg.first_scan_offset = util::hours(1);
  return cfg;
}

std::string render_addresses(const std::unordered_set<net::Ipv4>& set) {
  std::vector<net::Ipv4> sorted(set.begin(), set.end());
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const net::Ipv4 addr : sorted) out += "  " + addr.to_string() + "\n";
  return out;
}

// Everything a campaign publishes, rendered to one deterministic string:
// the completeness table (paper Table 2), the discovered address lists,
// and the full metrics snapshot (wall time excluded — it is the one
// legitimately nondeterministic field).
std::string export_campaign(const CampaignResult& result) {
  EXPECT_TRUE(result.error.empty()) << result.error;
  const auto end =
      util::kEpoch + result.campus->config().duration;
  const auto passive =
      addresses_found(result.engine->monitor().table(), end);
  const auto active =
      addresses_found(result.engine->prober().table(), end);
  const Completeness c = completeness(passive, active);

  std::ostringstream out;
  out << "campaign " << result.label << " seed " << result.seed << "\n";
  out << "completeness union=" << c.union_count << " both=" << c.both
      << " active_only=" << c.active_only
      << " passive_only=" << c.passive_only
      << " active_total=" << c.active_total
      << " passive_total=" << c.passive_total << "\n";
  out << "passive addresses (" << passive.size() << "):\n"
      << render_addresses(passive);
  out << "active addresses (" << active.size() << "):\n"
      << render_addresses(active);

  // Table 3 categorization over every probe target.
  std::uint64_t by_category[4] = {0, 0, 0, 0};
  for (const net::Ipv4 addr : result.campus->scan_targets()) {
    const ShortCategory cat =
        short_category(passive.contains(addr), active.contains(addr));
    ++by_category[static_cast<std::size_t>(cat)];
  }
  out << "categorization";
  for (int cat = 0; cat < 4; ++cat) {
    out << " "
        << short_category_label(static_cast<ShortCategory>(cat)) << "="
        << by_category[cat];
  }
  out << "\n";

  analysis::MetricsExport e;
  e.label = result.label;
  e.seed = result.seed;
  e.snapshot = &result.snapshot;
  out << analysis::metrics_to_json({e});
  return out.str();
}

std::vector<CampaignJob> golden_jobs(std::size_t count) {
  return seed_sweep_jobs(golden_campus(), golden_engine(), kGoldenSeed,
                         count);
}

TEST(CampaignRunner, SerialRerunIsByteIdentical) {
  const auto first = CampaignRunner(1).run(golden_jobs(1));
  const auto second = CampaignRunner(1).run(golden_jobs(1));
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(export_campaign(first[0]), export_campaign(second[0]));
}

TEST(CampaignRunner, FourThreadsMatchSerialByteForByte) {
  constexpr std::size_t kSeeds = 4;
  const auto serial = CampaignRunner(1).run(golden_jobs(kSeeds));
  const auto parallel = CampaignRunner(4).run(golden_jobs(kSeeds));
  ASSERT_EQ(serial.size(), kSeeds);
  ASSERT_EQ(parallel.size(), kSeeds);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(export_campaign(serial[i]), export_campaign(parallel[i]))
        << "seed " << serial[i].seed;
  }
}

TEST(CampaignRunner, ResultsComeBackInJobOrder) {
  const auto results = CampaignRunner(4).run(golden_jobs(6));
  ASSERT_EQ(results.size(), 6u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].seed, kGoldenSeed + i);
    EXPECT_EQ(results[i].label,
              "seed-" + std::to_string(kGoldenSeed + i));
  }
}

TEST(CampaignRunner, JobExceptionIsCapturedNotPropagated) {
  auto jobs = golden_jobs(1);
  jobs[0].drive = [](workload::Campus&, DiscoveryEngine&) {
    throw std::runtime_error("boom");
  };
  const auto results = CampaignRunner(2).run(std::move(jobs));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].error, "boom");
}

TEST(CampaignRunner, SetupHookRunsBeforeDrive) {
  auto jobs = golden_jobs(1);
  int order = 0;
  int setup_at = -1;
  int drive_at = -1;
  jobs[0].setup = [&](workload::Campus&, DiscoveryEngine&) {
    setup_at = order++;
  };
  jobs[0].drive = [&](workload::Campus&, DiscoveryEngine&) {
    drive_at = order++;
  };
  CampaignRunner(1).run(std::move(jobs));
  EXPECT_EQ(setup_at, 0);
  EXPECT_EQ(drive_at, 1);
}

// Golden snapshot: the usc_tiny scenario pack mirrors golden_campus() /
// golden_engine() exactly, so verifying it here pins the runner's
// byte-level output across commits through the same oracle
// `svcdisc_cli scenario verify` and `ctest -L scenario` use. Any
// behavioural drift — intended or not — shows up as a reviewable diff
// in tests/scenarios/usc_tiny/expected/.
TEST(CampaignRunner, EnvCountsParseTheWholeValue) {
  // SVCDISC_JOBS and SVCDISC_SWEEP_SEEDS: a whole decimal integer >= 1,
  // or unset. A trailing suffix, a word, zero or an empty value is an
  // error naming the variable, not a silent default.
  const char* saved = std::getenv("SVCDISC_JOBS");
  const std::string restore = saved ? saved : "";
  ASSERT_EQ(::setenv("SVCDISC_JOBS", "3", 1), 0);
  EXPECT_EQ(CampaignRunner::default_threads(), 3u);
  EXPECT_EQ(CampaignRunner().threads(), 3u);
  for (const char* bad : {"2x", "abc", "0", "", " 2", "-1", "1.5"}) {
    ASSERT_EQ(::setenv("SVCDISC_JOBS", bad, 1), 0);
    try {
      CampaignRunner::default_threads();
      ADD_FAILURE() << "accepted SVCDISC_JOBS=\"" << bad << '"';
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("SVCDISC_JOBS"), std::string::npos)
          << e.what();
    }
  }
  ASSERT_EQ(::unsetenv("SVCDISC_JOBS"), 0);
  EXPECT_GE(CampaignRunner::default_threads(), 1u);

  ASSERT_EQ(::unsetenv("SVCDISC_SWEEP_SEEDS"), 0);
  EXPECT_EQ(env_count("SVCDISC_SWEEP_SEEDS", 8), 8u);
  ASSERT_EQ(::setenv("SVCDISC_SWEEP_SEEDS", "12", 1), 0);
  EXPECT_EQ(env_count("SVCDISC_SWEEP_SEEDS", 8), 12u);
  ASSERT_EQ(::setenv("SVCDISC_SWEEP_SEEDS", "4seeds", 1), 0);
  EXPECT_THROW(env_count("SVCDISC_SWEEP_SEEDS", 8), std::invalid_argument);
  ASSERT_EQ(::unsetenv("SVCDISC_SWEEP_SEEDS"), 0);

  if (saved) ::setenv("SVCDISC_JOBS", restore.c_str(), 1);
}

TEST(CampaignRunner, UscTinyScenarioPackMatchesGoldens) {
  const std::string dir = std::string(SVCDISC_SCENARIO_DIR) + "/usc_tiny";
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(dir, &spec, &error)) << error;

  // The pack must describe the same campaign this suite's determinism
  // tests run — otherwise the golden would silently pin something else.
  const auto campus = golden_campus();
  EXPECT_EQ(spec.campus.seed, kGoldenSeed);
  EXPECT_EQ(spec.campus.duration, campus.duration);
  EXPECT_EQ(spec.campus.static_addresses, campus.static_addresses);
  const auto engine = golden_engine();
  EXPECT_EQ(spec.engine.scan_count, engine.scan_count);
  EXPECT_EQ(spec.engine.scan_period, engine.scan_period);
  EXPECT_EQ(spec.engine.first_scan_offset, engine.first_scan_offset);

  ScenarioArtifacts artifacts;
  ASSERT_TRUE(run_scenario(spec, &artifacts, &error)) << error;
  const VerifyReport report = verify_scenario(spec, artifacts);
  EXPECT_TRUE(report.ok())
      << "campaign output drifted from the usc_tiny goldens; if the "
         "change is intentional, re-record with `svcdisc_cli scenario "
         "record "
      << dir << " --force`\n"
      << report.to_string();
}

// ---------------------------------------------------------------------
// WorkerPool

TEST(WorkerPool, RunsEverySubmittedTask) {
  WorkerPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.help_until([&ran] { return ran.load() == 50; });
  EXPECT_EQ(ran.load(), 50);
}

TEST(WorkerPool, HelpUntilParticipatesWithOneWorker) {
  // A 1-worker pool with more tasks than workers: help_until must run
  // tasks on the calling thread rather than just wait.
  WorkerPool pool(1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  pool.help_until([&ran] { return ran.load() == 20; });
  EXPECT_EQ(ran.load(), 20);
}

TEST(WorkerPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 30; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // join implies drain: no submitted task may be dropped
  EXPECT_EQ(ran.load(), 30);
}

TEST(WorkerPool, HardwareThreadsIsPositive) {
  EXPECT_GE(WorkerPool::hardware_threads(), 1u);
}

}  // namespace
}  // namespace svcdisc::core
