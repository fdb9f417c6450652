// bench_figures' job planner: which reports share a campaign, which get
// their own, and that a full reproduction runs each distinct campaign
// once. Also the strict SVCDISC_SCALE parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "bench_common.h"
#include "figures.h"

namespace svcdisc::bench {
namespace {

namespace fs = std::filesystem;

TEST(ParseScale, AcceptsFiniteValuesInUnitInterval) {
  EXPECT_EQ(parse_scale("0.1"), 0.1);
  EXPECT_EQ(parse_scale("1"), 1.0);
  EXPECT_EQ(parse_scale("1.0"), 1.0);
  EXPECT_EQ(parse_scale("5e-2"), 0.05);
}

TEST(ParseScale, RejectsEverythingElse) {
  for (const char* bad : {"", "abc", "0,1", "0.1x", " 0.1", "nan", "inf",
                          "-inf", "0", "-0.5", "1.5", "1e999"}) {
    EXPECT_FALSE(parse_scale(bad).has_value()) << '"' << bad << '"';
  }
}

// Two one-scan quarter-day tiny packs under a scratch root.
class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("svcdisc_figures_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    for (const char* name : {"a", "b"}) {
      fs::create_directories(root_ / name);
      std::ofstream(root_ / name / "scenario.json")
          << R"({"preset": "tiny", "seed": 3,
                 "campus": {"duration_days": 0.25},
                 "engine": {"scans": 1}})";
    }
  }
  void TearDown() override { fs::remove_all(root_); }

  Plan plan(const std::vector<Report>& reports) {
    Plan out;
    std::string error;
    EXPECT_TRUE(plan_jobs(reports, root_.string(), &out, &error)) << error;
    return out;
  }

  fs::path root_;
};

Report report(std::string name, std::vector<Run> runs) {
  return {std::move(name), std::move(runs), [](Results) { return 0; }};
}

void nothing(workload::Campus&, core::DiscoveryEngine&) {}

TEST_F(PlanTest, SamePackAndOverridesShareOneJobAndEverySetup) {
  int first = 0, second = 0;
  const Plan p = plan({
      report("x", {{"a", "", [&](auto&, auto&) { ++first; }}}),
      report("y", {{"a", "", [&](auto&, auto&) { ++second; }}}),
  });
  ASSERT_EQ(p.jobs.size(), 1u);
  EXPECT_EQ(p.job_of, (std::vector<std::vector<std::size_t>>{{0}, {0}}));
  auto results = core::CampaignRunner(1).run(p.jobs);
  ASSERT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST_F(PlanTest, DifferentPackOrOverridesGetTheirOwnJob) {
  const Plan p = plan({
      report("x", {{"a"}}),
      report("y", {{"b"}}),
      report("z", {{"a", R"({"engine": {"scans": 0}})"}}),
      report("w", {{"a", R"({"engine": {"scans": 0}})"}, {"a"}}),
  });
  ASSERT_EQ(p.jobs.size(), 3u);
  EXPECT_EQ(p.job_of, (std::vector<std::vector<std::size_t>>{
                          {0}, {1}, {2}, {2, 0}}));
  EXPECT_EQ(p.jobs[0].engine_cfg.scan_count, 1);
  EXPECT_EQ(p.jobs[2].engine_cfg.scan_count, 0);
}

TEST_F(PlanTest, ARunWithADriveNeverSharesItsJob) {
  const Plan p = plan({
      report("x", {{"a"}}),
      report("y", {{"a", "", nullptr, nothing}}),
      report("z", {{"a", "", nullptr, nothing}, {"a"}}),
  });
  ASSERT_EQ(p.jobs.size(), 3u);
  EXPECT_EQ(p.job_of, (std::vector<std::vector<std::size_t>>{
                          {0}, {1}, {2, 0}}));
  EXPECT_FALSE(p.jobs[0].drive);
  EXPECT_TRUE(p.jobs[1].drive);
  EXPECT_TRUE(p.jobs[2].drive);
}

TEST_F(PlanTest, BadOverrideOrMissingPackNamesTheReport) {
  Plan p;
  std::string error;
  EXPECT_FALSE(plan_jobs({report("x", {{"a", R"({"engine": {"scans": -1}})"}})},
                         root_.string(), &p, &error));
  EXPECT_NE(error.find("x: engine.scans"), std::string::npos) << error;
  EXPECT_FALSE(
      plan_jobs({report("y", {{"nope"}})}, root_.string(), &p, &error));
  EXPECT_NE(error.find("y: "), std::string::npos) << error;
  EXPECT_NE(error.find("nope/scenario.json"), std::string::npos) << error;
}

TEST(AllReports, TwentyEightUniqueNamesInDesignOrder) {
  std::vector<std::string> names;
  for (const Report& r : all_reports()) names.push_back(r.name);
  ASSERT_EQ(names.size(), 28u);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(), 28u);
  EXPECT_EQ(names.front(), "table1");
  EXPECT_EQ(names[8], "fig1");
  EXPECT_EQ(names[19], "fig12");
  EXPECT_EQ(names.back(), "ablation_capture_loss");
}

// A full reproduction runs each distinct campaign once: the paper's
// 35-scan dtcp1_18d campaign runs once for all its readers.
TEST(AllReports, EachDistinctCampaignRunsOnce) {
  const std::vector<Report> reports = all_reports();
  Plan p;
  std::string error;
  ASSERT_TRUE(plan_jobs(reports, SVCDISC_BENCH_PACK_DIR, &p, &error)) << error;

  std::vector<std::size_t> plain_18d;
  for (std::size_t i = 0; i < p.jobs.size(); ++i) {
    const core::CampaignJob& job = p.jobs[i];
    if (job.label.starts_with("dtcp1_18d") && !job.drive &&
        job.engine_cfg.scan_count == 35 &&
        job.engine_cfg.impairment.identity()) {
      plain_18d.push_back(i);
    }
  }
  ASSERT_EQ(plain_18d.size(), 1u);
  std::size_t readers = 0;
  for (const auto& jobs : p.job_of) {
    readers += std::count(jobs.begin(), jobs.end(), plain_18d[0]);
  }
  // Tables 2/4/6/8, Figures 1/2/4-8, the sampling and address-churn
  // ablations, and the capture-loss ablation's lossless row.
  EXPECT_EQ(readers, 14u);

  // Tables 3, 5, 7 and the hand-driven ablation scans (2 + 5 + 2) drive
  // their own campaigns; every other job is a distinct (pack, overrides).
  std::size_t drives = 0;
  std::set<std::string> shared_labels;
  for (const core::CampaignJob& job : p.jobs) {
    if (job.drive) {
      ++drives;
    } else {
      EXPECT_TRUE(shared_labels.insert(job.label).second) << job.label;
    }
  }
  EXPECT_EQ(drives, 12u);
  EXPECT_EQ(p.jobs.size(), 26u);
}

}  // namespace
}  // namespace svcdisc::bench
