// core::scenario — loader error paths, record/verify round-trips, and
// the golden-mismatch report (first diverging line).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/scenario.h"
#include "workload/campus.h"

namespace svcdisc::core {
namespace {

namespace fs = std::filesystem;

// A fresh scratch directory per test, removed on teardown.
class ScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("svcdisc_scenario_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path() const { return dir_.string(); }

  void write_spec(const std::string& json) {
    std::ofstream out(dir_ / "scenario.json", std::ios::binary);
    out << json;
  }

  // Loading `json` must fail with an error naming `key`.
  void expect_rejected(const std::string& json, const std::string& key) {
    write_spec(json);
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(load_scenario(path(), &spec, &error)) << json;
    EXPECT_NE(error.find(key), std::string::npos) << json << ": " << error;
  }

  fs::path dir_;
};

// Small enough to run a campaign in well under a second.
constexpr const char* kFastSpec = R"({
  "name": "fast",
  "preset": "tiny",
  "seed": 5,
  "campus": {"duration_days": 0.25},
  "engine": {"scans": 1, "first_scan_offset_hours": 1.0}
})";

TEST_F(ScenarioTest, MissingDirectoryFailsWithClearError) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario(path() + "/nope", &spec, &error));
  EXPECT_NE(error.find("not a scenario directory"), std::string::npos)
      << error;
}

TEST_F(ScenarioTest, MissingSpecFileFails) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

TEST_F(ScenarioTest, CorruptJsonReportsPathAndPosition) {
  write_spec("{\"name\": \"x\",\n  \"preset\": }");
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("scenario.json"), std::string::npos) << error;
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST_F(ScenarioTest, TruncatedJsonFails) {
  write_spec(R"({"name": "x", "campus": {"duration_da)");
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(ScenarioTest, UnknownKeysAreRejectedAtEveryLevel) {
  ScenarioSpec spec;
  std::string error;
  write_spec(R"({"preset": "tiny", "bogus": 1})");
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("unknown key \"bogus\""), std::string::npos) << error;
  write_spec(R"({"preset": "tiny", "campus": {"bogus": 1}})");
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("unknown key \"bogus\""), std::string::npos) << error;
  write_spec(R"({"preset": "tiny", "engine": {"bogus": 1}})");
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("unknown key \"bogus\""), std::string::npos) << error;
}

TEST_F(ScenarioTest, WrongValueTypeNamesTheField) {
  write_spec(R"({"preset": "tiny", "campus": {"duration_days": "long"}})");
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("duration_days"), std::string::npos) << error;
}

// 1e999 parses to inf; a non-finite override used to reach the clock.
TEST_F(ScenarioTest, NonFiniteDurationIsRejected) {
  expect_rejected(R"({"campus": {"duration_days": 1e999}})",
                  "campus.duration_days");
}

TEST_F(ScenarioTest, NonFiniteNumberOverrideIsRejected) {
  expect_rejected(R"({"campus": {"traffic_scale": -1e999}})",
                  "campus.traffic_scale");
}

TEST_F(ScenarioTest, NegativeDurationIsRejected) {
  expect_rejected(R"({"campus": {"duration_days": -3}})",
                  "campus.duration_days");
}

TEST_F(ScenarioTest, ZeroDurationIsRejected) {
  expect_rejected(R"({"campus": {"duration_days": 0}})",
                  "campus.duration_days");
}

TEST_F(ScenarioTest, NegativeScanCountIsRejected) {
  expect_rejected(R"({"engine": {"scans": -5}})", "engine.scans");
}

// 2^32 + 1 used to truncate to one scan.
TEST_F(ScenarioTest, ScanCountOutsideIntIsRejected) {
  expect_rejected(R"({"engine": {"scans": 4294967297}})", "engine.scans");
}

TEST_F(ScenarioTest, IntOverrideOutsideIntIsRejected) {
  expect_rejected(R"({"campus": {"scale_block_bits": -4294967297}})",
                  "campus.scale_block_bits");
}

TEST_F(ScenarioTest, ZeroScanPeriodIsRejected) {
  expect_rejected(R"({"engine": {"scan_period_hours": 0}})",
                  "engine.scan_period_hours");
}

TEST_F(ScenarioTest, NegativeScanPeriodIsRejected) {
  expect_rejected(R"({"engine": {"scan_period_hours": -12}})",
                  "engine.scan_period_hours");
}

TEST_F(ScenarioTest, NonFiniteScanPeriodIsRejected) {
  expect_rejected(R"({"engine": {"scan_period_hours": 1e999}})",
                  "engine.scan_period_hours");
}

TEST_F(ScenarioTest, NegativeFirstScanOffsetIsRejected) {
  expect_rejected(R"({"engine": {"first_scan_offset_hours": -1}})",
                  "engine.first_scan_offset_hours");
}

// Boundary values that stay legal: zero scans, a zero offset.
TEST_F(ScenarioTest, ZeroScansAndZeroOffsetLoad) {
  write_spec(R"({"engine": {"scans": 0, "first_scan_offset_hours": 0}})");
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  EXPECT_EQ(spec.engine.scan_count, 0);
  EXPECT_EQ(spec.engine.first_scan_offset, util::Duration{});
}

// The CLI hands its flags to scenario_from_json as an in-memory
// document; it must resolve exactly like the equivalent pack on disk.
TEST_F(ScenarioTest, InMemoryDocumentMatchesThePackOnDisk) {
  using util::JsonValue;
  ScenarioSpec from_json;
  from_json.name = "kept";
  std::string error;
  ASSERT_TRUE(scenario_from_json(
      JsonValue::make_object(
          {{"preset", JsonValue::make_string("tiny")},
           {"seed", JsonValue::make_integer(42)},
           {"campus",
            JsonValue::make_object(
                {{"duration_days", JsonValue::make_number(1.0)}})},
           {"engine", JsonValue::make_object(
                          {{"scans", JsonValue::make_integer(2)}})}}),
      &from_json, &error))
      << error;
  EXPECT_EQ(from_json.name, "kept");

  ScenarioSpec pack;
  ASSERT_TRUE(load_scenario(std::string(SVCDISC_SCENARIO_DIR) + "/usc_tiny",
                            &pack, &error))
      << error;
  EXPECT_EQ(from_json.preset, pack.preset);
  EXPECT_EQ(from_json.campus.seed, pack.campus.seed);
  EXPECT_EQ(from_json.campus.duration, pack.campus.duration);
  EXPECT_EQ(from_json.engine.scan_count, pack.engine.scan_count);
  EXPECT_EQ(from_json.engine.scan_period, pack.engine.scan_period);
  EXPECT_EQ(from_json.engine.first_scan_offset,
            pack.engine.first_scan_offset);
}

TEST_F(ScenarioTest, DefaultScheduleIsTwoScansPerDay) {
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(scenario_from_json(
      util::JsonValue::make_object(
          {{"campus", util::JsonValue::make_object(
                          {{"duration_days",
                            util::JsonValue::make_number(3.0)}})}}),
      &spec, &error))
      << error;
  EXPECT_EQ(spec.engine.scan_count, 6);
  EXPECT_FALSE(scenario_from_json(util::JsonValue::make_integer(1), &spec,
                                  &error));
  EXPECT_NE(error.find("top level"), std::string::npos) << error;
}

TEST_F(ScenarioTest, UnknownPresetFails) {
  write_spec(R"({"preset": "huge"})");
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario(path(), &spec, &error));
  EXPECT_NE(error.find("unknown preset"), std::string::npos) << error;
}

TEST_F(ScenarioTest, EveryPresetLoads) {
  // scenario.json and the CLI share one preset table: every entry must
  // load by name and resolve to its own factory's campus.
  for (const workload::Preset& preset : workload::presets()) {
    write_spec(std::string(R"({"preset": ")") + preset.name + "\"}");
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(load_scenario(path(), &spec, &error))
        << preset.name << ": " << error;
    EXPECT_EQ(spec.preset, preset.name);
    EXPECT_EQ(workload::find_preset(preset.name), &preset);
    const workload::CampusConfig want = preset.make();
    EXPECT_EQ(spec.campus.duration, want.duration) << preset.name;
    EXPECT_EQ(spec.campus.seed, want.seed) << preset.name;
    EXPECT_EQ(spec.campus.all_ports_mode, want.all_ports_mode) << preset.name;
    EXPECT_EQ(spec.campus.udp_mode, want.udp_mode) << preset.name;
    EXPECT_EQ(spec.campus.scale_blocks, want.scale_blocks) << preset.name;
  }
}

TEST_F(ScenarioTest, NameDefaultsToDirectoryBasename) {
  write_spec(R"({"preset": "tiny"})");
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  EXPECT_EQ(spec.name, dir_.filename().string());
}

TEST_F(ScenarioTest, VerifyWithoutGoldensReportsEveryArtifactMissing) {
  write_spec(kFastSpec);
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  ScenarioArtifacts artifacts;
  ASSERT_TRUE(run_scenario(spec, &artifacts, &error)) << error;
  const VerifyReport report = verify_scenario(spec, artifacts);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.mismatches.size(), artifacts.files.size());
  EXPECT_NE(report.to_string().find("missing golden file"),
            std::string::npos);
}

TEST_F(ScenarioTest, RecordVerifyRoundTripAndDeterminism) {
  write_spec(kFastSpec);
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  ScenarioArtifacts first;
  ASSERT_TRUE(run_scenario(spec, &first, &error)) << error;
  ASSERT_TRUE(record_scenario(spec, first, /*force=*/false, &error))
      << error;
  // A second, fresh run must be byte-identical to the recorded one.
  ScenarioArtifacts second;
  ASSERT_TRUE(run_scenario(spec, &second, &error)) << error;
  const VerifyReport report = verify_scenario(spec, second);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(ScenarioTest, RecordRefusesToClobberWithoutForce) {
  write_spec(kFastSpec);
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  ScenarioArtifacts artifacts;
  ASSERT_TRUE(run_scenario(spec, &artifacts, &error)) << error;
  ASSERT_TRUE(record_scenario(spec, artifacts, false, &error)) << error;
  EXPECT_FALSE(record_scenario(spec, artifacts, false, &error));
  EXPECT_NE(error.find("--force"), std::string::npos) << error;
  EXPECT_TRUE(record_scenario(spec, artifacts, true, &error)) << error;
}

TEST_F(ScenarioTest, MismatchReportsFirstDivergingLine) {
  write_spec(kFastSpec);
  ScenarioSpec spec;
  std::string error;
  ASSERT_TRUE(load_scenario(path(), &spec, &error)) << error;
  ScenarioArtifacts artifacts;
  ASSERT_TRUE(run_scenario(spec, &artifacts, &error)) << error;
  ASSERT_TRUE(record_scenario(spec, artifacts, false, &error)) << error;

  // Corrupt line 2 of the recorded summary and expect the report to
  // point straight at it.
  const fs::path golden = dir_ / "expected" / "summary.txt";
  std::ifstream in(golden, std::ios::binary);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  in.close();
  std::ofstream out(golden, std::ios::binary);
  out << line1 << "\ntampered line\n";
  out.close();

  const VerifyReport report = verify_scenario(spec, artifacts);
  ASSERT_EQ(report.mismatches.size(), 1u);
  const ScenarioMismatch& m = report.mismatches[0];
  EXPECT_EQ(m.file, "summary.txt");
  EXPECT_EQ(m.line, 2u);
  EXPECT_EQ(m.want, "tampered line");
  EXPECT_EQ(m.got, line2);
  EXPECT_NE(report.to_string().find("line 2"), std::string::npos)
      << report.to_string();
}

TEST_F(ScenarioTest, DiscoverFindsOnlySpecDirectoriesSorted) {
  fs::create_directories(dir_ / "b_pack");
  fs::create_directories(dir_ / "a_pack");
  fs::create_directories(dir_ / "not_a_pack");
  std::ofstream(dir_ / "b_pack" / "scenario.json") << "{}";
  std::ofstream(dir_ / "a_pack" / "scenario.json") << "{}";
  const auto found = discover_scenarios(path());
  ASSERT_EQ(found.size(), 2u);
  EXPECT_NE(found[0].find("a_pack"), std::string::npos);
  EXPECT_NE(found[1].find("b_pack"), std::string::npos);
  EXPECT_TRUE(discover_scenarios(path() + "/nope").empty());
}

// The checked-in zoo must always load — a malformed pack would
// otherwise only surface once ctest re-runs it.
TEST(ScenarioZoo, EveryCheckedInPackLoads) {
  const auto dirs = discover_scenarios(SVCDISC_SCENARIO_DIR);
  EXPECT_GE(dirs.size(), 7u);
  for (const auto& dir : dirs) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_TRUE(load_scenario(dir, &spec, &error)) << dir << ": " << error;
    EXPECT_FALSE(spec.description.empty()) << dir;
  }
}

}  // namespace
}  // namespace svcdisc::core
