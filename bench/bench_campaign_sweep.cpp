// Seed-sweep throughput bench: the same scenario across N seeds, run
// serially and then on the parallel CampaignRunner, repeated.
//
// Demonstrates the two properties the runner promises: (1) wall-clock
// speedup on multi-core hosts (campaigns are embarrassingly parallel),
// and (2) bitwise determinism — every run's per-seed metrics export is
// byte-identical to the first serial run's. Exits non-zero if the
// identity check fails, so this doubles as a smoke test.
//
// Each job is a 5-day cut of the bench/packs/dtcp1_18d campaign (over
// a second on one core), long enough that thread start-up cannot hide the speedup, which is
// reported as the median over the repetitions with its min-max spread.
//
// Knobs: SVCDISC_SWEEP_SEEDS (seed count, default 8), SVCDISC_JOBS
// (parallel thread count, default hardware concurrency), SVCDISC_SCALE.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/export.h"
#include "analysis/table.h"
#include "bench_common.h"
#include "core/scenario.h"

namespace svcdisc {
namespace {

constexpr int kDays = 5;
constexpr std::size_t kReps = 3;  // odd: the median is one run

// Per-seed metrics rendered without wall time: wall clock is the one
// field that legitimately differs between runs.
std::string stable_json(const core::CampaignResult& result) {
  analysis::MetricsExport e;
  e.label = result.label;
  e.seed = result.seed;
  e.snapshot = &result.snapshot;
  return result.ok() ? analysis::metrics_to_json({e}) : std::string();
}

std::vector<core::CampaignJob> make_jobs(const core::ScenarioSpec& spec,
                                         std::size_t count) {
  auto campus_cfg = bench::apply_scale(spec.campus);
  campus_cfg.duration = util::days(kDays);
  core::EngineConfig engine_cfg = spec.engine;
  engine_cfg.scan_count = 2 * kDays;
  return core::seed_sweep_jobs(campus_cfg, engine_cfg, 1, count);
}

}  // namespace

int run() {
  std::size_t seeds = 8;
  if (const char* env = std::getenv("SVCDISC_SWEEP_SEEDS")) {
    const long n = std::atol(env);
    if (n >= 1) seeds = static_cast<std::size_t>(n);
  }
  // The paper's dtcp1_18d campaign (its 12-hourly schedule), cut to
  // kDays.
  core::ScenarioSpec spec;
  std::string error;
  if (!core::load_scenario(SVCDISC_BENCH_PACK_DIR "/dtcp1_18d", &spec,
                           &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const core::CampaignRunner serial_runner(1);
  const core::CampaignRunner runner;  // SVCDISC_JOBS or hardware threads
  std::printf("== Seed sweep: serial vs parallel CampaignRunner ==\n\n");
  std::printf("%zu dtcp1_18d campaigns of %d days per sweep, %zu-thread "
              "runner, %zu repetitions\n\n",
              seeds, kDays, runner.threads(), kReps);

  // The first serial sweep is the reference (and fills the per-seed
  // table); every later sweep is compared against it and freed. The
  // repetitions alternate which side runs first.
  std::vector<core::CampaignResult> first;
  std::vector<bool> identical(seeds, true);
  std::vector<double> speedups;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    double wall[2];
    for (std::size_t k = 0; k < 2; ++k) {
      const std::size_t parallel = (k + rep) % 2;
      bench::Stopwatch watch;
      auto results =
          (parallel ? runner : serial_runner).run(make_jobs(spec, seeds));
      wall[parallel] = watch.elapsed_sec();
      const bool reference = first.empty();
      if (reference) first = std::move(results);
      for (std::size_t i = 0; i < seeds; ++i) {
        const std::string want = stable_json(first[i]);
        identical[i] = identical[i] && !want.empty() &&
                       (reference || stable_json(results[i]) == want);
      }
    }
    speedups.push_back(wall[1] > 0 ? wall[0] / wall[1] : 0.0);
    std::printf("rep %zu: serial %.2f s, parallel %.2f s, speedup %.2fx\n",
                rep + 1, wall[0], wall[1], speedups.back());
  }

  analysis::TextTable table({"seed", "sim events", "passive disc",
                             "probes sent", "job s", "identical"});
  bool all_identical = true;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const auto& s = first[i];
    all_identical = all_identical && identical[i];
    const auto metric = [&](const char* name) {
      return analysis::fmt_count(
          static_cast<std::size_t>(s.snapshot.value_of(name)));
    };
    char job_s[16];
    std::snprintf(job_s, sizeof job_s, "%.2f", s.wall_sec);
    table.add_row({std::to_string(s.seed), metric("sim.events_processed"),
                   metric("passive.tcp_discoveries"),
                   metric("active.probes_tcp_sent"), job_s,
                   identical[i] ? "yes" : "NO"});
  }
  std::printf("\n");
  std::fputs(table.render().c_str(), stdout);
  std::sort(speedups.begin(), speedups.end());
  std::printf("\nspeedup over %zu repetitions: median %.2fx "
              "(min %.2fx, max %.2fx)\n",
              kReps, speedups[kReps / 2], speedups.front(), speedups.back());
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel metrics differ from serial run\n");
    return 1;
  }
  std::printf("per-seed metrics byte-identical in every run: yes\n");
  return 0;
}

}  // namespace svcdisc

int main() { return svcdisc::run(); }
