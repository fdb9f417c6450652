// bench_figures [report...]: reproduces the paper's tables and figures
// and the ablations (DESIGN.md §3) from the campaign packs under
// bench/packs.
//
// With no arguments every report is rendered; otherwise only the named
// ones (table1..table8, fig1..fig12, ablation_*), always in DESIGN.md §3
// order. Each distinct campaign runs once, on one CampaignRunner
// (SVCDISC_JOBS threads); SVCDISC_SCALE in (0, 1] shrinks every
// campaign's populations. Reports go to stdout, figure series to
// fig*.tsv/.gp in the working directory, timings to stderr.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_common.h"
#include "figures.h"

int main(int argc, char** argv) {
  using namespace svcdisc;
  // A malformed SVCDISC_SCALE or SVCDISC_JOBS exits here, with status 2.
  bench::env_scale();
  bench::env_jobs();

  std::vector<bench::Report> reports = bench::all_reports();
  if (argc > 1) {
    std::set<std::string> wanted(argv + 1, argv + argc);
    std::vector<bench::Report> selected;
    for (bench::Report& report : reports) {
      if (wanted.erase(report.name)) selected.push_back(std::move(report));
    }
    if (!wanted.empty()) {
      std::fprintf(stderr, "bench_figures: unknown report \"%s\"; valid:",
                   wanted.begin()->c_str());
      for (const bench::Report& report : bench::all_reports()) {
        std::fprintf(stderr, " %s", report.name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    reports = std::move(selected);
  }

  bench::Plan plan;
  std::string error;
  if (!bench::plan_jobs(reports, SVCDISC_BENCH_PACK_DIR, &plan, &error)) {
    std::fprintf(stderr, "bench_figures: %s\n", error.c_str());
    return 1;
  }
  std::vector<core::CampaignResult> results =
      bench::run_campaigns(std::move(plan.jobs), "bench_figures");
  for (const core::CampaignResult& result : results) {
    if (!result.ok()) return 1;  // run_campaigns printed the error
    std::fprintf(stderr, "[bench]   %-40s %6.1f s\n", result.label.c_str(),
                 result.wall_sec);
  }

  int status = 0;
  for (std::size_t r = 0; r < reports.size(); ++r) {
    std::vector<core::CampaignResult*> runs;
    for (const std::size_t job : plan.job_of[r]) runs.push_back(&results[job]);
    status |= reports[r].render(runs);
  }
  return status;
}
