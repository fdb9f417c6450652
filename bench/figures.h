// Reports as data: every table, figure and ablation of the reproduction
// is a Report — the campaigns it reads and a renderer over their
// finished results.
//
// A campaign is a Run: a pack under bench/packs (a scenario.json in the
// tests/scenarios format, resolved by core::scenario_from_json), an
// optional document fragment merged over it, and optional setup/drive
// hooks. bench_figures groups the selected reports' runs into jobs —
// one per distinct (pack, overrides) among runs without a drive, their
// setup hooks combined, plus one per run with a drive — runs every job
// on one CampaignRunner, and renders the reports in DESIGN.md §3 order.
// A report must therefore print the same bytes whichever other reports
// share its job: setup hooks only add observers.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/campaign_runner.h"

namespace svcdisc::bench {

/// A hook over a built campaign, called on the job's worker thread.
using Hook =
    std::function<void(workload::Campus&, core::DiscoveryEngine&)>;

/// One campaign a report reads. The braced defaults let `{"pack"}`
/// initialize one without a missing-initializer warning.
struct Run {
  /// Pack directory name under the pack root.
  std::string pack;
  /// A scenario-document fragment merged over the pack's document
  /// ("" = none), e.g. {"engine": {"scans": 0}}; range-checked by the
  /// loader like any pack key.
  std::string overrides{};
  /// Attaches extra observers after the engine is built.
  Hook setup{};
  /// Replaces engine.run(); a run with a drive never shares its job.
  Hook drive{};
};

/// A report's finished runs, in Run order.
using Results = std::span<core::CampaignResult* const>;

struct Report {
  std::string name;
  std::vector<Run> runs;
  /// Prints the report to stdout (plus any .tsv/.gp in the working
  /// directory) and returns an exit status.
  std::function<int(Results)> render;
};

std::vector<Report> table_reports();
std::vector<Report> figure_reports();
std::vector<Report> ablation_reports();

/// Every report in DESIGN.md §3 order: Tables 1-8, Figures 1-12, then
/// the ablations.
std::vector<Report> all_reports();

/// The jobs a set of reports needs.
struct Plan {
  std::vector<core::CampaignJob> jobs;
  /// job_of[r][k] is the job that runs reports[r].runs[k].
  std::vector<std::vector<std::size_t>> job_of;
};

/// Resolves every run against the packs under `pack_root` and groups
/// the runs into jobs. On a missing pack or a bad override returns
/// false with the loader's error, prefixed by the report name.
bool plan_jobs(const std::vector<Report>& reports,
               const std::string& pack_root, Plan* plan, std::string* error);

/// Adds `fn` to the passive monitor's and the prober's first-discovery
/// callbacks, after any callback already there.
void on_each_discovery(
    core::DiscoveryEngine& engine,
    std::function<void(const passive::ServiceKey&, util::TimePoint)> fn);

/// The header every campaign report opens with.
void print_header(const std::string& title,
                  const core::CampaignResult& result);

}  // namespace svcdisc::bench
