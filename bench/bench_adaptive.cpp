// Completeness-per-probe: the budgeted adaptive prober against the
// paper's fixed exhaustive sweep (DESIGN.md §16, EXPERIMENTS.md).
//
// The paper's operators walked every (address, port) pair each scan
// because they had no prior over where services live. The adaptive
// prober seeds candidates from passive observations and learns port
// popularity, per-subnet affinity and cross-port conditionals online;
// this bench measures how much of the sweep's completeness survives as
// the probe budget shrinks. Acceptance bar: >= 90% of the fixed sweep's
// discovered services at <= 50% of its probes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "analysis/table.h"
#include "bench_common.h"
#include "passive/service_table.h"

namespace svcdisc {
namespace {

struct Mode {
  const char* label;
  double fraction;  // of the full per-scan sweep grid; 0 = fixed prober
};

}  // namespace

int run() {
  const char* smoke_env = std::getenv("SVCDISC_BENCH_SMOKE");
  const bool smoke =
      smoke_env && *smoke_env && std::strcmp(smoke_env, "0") != 0;
  std::printf("== Adaptive prober: completeness per probe (tiny campus) ==\n\n");

  auto campus_cfg = workload::CampusConfig::tiny();
  campus_cfg.seed = 7;
  campus_cfg.duration = smoke ? util::days(1) : util::days(2);
  core::EngineConfig engine_cfg;
  engine_cfg.scan_count = smoke ? 2 : 4;

  // The fixed sweep probes the full grid every scan; budgets are
  // fractions of that grid.
  std::size_t grid;
  {
    workload::Campus probe(campus_cfg);
    grid = probe.scan_targets().size() *
           (probe.tcp_ports().size() +
            (probe.config().udp_mode ? probe.udp_ports().size() : 0));
  }

  std::vector<Mode> modes = {{"fixed sweep (paper)", 0.0},
                             {"adaptive 100%", 1.0},
                             {"adaptive 50%", 0.5},
                             {"adaptive 25%", 0.25},
                             {"adaptive 10%", 0.10}};
  if (!smoke) modes.push_back({"adaptive 5%", 0.05});

  std::vector<core::CampaignJob> jobs;
  for (const Mode& mode : modes) {
    core::CampaignJob job;
    job.campus_cfg = campus_cfg;
    job.seed = campus_cfg.seed;
    job.engine_cfg = engine_cfg;
    job.label = mode.label;
    if (mode.fraction > 0.0) {
      job.engine_cfg.adaptive_prober = true;
      job.engine_cfg.adaptive.probe_budget =
          static_cast<std::uint64_t>(mode.fraction * static_cast<double>(grid));
    }
    jobs.push_back(std::move(job));
  }
  auto results = bench::run_campaigns(std::move(jobs), "adaptive sweep");

  // Recall is measured against the fixed sweep's discovery set.
  std::vector<passive::ServiceKey> fixed_keys;
  results[0].engine->prober().table().for_each(
      [&](const passive::ServiceKey& key, const passive::ServiceRecord&) {
        fixed_keys.push_back(key);
      });
  std::uint64_t fixed_probes = 0;
  for (const auto& scan : results[0].engine->prober().scans()) {
    fixed_probes += scan.outcomes.size();
  }

  analysis::TextTable table({"mode", "probes", "vs fixed", "services",
                             "recall", "verified", "demoted"});
  double recall_at_half = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (!r.error.empty()) {
      std::fprintf(stderr, "%s failed: %s\n", modes[i].label,
                   r.error.c_str());
      return 1;
    }
    const auto& prober = r.engine->prober();
    std::uint64_t probes = 0;
    for (const auto& scan : prober.scans()) probes += scan.outcomes.size();
    std::size_t covered = 0;
    for (const auto& key : fixed_keys) {
      if (prober.table().find(key) != nullptr) ++covered;
    }
    const double recall =
        fixed_keys.empty()
            ? 0.0
            : 100.0 * static_cast<double>(covered) /
                  static_cast<double>(fixed_keys.size());
    if (modes[i].fraction == 0.5) recall_at_half = recall;
    char pct[32], rec[32], verified[32], demoted[32];
    std::snprintf(pct, sizeof pct, "%.1f%%",
                  fixed_probes == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(probes) /
                            static_cast<double>(fixed_probes));
    std::snprintf(rec, sizeof rec, "%.1f%%", recall);
    const bool adaptive = prober.adaptive();
    std::snprintf(verified, sizeof verified, "%llu",
                  static_cast<unsigned long long>(
                      prober.verify_confirmed_total()));
    std::snprintf(demoted, sizeof demoted, "%llu",
                  static_cast<unsigned long long>(prober.demotions_total()));
    table.add_row({modes[i].label, analysis::fmt_count(probes), pct,
                   analysis::fmt_count(prober.table().size()), rec,
                   adaptive ? verified : "-", adaptive ? demoted : "-"});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\npassive seeding plus learned priors concentrate the budget on\n"
      "(address, port) pairs that actually answer; the sweep's tail is\n"
      "mostly closed and filtered ports. At 50%% of the sweep's probes\n"
      "the adaptive prober kept %.1f%% of its discoveries (acceptance\n"
      "bar: >= 90%%).\n",
      recall_at_half);
  return recall_at_half >= 90.0 ? 0 : 1;
}

}  // namespace svcdisc

int main() { return svcdisc::run(); }
