// Sampling planner: you must monitor a faster link than your collector
// can handle (the paper's §5.3 problem) — which sampling configuration
// keeps the most discovery power for a given capture budget?
//
// The example runs one small campaign with several candidate samplers
// observing the same taps, then recommends the cheapest configuration
// that stays within a target completeness loss.
#include <cstdio>
#include <vector>

#include "capture/sampler.h"
#include "core/engine.h"
#include "core/report.h"
#include "workload/campus.h"

int main() {
  using namespace svcdisc;

  workload::Campus campus(workload::CampusConfig::tiny());
  core::EngineConfig cfg;
  cfg.scan_count = 0;  // passive-only planning question
  core::DiscoveryEngine engine(campus, cfg);

  struct Candidate {
    const char* name;
    double share;
    passive::PassiveMonitor* monitor;
  };
  std::vector<Candidate> candidates;
  for (const int minutes : {5, 10, 20, 30}) {
    candidates.push_back(
        {nullptr, minutes / 60.0,
         &engine.add_sampled_monitor(
             std::make_unique<capture::FixedPeriodSampler>(
                 util::minutes(minutes), util::hours(1)))});
  }
  const char* names[] = {"5 min/h", "10 min/h", "20 min/h", "30 min/h"};
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    candidates[i].name = names[i];
  }

  engine.run();

  const auto end = util::kEpoch + campus.config().duration;
  const double full = static_cast<double>(
      core::addresses_found(engine.monitor().table(), end).size());
  std::printf("continuous monitoring found %.0f servers\n\n", full);
  std::printf("%-10s %8s %10s %8s\n", "config", "capture", "servers",
              "loss");

  const double max_loss = 0.15;  // accept up to 15% fewer servers
  const Candidate* best = nullptr;
  for (const Candidate& c : candidates) {
    const double found = static_cast<double>(
        core::addresses_found(c.monitor->table(), end).size());
    const double loss = full > 0 ? 1.0 - found / full : 0.0;
    std::printf("%-10s %7.0f%% %10.0f %7.1f%%\n", c.name, 100 * c.share,
                found, 100 * loss);
    if (loss <= max_loss && (best == nullptr || c.share < best->share)) {
      best = &c;
    }
  }

  if (best != nullptr) {
    std::printf(
        "\nrecommendation: %s — the cheapest configuration within the\n"
        "%.0f%% loss budget. As the paper observes (§5.3), the loss is far\n"
        "from proportional to the capture share: whole external scans are\n"
        "either caught by a window or missed.\n",
        best->name, 100 * max_loss);
  } else {
    std::printf(
        "\nno candidate stayed within a %.0f%% loss budget: capture more,\n"
        "or switch to per-packet sampling (see bench_figures\n"
        "ablation_sampling).\n",
        100 * max_loss);
  }
  return 0;
}
