// Shared plumbing for the bench binaries: the SVCDISC_SCALE population
// knob, a CampaignRunner front end that reports wall time, and a
// stopwatch.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign_runner.h"
#include "workload/campus.h"

namespace svcdisc::bench {

/// A population scale: the whole of `text` must be a finite number in
/// (0, 1], where 1 is full scale. Anything else is nullopt.
std::optional<double> parse_scale(std::string_view text);

/// SVCDISC_SCALE through parse_scale (unset = 1). On any other value,
/// prints an error naming the variable and exits with status 2.
double env_scale();

/// Shrinks a config's populations by env_scale() — used by CI-sized
/// bench runs.
workload::CampusConfig apply_scale(workload::CampusConfig cfg);

/// The CampaignRunner thread count: SVCDISC_JOBS, else hardware
/// concurrency. On a malformed SVCDISC_JOBS, prints the error naming the
/// variable and exits with status 2.
std::size_t env_jobs();

/// Runs `jobs` on a core::CampaignRunner of env_jobs() threads after
/// applying SVCDISC_SCALE to every job's campus config. Reports total
/// wall time on stderr as `label` and prints any job errors; results
/// come back in job order.
std::vector<core::CampaignResult> run_campaigns(
    std::vector<core::CampaignJob> jobs, const std::string& label);

/// Wall-clock timer for long simulations.
class Stopwatch {
 public:
  Stopwatch();
  double elapsed_sec() const;

 private:
  long long start_ns_;
};

}  // namespace svcdisc::bench
