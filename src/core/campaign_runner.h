// CampaignRunner: embarrassingly-parallel campaign execution.
//
// Every table and figure in the paper reproduction is a pure function of
// (scenario config, seed): the simulator is single-threaded and
// wall-clock-free, so two campaigns share no mutable state. The runner
// exploits that by executing a vector of jobs on a std::thread pool —
// each job builds its own Campus (own RNG stream derived from its seed),
// its own DiscoveryEngine, and its own MetricsRegistry, then runs to
// completion on one worker.
//
// Determinism guarantee: results come back indexed in job order, and
// each result is byte-identical to what the same job produces when run
// serially (or with any other thread count). Threads only decide *when*
// a job runs, never *what* it computes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "util/metrics.h"
#include "workload/campus.h"

namespace svcdisc::core {

/// One campaign to execute: scenario + engine configuration + seed.
struct CampaignJob {
  workload::CampusConfig campus_cfg;
  EngineConfig engine_cfg;
  /// Applied over campus_cfg.seed; keeping it explicit makes seed sweeps
  /// read naturally at call sites.
  std::uint64_t seed{0x5eedULL};
  /// Free-form label carried into the result (and metrics export).
  std::string label;
  /// Optional hook after engine construction, before the campaign runs
  /// (attach sampled monitors, extra consumers, ...).
  std::function<void(workload::Campus&, DiscoveryEngine&)> setup;
  /// Optional custom driver replacing engine.run() (partial campaigns,
  /// manual scans). Must leave the simulator quiescent before returning.
  std::function<void(workload::Campus&, DiscoveryEngine&)> drive;
  /// Build a per-job ProvenanceLedger and wire it into the engine. Per
  /// job because concurrent jobs must not share a ledger; the result
  /// carries it after the run.
  bool provenance{false};
  /// Build a per-job StreamingAnalytics (configured from the job's
  /// campus via streaming_config_for) and wire it into the engine,
  /// together with sketch-backed monitor tables
  /// (EngineConfig::sketch_tables). The result carries it after the run.
  bool streaming{false};
};

/// A finished campaign. Owns the whole apparatus so callers can compute
/// any table or figure from the tables, scans, and metrics.
struct CampaignResult {
  std::size_t index{0};
  std::string label;
  std::uint64_t seed{0};
  std::unique_ptr<workload::Campus> campus;
  std::unique_ptr<DiscoveryEngine> engine;
  std::unique_ptr<util::MetricsRegistry> metrics;
  /// The job's evidence ledger (null unless job.provenance was set).
  std::unique_ptr<ProvenanceLedger> provenance;
  /// The job's streaming layer (null unless job.streaming was set).
  std::unique_ptr<analysis::StreamingAnalytics> streaming;
  /// Registry state right after the campaign finished.
  util::MetricsSnapshot snapshot;
  /// Wall-clock seconds this job took on its worker.
  double wall_sec{0};
  /// Non-empty when the job threw; campus/engine may then be null.
  std::string error;

  bool ok() const { return error.empty(); }
  workload::Campus& c() { return *campus; }
  DiscoveryEngine& e() { return *engine; }
};

class CampaignRunner {
 public:
  /// `threads` == 0 picks default_threads().
  explicit CampaignRunner(std::size_t threads = 0);

  std::size_t threads() const { return threads_; }

  /// Executes all jobs and returns results in job order. Blocks until
  /// every job finished; exceptions inside a job are captured in its
  /// result's `error` instead of propagating.
  std::vector<CampaignResult> run(std::vector<CampaignJob> jobs) const;

  /// SVCDISC_JOBS through env_count when set, else hardware concurrency.
  /// Throws std::invalid_argument on a malformed SVCDISC_JOBS.
  static std::size_t default_threads();

 private:
  std::size_t threads_;
};

/// The count in environment variable `name`, or `unset` when it is not
/// set. The whole value must be a decimal integer >= 1; anything else
/// ("2x", "abc", "0", "") throws std::invalid_argument naming `name`.
std::size_t env_count(const char* name, std::size_t unset);

/// Convenience: one job per seed in [first_seed, first_seed + count),
/// labelled "seed-<n>".
std::vector<CampaignJob> seed_sweep_jobs(const workload::CampusConfig& campus,
                                         const EngineConfig& engine,
                                         std::uint64_t first_seed,
                                         std::size_t count);

}  // namespace svcdisc::core
