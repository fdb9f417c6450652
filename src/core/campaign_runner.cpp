#include "core/campaign_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <thread>

#include "core/worker_pool.h"
#include "util/trace.h"

namespace svcdisc::core {
namespace {

double wall_seconds_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void execute_job(const CampaignJob& job, CampaignResult& result) {
  const auto start = std::chrono::steady_clock::now();
  util::trace::ScopedSpan span("campaign.job");
  span.set_value(static_cast<std::int64_t>(job.seed));
  try {
    auto campus_cfg = job.campus_cfg;
    campus_cfg.seed = job.seed;
    result.metrics = std::make_unique<util::MetricsRegistry>();
    result.campus = std::make_unique<workload::Campus>(campus_cfg);
    auto engine_cfg = job.engine_cfg;
    engine_cfg.metrics = result.metrics.get();
    if (job.provenance) {
      result.provenance = std::make_unique<ProvenanceLedger>();
      engine_cfg.provenance = result.provenance.get();
    }
    if (job.streaming) {
      result.streaming = std::make_unique<analysis::StreamingAnalytics>(
          streaming_config_for(*result.campus));
      engine_cfg.streaming = result.streaming.get();
      engine_cfg.sketch_tables = true;
    }
    result.engine =
        std::make_unique<DiscoveryEngine>(*result.campus, engine_cfg);
    if (job.setup) job.setup(*result.campus, *result.engine);
    if (job.drive) {
      job.drive(*result.campus, *result.engine);
    } else {
      result.engine->run();
    }
    // Only when the recorder is on: keeps the exported metric set (and
    // the golden campaign snapshots) identical for untraced runs.
    if (util::trace::enabled()) util::trace::export_metrics(*result.metrics);
    result.snapshot = result.metrics->snapshot();
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception";
  }
  result.wall_sec = wall_seconds_since(start);
}

}  // namespace

CampaignRunner::CampaignRunner(std::size_t threads)
    : threads_(threads == 0 ? default_threads() : threads) {}

std::size_t CampaignRunner::default_threads() {
  if (const char* env = std::getenv("SVCDISC_JOBS")) {
    const long n = std::atol(env);
    if (n >= 1) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<CampaignResult> CampaignRunner::run(
    std::vector<CampaignJob> jobs) const {
  SVCDISC_TRACE_SPAN("campaign.run");
  std::vector<CampaignResult> results(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    results[i].index = i;
    results[i].label = jobs[i].label;
    results[i].seed = jobs[i].seed;
  }

  const std::size_t n_workers =
      std::min(threads_, jobs.size() == 0 ? std::size_t{1} : jobs.size());
  if (n_workers <= 1) {
    // Serial fast path: no thread spawn cost.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      execute_job(jobs[i], results[i]);
    }
    return results;
  }

  // Each job is one pool task; the caller helps drain the queue.
  WorkerPool pool(n_workers);
  std::atomic<std::size_t> done{0};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pool.submit([&jobs, &results, &done, i] {
      execute_job(jobs[i], results[i]);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  pool.help_until([&done, &jobs] { return done.load() == jobs.size(); });
  return results;
}

std::vector<CampaignJob> seed_sweep_jobs(const workload::CampusConfig& campus,
                                         const EngineConfig& engine,
                                         std::uint64_t first_seed,
                                         std::size_t count) {
  std::vector<CampaignJob> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    CampaignJob job;
    job.campus_cfg = campus;
    job.engine_cfg = engine;
    job.seed = first_seed + i;
    job.label = "seed-" + std::to_string(job.seed);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace svcdisc::core
