// svcdisc — command-line front end.
//
// Subcommands:
//   scenarios                      list the built-in dataset presets
//   scenario <action> <dir>        scenario packs: run, record goldens,
//                                  verify byte-for-byte, list a zoo dir
//   run [flags]                    run a campaign, print the summary
//   campaign [flags]               parallel seed sweep + metrics export
//   loss-sweep [flags]             completeness vs capture loss (§4 under
//                                  impaired taps), i.i.d. and bursty
//   explain <addr:port> [flags]    evidence timeline for one service
//   replay <capture.pcap> [flags]  offline passive analysis of a pcap
//   filter <expr> <capture.pcap>   count packets matching a capture filter
//
// Observability (run, campaign, loss-sweep):
//   --trace-out=FILE       flight-recorder trace as Chrome trace-event
//                          JSON (chrome://tracing, Perfetto)
//   --provenance-out=FILE  per-service evidence ledger as sorted JSONL
//   --streaming[-out=FILE] sketch-backed online inference: incremental
//                          completeness snapshots + change-points (JSONL)
//   --log-level=LEVEL      stderr threshold: debug|info|warn|error
//
// Adaptive prober (run, campaign; DESIGN.md §16):
//   --prober=fixed|adaptive  fixed exhaustive sweep (default) or the
//                            budgeted prober with passive seeding,
//                            learned priors and LZR verification
//   --probe-budget=N         max first-stage probes per scan (0 = off)
//   --no-verify              count SYN-ACKs as open without the
//                            second-stage data probe
//
// Examples:
//   svcdisc_cli run --scenario=tiny --scans=4 --seed=7
//   svcdisc_cli run --scenario=tiny --prober=adaptive --probe-budget=3000
//   svcdisc_cli run --scenario=dtcp1_18d --pcap=border.pcap
//   svcdisc_cli run --scenario=tiny --trace-out=trace.json
//       --provenance-out=services.jsonl
//   svcdisc_cli campaign --scenario=tiny --jobs=4 --seeds=1..8
//       --json=metrics.json
//   svcdisc_cli loss-sweep --scenario=tiny --rates=0,2,5,10,20
//       --tsv=loss_sweep.tsv
//   svcdisc_cli explain 128.125.0.17:80 --scenario=tiny
//   svcdisc_cli replay border.pcap
//   svcdisc_cli filter "tcp and synack" border.pcap
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "active/scan_report.h"
#include "analysis/cdf.h"
#include "analysis/export.h"
#include "analysis/streaming.h"
#include "analysis/table.h"
#include "capture/filter.h"
#include "capture/impairment.h"
#include "capture/pcap_file.h"
#include "core/campaign_runner.h"
#include "core/completeness.h"
#include "core/engine.h"
#include "core/provenance.h"
#include "core/report.h"
#include "core/scenario.h"
#include "passive/table_io.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/trace.h"
#include "workload/campus.h"

namespace svcdisc {
namespace {

// Uniform argument handling for every subcommand: parse flags, require
// exactly `positionals` non-flag arguments, and on any problem print the
// usage (stdout for --help, stderr + non-zero otherwise). Returns true
// when the command may proceed; otherwise *exit_code holds its result.
// Centralized because the pre-audit CLI accepted unknown flags or stray
// positionals as success (exit 0) on several paths, which silently
// swallowed typos in scripts and CI.
bool parse_or_usage(util::Flags& flags, int argc, const char* const* argv,
                    std::size_t positionals, const char* pos_usage,
                    int* exit_code) {
  const bool parsed = flags.parse(argc, argv);
  if (parsed && flags.positional().size() == positionals) {
    *exit_code = 0;
    return true;
  }
  std::FILE* out = flags.help_requested() ? stdout : stderr;
  std::fputs(flags.usage().c_str(), out);
  if (pos_usage != nullptr) std::fputs(pos_usage, out);
  if (!flags.help_requested()) {
    if (!parsed) {
      std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    } else {
      std::fprintf(stderr,
                   "error: expected %zu positional argument(s), got %zu\n",
                   positionals, flags.positional().size());
    }
  }
  *exit_code = flags.help_requested() ? 0 : 2;
  return false;
}

// Range checks after parse (non-numeric values already exit 2 inside
// parse_or_usage).
bool validate_jobs(std::int64_t jobs) {
  if (jobs < 0) {
    std::fprintf(stderr, "error: --jobs must be >= 0 (got %lld)\n",
                 static_cast<long long>(jobs));
    return false;
  }
  return true;
}

bool validate_days(double days) {
  if (!(days >= 0)) {  // also rejects NaN
    std::fprintf(stderr, "error: --days must be >= 0 (got %g)\n", days);
    return false;
  }
  return true;
}

// Shared prober-selection flags (run, campaign): the paper's fixed
// exhaustive sweep, or the budgeted adaptive prober (DESIGN.md §16).
void add_prober_flags(util::Flags& flags, std::string* prober,
                      std::int64_t* budget, bool* no_verify) {
  flags.add_string("prober",
                   "probing strategy: fixed (paper sweep) or adaptive "
                   "(passive-seeded, prior-ranked, budgeted)",
                   prober);
  flags.add_int64("probe-budget",
                  "adaptive prober: max first-stage probes per scan "
                  "(0 = unlimited)",
                  budget);
  flags.add_bool("no-verify",
                 "adaptive prober: count SYN-ACKs as open without the "
                 "LZR-style data-probe verification",
                 no_verify);
}

bool apply_prober_flags(const std::string& prober, std::int64_t budget,
                        bool no_verify, core::EngineConfig* cfg) {
  if (prober == "adaptive") {
    cfg->adaptive_prober = true;
  } else if (prober != "fixed") {
    std::fprintf(stderr,
                 "error: --prober must be fixed or adaptive (got %s)\n",
                 prober.c_str());
    return false;
  }
  if (budget < 0) {
    std::fprintf(stderr, "error: --probe-budget must be >= 0 (got %lld)\n",
                 static_cast<long long>(budget));
    return false;
  }
  if (!cfg->adaptive_prober && (budget > 0 || no_verify)) {
    std::fprintf(
        stderr,
        "error: --probe-budget/--no-verify require --prober=adaptive\n");
    return false;
  }
  cfg->adaptive.probe_budget = static_cast<std::uint64_t>(budget);
  cfg->adaptive.verify = !no_verify;
  return true;
}

int cmd_scenarios(int argc, const char* const* argv) {
  util::Flags flags("svcdisc_cli scenarios", "list the dataset presets");
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 0, nullptr, &exit_code)) {
    return exit_code;
  }
  analysis::TextTable table({"name", "description"});
  for (const workload::Preset& p : workload::presets()) {
    table.add_row({p.name, p.summary});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

// Shared --log-level plumbing: every subcommand takes the flag; an empty
// value keeps the default (warn).
void add_log_level_flag(util::Flags& flags, std::string* text) {
  flags.add_string("log-level", "stderr log threshold: debug|info|warn|error",
                   text);
}

bool apply_log_level(const std::string& text) {
  if (text.empty()) return true;
  util::LogLevel level = util::log_level();
  if (!util::parse_log_level(text, &level)) {
    std::fprintf(stderr,
                 "bad log level %s (expected debug|info|warn|error)\n",
                 text.c_str());
    return false;
  }
  util::set_log_level(level);
  return true;
}

// Stops the recorder and writes the Chrome trace-event JSON file.
bool finish_trace(const std::string& path) {
  util::trace::stop();
  if (!util::trace::write_chrome_json(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("trace: %llu events (%llu dropped) -> %s\n",
              static_cast<unsigned long long>(util::trace::recorded()),
              static_cast<unsigned long long>(util::trace::dropped()),
              path.c_str());
  return true;
}

int cmd_run(int argc, const char* const* argv) {
  std::string scenario_name = "tiny";
  std::int64_t seed = 24301;
  std::int64_t scans = -1;  // -1 = scenario default schedule
  double days = 0;          // 0 = scenario default duration
  std::string pcap_path;
  std::string table_path;
  std::string trace_path;
  std::string provenance_path;
  std::string log_level_text;
  std::string streaming_path;
  bool scan_report = false;
  bool streaming = false;
  bool verbose = false;
  std::string prober = "fixed";
  std::int64_t probe_budget = 0;
  bool no_verify = false;

  util::Flags flags("svcdisc_cli run", "run a discovery campaign");
  flags.add_string("scenario", "scenario preset (see `scenarios`)",
                   &scenario_name);
  flags.add_int64("seed", "campaign seed", &seed);
  flags.add_int64("scans", "number of 12-hourly scans (-1 = preset)",
                  &scans);
  flags.add_double("days", "override campaign duration in days", &days);
  flags.add_string("pcap", "also record the border capture to this file",
                   &pcap_path);
  flags.add_string("table", "save the passive service table (TSV) here",
                   &table_path);
  flags.add_bool("scan-report", "print the last scan, nmap-style",
                 &scan_report);
  flags.add_bool("verbose", "log simulation progress to stderr", &verbose);
  flags.add_string("trace-out",
                   "write a Chrome trace-event JSON flight record here",
                   &trace_path);
  flags.add_string("provenance-out",
                   "write the per-service evidence ledger (JSONL) here",
                   &provenance_path);
  flags.add_bool("streaming",
                 "sketch-backed online inference: constant-memory tables, "
                 "incremental completeness, change-point detection",
                 &streaming);
  flags.add_string("streaming-out",
                   "write streaming snapshots + change-points (JSONL) here "
                   "(implies --streaming)",
                   &streaming_path);
  add_prober_flags(flags, &prober, &probe_budget, &no_verify);
  add_log_level_flag(flags, &log_level_text);
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 0, nullptr, &exit_code)) {
    return exit_code;
  }
  if (!streaming_path.empty()) streaming = true;
  if (!validate_days(days)) return 2;
  const workload::Preset* scenario = workload::find_preset(scenario_name);
  if (!scenario) {
    std::fprintf(stderr, "unknown scenario %s (try `scenarios`)\n",
                 scenario_name.c_str());
    return 2;
  }
  if (verbose) util::set_log_level(util::LogLevel::kInfo);
  if (!apply_log_level(log_level_text)) return 2;
  if (!trace_path.empty()) util::trace::start();

  auto cfg = scenario->make();
  cfg.seed = static_cast<std::uint64_t>(seed);
  if (days > 0) cfg.duration = util::seconds_f(days * 86400.0);
  workload::Campus campus(cfg);

  core::ProvenanceLedger ledger;
  core::EngineConfig engine_cfg;
  engine_cfg.scan_count =
      scans >= 0 ? static_cast<int>(scans)
                 : static_cast<int>(cfg.duration.days() * 2);
  if (!apply_prober_flags(prober, probe_budget, no_verify, &engine_cfg)) {
    return 2;
  }
  if (!provenance_path.empty()) engine_cfg.provenance = &ledger;
  std::unique_ptr<analysis::StreamingAnalytics> stream;
  if (streaming) {
    stream = std::make_unique<analysis::StreamingAnalytics>(
        core::streaming_config_for(campus));
    engine_cfg.streaming = stream.get();
    engine_cfg.sketch_tables = true;
  }
  core::DiscoveryEngine engine(campus, engine_cfg);

  std::unique_ptr<capture::PcapWriter> writer;
  if (!pcap_path.empty()) {
    writer = std::make_unique<capture::PcapWriter>(pcap_path);
    if (!writer->ok()) {
      std::fprintf(stderr, "cannot open %s\n", pcap_path.c_str());
      return 1;
    }
    engine.add_tap_consumer(writer.get());
  }

  engine.run();

  const auto end = util::kEpoch + campus.config().duration;
  const auto passive = core::addresses_found(engine.monitor().table(), end);
  const auto active = core::addresses_found(engine.prober().table(), end);
  const auto c = core::completeness(passive, active);

  std::printf("scenario %s, seed %lld, %.1f days, %zu scans\n",
              scenario_name.c_str(), static_cast<long long>(seed),
              campus.config().duration.days(),
              engine.prober().scans().size());
  analysis::TextTable table({"measure", "value"});
  table.add_row({"probe targets",
                 analysis::fmt_count(campus.scan_targets().size())});
  table.add_row({"union servers", analysis::fmt_count(c.union_count)});
  table.add_row({"active", analysis::fmt_count_pct(c.active_total,
                                                   c.union_count)});
  table.add_row({"passive", analysis::fmt_count_pct(c.passive_total,
                                                    c.union_count)});
  table.add_row({"passive only", analysis::fmt_count_pct(c.passive_only,
                                                         c.union_count)});
  table.add_row({"scanners flagged",
                 analysis::fmt_count(engine.scan_detector().scanner_count())});
  std::fputs(table.render().c_str(), stdout);
  if (const active::AdaptiveProber* adaptive = engine.adaptive_prober()) {
    std::printf(
        "adaptive: %llu probes spent (%llu passive-seeded), "
        "%llu verified open, %llu middlebox demotions\n",
        static_cast<unsigned long long>(adaptive->budget_spent_total()),
        static_cast<unsigned long long>(adaptive->seeds_probed_total()),
        static_cast<unsigned long long>(adaptive->verify_confirmed_total()),
        static_cast<unsigned long long>(adaptive->demotions_total()));
  }
  if (writer) {
    if (!writer->ok()) {
      std::fprintf(stderr,
                   "error: capture write to %s failed "
                   "(%llu records written, %llu lost); file is incomplete\n",
                   pcap_path.c_str(),
                   static_cast<unsigned long long>(writer->written()),
                   static_cast<unsigned long long>(writer->failed()));
      return 1;
    }
    std::printf("capture: %llu packets -> %s\n",
                static_cast<unsigned long long>(writer->written()),
                pcap_path.c_str());
  }
  if (!table_path.empty()) {
    if (passive::save_table(engine.monitor().table(), table_path)) {
      std::printf("service table: %zu services -> %s\n",
                  engine.monitor().table().size(), table_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", table_path.c_str());
    }
  }
  if (stream) {
    const auto& snaps = stream->snapshots();
    std::printf(
        "streaming: %zu windows, %llu services, "
        "overlap %.2f%%, flow-weighted active %.2f%%, "
        "%llu change-points (%llu bursts), sketches %zu bytes\n",
        snaps.size(),
        static_cast<unsigned long long>(stream->services_seen()),
        snaps.empty() ? 0.0 : static_cast<double>(snaps.back().overlap_bp) /
                                  100.0,
        snaps.empty() ? 0.0
                      : static_cast<double>(
                            snaps.back().flow_weighted_active_bp) /
                            100.0,
        static_cast<unsigned long long>(stream->change_points().size()),
        static_cast<unsigned long long>(stream->burst_count()),
        stream->memory_bytes());
    if (!streaming_path.empty()) {
      const std::string body =
          stream->snapshots_jsonl() + stream->events_jsonl();
      std::FILE* f = std::fopen(streaming_path.c_str(), "wb");
      if (!f || std::fwrite(body.data(), 1, body.size(), f) != body.size()) {
        std::fprintf(stderr, "cannot write %s\n", streaming_path.c_str());
        if (f) std::fclose(f);
        return 1;
      }
      std::fclose(f);
      std::printf("streaming: %zu snapshots + %zu events -> %s\n",
                  snaps.size(), stream->change_points().size(),
                  streaming_path.c_str());
    }
  }
  if (scan_report && !engine.prober().scans().empty()) {
    active::ReportOptions options;
    options.max_hosts = 20;
    std::fputs(active::format_scan_report(engine.prober().scans().back(),
                                          campus.calendar(), options)
                   .c_str(),
               stdout);
  }
  if (!trace_path.empty() && !finish_trace(trace_path)) return 1;
  if (!provenance_path.empty()) {
    // The ledger must agree 1:1 with the final tables — any drift means
    // an instrumentation gap, which would silently poison forensics.
    const auto audit =
        ledger.audit(engine.monitor().table(), engine.prober().table());
    if (!audit.ok()) {
      std::fprintf(stderr,
                   "error: provenance audit failed (%llu matched, "
                   "%llu missing, %llu extra, %llu time mismatches)\n",
                   static_cast<unsigned long long>(audit.matched),
                   static_cast<unsigned long long>(audit.missing_in_ledger),
                   static_cast<unsigned long long>(audit.extra_in_ledger),
                   static_cast<unsigned long long>(audit.time_mismatch));
      return 1;
    }
    if (!ledger.write_jsonl(provenance_path)) {
      std::fprintf(stderr, "cannot write %s\n", provenance_path.c_str());
      return 1;
    }
    std::printf("provenance: %zu services (audit ok) -> %s\n", ledger.size(),
                provenance_path.c_str());
  }
  return 0;
}

// Parses "a..b" (inclusive) or a single seed. Returns false on bad input.
bool parse_seed_range(const std::string& text, std::uint64_t* first,
                      std::size_t* count) {
  const auto dots = text.find("..");
  char* end = nullptr;
  *first = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str()) return false;
  if (dots == std::string::npos) {
    *count = 1;
    return *end == '\0';
  }
  if (static_cast<std::size_t>(end - text.c_str()) != dots) return false;
  const char* last_text = text.c_str() + dots + 2;
  char* last_end = nullptr;
  const std::uint64_t last = std::strtoull(last_text, &last_end, 10);
  if (last_end == last_text || *last_end != '\0' || last < *first) {
    return false;
  }
  *count = static_cast<std::size_t>(last - *first) + 1;
  return true;
}

int cmd_campaign(int argc, const char* const* argv) {
  std::string scenario_name = "tiny";
  std::string seeds_text = "1..4";
  std::int64_t jobs = 0;  // 0 = SVCDISC_JOBS env / hardware threads
  std::int64_t scans = -1;
  double days = 0;
  std::string json_path;
  std::string trace_path;
  std::string provenance_path;
  std::string streaming_path;
  std::string log_level_text;
  std::string prober = "fixed";
  std::int64_t probe_budget = 0;
  bool no_verify = false;

  util::Flags flags("svcdisc_cli campaign",
                    "run a seed sweep on the parallel campaign runner");
  flags.add_string("scenario", "scenario preset (see `scenarios`)",
                   &scenario_name);
  flags.add_string("seeds", "inclusive seed range, e.g. 1..8 (or one seed)",
                   &seeds_text);
  flags.add_int64("jobs", "worker threads (0 = SVCDISC_JOBS or hardware)",
                  &jobs);
  flags.add_int64("scans", "number of 12-hourly scans (-1 = preset)",
                  &scans);
  flags.add_double("days", "override campaign duration in days", &days);
  flags.add_string("json", "export per-seed metrics JSON to this file",
                   &json_path);
  flags.add_string("trace-out",
                   "write a Chrome trace-event JSON flight record here "
                   "(one track per worker thread)",
                   &trace_path);
  flags.add_string("provenance-out",
                   "write every job's evidence ledger (labelled JSONL) here",
                   &provenance_path);
  flags.add_string("streaming-out",
                   "run every job with streaming analytics and write the "
                   "concatenated snapshots + change-points (JSONL) here",
                   &streaming_path);
  add_prober_flags(flags, &prober, &probe_budget, &no_verify);
  add_log_level_flag(flags, &log_level_text);
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 0, nullptr, &exit_code)) {
    return exit_code;
  }
  if (!validate_jobs(jobs) || !validate_days(days)) return 2;
  const workload::Preset* scenario = workload::find_preset(scenario_name);
  if (!scenario) {
    std::fprintf(stderr, "unknown scenario %s (try `scenarios`)\n",
                 scenario_name.c_str());
    return 2;
  }
  if (!apply_log_level(log_level_text)) return 2;
  std::uint64_t first_seed = 0;
  std::size_t seed_count = 0;
  if (!parse_seed_range(seeds_text, &first_seed, &seed_count)) {
    std::fprintf(stderr, "bad seed range %s (expected e.g. 1..8)\n",
                 seeds_text.c_str());
    return 2;
  }
  if (!trace_path.empty()) util::trace::start();

  auto cfg = scenario->make();
  if (days > 0) cfg.duration = util::seconds_f(days * 86400.0);
  core::EngineConfig engine_cfg;
  engine_cfg.scan_count =
      scans >= 0 ? static_cast<int>(scans)
                 : static_cast<int>(cfg.duration.days() * 2);
  if (!apply_prober_flags(prober, probe_budget, no_verify, &engine_cfg)) {
    return 2;
  }

  auto sweep_jobs =
      core::seed_sweep_jobs(cfg, engine_cfg, first_seed, seed_count);
  if (!provenance_path.empty()) {
    for (auto& job : sweep_jobs) job.provenance = true;
  }
  if (!streaming_path.empty()) {
    for (auto& job : sweep_jobs) job.streaming = true;
  }
  const core::CampaignRunner runner(
      jobs > 0 ? static_cast<std::size_t>(jobs) : 0);
  const auto start = std::chrono::steady_clock::now();
  const auto results = runner.run(std::move(sweep_jobs));
  const double total_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf("scenario %s, seeds %s, %zu campaign(s) on %zu thread(s), "
              "%.1f s\n",
              scenario_name.c_str(), seeds_text.c_str(), results.size(),
              runner.threads(), total_sec);
  analysis::TextTable table({"seed", "sim events", "passive disc",
                             "probes sent", "scanners", "wall s"});
  int failures = 0;
  std::vector<analysis::MetricsExport> exports;
  for (const auto& result : results) {
    if (!result.ok()) {
      std::fprintf(stderr, "seed %llu failed: %s\n",
                   static_cast<unsigned long long>(result.seed),
                   result.error.c_str());
      ++failures;
      continue;
    }
    const auto metric = [&](const char* name) {
      return analysis::fmt_count(
          static_cast<std::size_t>(result.snapshot.value_of(name)));
    };
    char wall[24];
    std::snprintf(wall, sizeof wall, "%.2f", result.wall_sec);
    table.add_row(
        {std::to_string(result.seed), metric("sim.events_processed"),
         metric("passive.tcp_discoveries"), metric("active.probes_tcp_sent"),
         metric("scan_detector.scanners_flagged"), wall});
    analysis::MetricsExport e;
    e.label = result.label;
    e.seed = result.seed;
    e.wall_sec = result.wall_sec;
    e.snapshot = &result.snapshot;
    exports.push_back(e);
  }
  std::fputs(table.render().c_str(), stdout);
  if (!json_path.empty()) {
    if (analysis::export_metrics_json(json_path, exports)) {
      std::printf("metrics: %zu campaign(s) -> %s\n", exports.size(),
                  json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  if (!trace_path.empty() && !finish_trace(trace_path)) return 1;
  if (!provenance_path.empty()) {
    // One labelled JSONL stream, jobs concatenated in job (= seed)
    // order, each job's lines sorted — deterministic regardless of the
    // thread schedule that ran them.
    std::string body;
    std::size_t services = 0;
    for (const auto& result : results) {
      if (!result.ok() || !result.provenance) continue;
      body += result.provenance->to_jsonl(result.label);
      services += result.provenance->size();
    }
    std::FILE* f = std::fopen(provenance_path.c_str(), "wb");
    if (!f || std::fwrite(body.data(), 1, body.size(), f) != body.size()) {
      std::fprintf(stderr, "cannot write %s\n", provenance_path.c_str());
      if (f) std::fclose(f);
      return 1;
    }
    std::fclose(f);
    std::printf("provenance: %zu services over %zu campaign(s) -> %s\n",
                services, results.size(), provenance_path.c_str());
  }
  if (!streaming_path.empty()) {
    // Jobs concatenated in job (= seed) order; each job's stream is
    // already deterministic, so the file is too.
    std::string body;
    std::size_t events = 0;
    for (const auto& result : results) {
      if (!result.ok() || !result.streaming) continue;
      body += result.streaming->snapshots_jsonl();
      body += result.streaming->events_jsonl();
      events += result.streaming->change_points().size();
    }
    std::FILE* f = std::fopen(streaming_path.c_str(), "wb");
    if (!f || std::fwrite(body.data(), 1, body.size(), f) != body.size()) {
      std::fprintf(stderr, "cannot write %s\n", streaming_path.c_str());
      if (f) std::fclose(f);
      return 1;
    }
    std::fclose(f);
    std::printf("streaming: %zu change-points over %zu campaign(s) -> %s\n",
                events, results.size(), streaming_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

// Parses a comma-separated list of non-negative percentages.
bool parse_rate_list(const std::string& text, std::vector<double>* out) {
  out->clear();
  const char* p = text.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p || v < 0 || v >= 100.0) return false;
    out->push_back(v);
    p = end;
    if (*p == ',') ++p;
    else if (*p != '\0') return false;
  }
  return !out->empty();
}

int cmd_loss_sweep(int argc, const char* const* argv) {
  std::string scenario_name = "tiny";
  std::int64_t seed = 24301;
  std::string rates_text = "0,1,2,5,10,15,20";
  double burst_len = 8.0;
  std::int64_t scans = -1;
  double days = 0;
  std::int64_t jobs = 0;
  std::string tsv_path;
  std::string trace_path;
  std::string provenance_path;
  std::string log_level_text;

  util::Flags flags("svcdisc_cli loss-sweep",
                    "rerun the completeness comparison under injected "
                    "capture loss (i.i.d. and Gilbert-Elliott bursty)");
  flags.add_string("scenario", "scenario preset (see `scenarios`)",
                   &scenario_name);
  flags.add_int64("seed", "campaign seed (identical traffic in every row)",
                  &seed);
  flags.add_string("rates", "loss rates to sweep, percent (comma-separated)",
                   &rates_text);
  flags.add_double("burst-len",
                   "mean loss-burst length in packets (bursty model)",
                   &burst_len);
  flags.add_int64("scans", "number of 12-hourly scans (-1 = preset)", &scans);
  flags.add_double("days", "override campaign duration in days", &days);
  flags.add_int64("jobs", "worker threads (0 = SVCDISC_JOBS or hardware)",
                  &jobs);
  flags.add_string("tsv", "export the sweep table (TSV) to this file",
                   &tsv_path);
  flags.add_string("trace-out",
                   "write a Chrome trace-event JSON flight record here",
                   &trace_path);
  flags.add_string("provenance-out",
                   "write every row's evidence ledger (labelled JSONL) here",
                   &provenance_path);
  add_log_level_flag(flags, &log_level_text);
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 0, nullptr, &exit_code)) {
    return exit_code;
  }
  if (!validate_jobs(jobs) || !validate_days(days)) return 2;
  const workload::Preset* scenario = workload::find_preset(scenario_name);
  if (!scenario) {
    std::fprintf(stderr, "unknown scenario %s (try `scenarios`)\n",
                 scenario_name.c_str());
    return 2;
  }
  std::vector<double> rates;
  if (!parse_rate_list(rates_text, &rates)) {
    std::fprintf(stderr, "bad rate list %s (expected e.g. 0,1,5,20)\n",
                 rates_text.c_str());
    return 2;
  }
  if (burst_len < 1.0) {
    std::fprintf(stderr, "burst-len must be >= 1\n");
    return 2;
  }
  if (!apply_log_level(log_level_text)) return 2;
  if (!trace_path.empty()) util::trace::start();

  auto cfg = scenario->make();
  cfg.seed = static_cast<std::uint64_t>(seed);
  if (days > 0) cfg.duration = util::seconds_f(days * 86400.0);
  core::EngineConfig engine_cfg;
  engine_cfg.scan_count =
      scans >= 0 ? static_cast<int>(scans)
                 : static_cast<int>(cfg.duration.days() * 2);

  // Every row replays the SAME campus traffic (one campaign seed); only
  // the impairment differs, so completeness deltas are attributable to
  // loss alone. The impairment rng is forked per row.
  struct RowSpec {
    const char* model;
    double rate_pct;
  };
  std::vector<RowSpec> specs;
  std::vector<core::CampaignJob> sweep;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double frac = rates[i] / 100.0;
    const auto row_seed = [&](std::uint64_t model_tag) {
      return static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ULL +
             model_tag * 0x100000001b3ULL + i;
    };
    const char* models[] = {"iid", "bursty"};
    for (std::uint64_t m = 0; m < (rates[i] > 0 ? 2u : 1u); ++m) {
      core::CampaignJob job;
      job.campus_cfg = cfg;
      job.engine_cfg = engine_cfg;
      job.seed = cfg.seed;
      if (rates[i] == 0) {
        job.label = "none";
        specs.push_back({"none", 0});
      } else if (m == 0) {
        job.engine_cfg.impairment =
            capture::ImpairmentConfig::iid(frac, row_seed(1));
        job.label = "iid";
        specs.push_back({models[m], rates[i]});
      } else {
        job.engine_cfg.impairment =
            capture::ImpairmentConfig::bursty(frac, burst_len, row_seed(2));
        job.label = "bursty";
        specs.push_back({models[m], rates[i]});
      }
      job.provenance = !provenance_path.empty();
      sweep.push_back(std::move(job));
    }
  }

  const core::CampaignRunner runner(
      jobs > 0 ? static_cast<std::size_t>(jobs) : 0);
  auto results = runner.run(std::move(sweep));

  // Baseline = the first lossless row (for the relative-completeness
  // column); absent when the user swept only non-zero rates.
  double baseline_passive = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (specs[i].rate_pct == 0 && results[i].ok()) {
      const auto end = util::kEpoch + results[i].c().config().duration;
      baseline_passive = static_cast<double>(
          core::addresses_found(results[i].e().monitor().table(), end)
              .size());
      break;
    }
  }

  std::printf("loss sweep: scenario %s, seed %lld, burst len %.1f, "
              "%zu campaign(s) on %zu thread(s)\n",
              scenario_name.c_str(), static_cast<long long>(seed), burst_len,
              results.size(), runner.threads());
  analysis::TextTable table({"model", "loss%", "observed%", "passive",
                             "union%", "vs lossless%", "disc t50 d",
                             "disc t90 d", "ledger"});
  std::string tsv = "model\tloss_pct\tobserved_loss_pct\tpassive\tunion\t"
                    "passive_pct\trel_lossless_pct\tdisc_t50_days\t"
                    "disc_t90_days\n";
  int failures = 0;
  bool conservation_ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    auto& result = results[i];
    if (!result.ok()) {
      std::fprintf(stderr, "%s %.1f%% failed: %s\n", specs[i].model,
                   specs[i].rate_pct, result.error.c_str());
      ++failures;
      continue;
    }
    auto& engine = result.e();
    const auto end = util::kEpoch + result.c().config().duration;
    const auto passive = core::addresses_found(engine.monitor().table(), end);
    const auto active = core::addresses_found(engine.prober().table(), end);
    const auto c = core::completeness(passive, active);

    // Conservation ledger across this row's taps: every pushed or
    // duplicated packet must be accounted delivered or dropped, with
    // nothing still held after the engine's end-of-run flush.
    std::uint64_t pushed = 0, delivered = 0, dropped = 0, duplicated = 0;
    std::size_t held = 0;
    for (std::size_t t = 0; t < engine.tap_count(); ++t) {
      if (const capture::Impairment* imp = engine.impairment(t)) {
        pushed += imp->pushed();
        delivered += imp->delivered();
        dropped += imp->dropped();
        duplicated += imp->duplicated();
        held += imp->held();
      }
    }
    const bool balanced =
        held == 0 && pushed + duplicated == delivered + dropped;
    if (!balanced) conservation_ok = false;
    const double observed_pct =
        pushed > 0 ? 100.0 * static_cast<double>(dropped) /
                         static_cast<double>(pushed)
                   : 0.0;

    analysis::Cdf discovery_days;
    for (const auto& [key, when] : engine.monitor().table().chronological()) {
      discovery_days.add(when.days());
    }
    const double t50 = discovery_days.quantile(0.5);
    const double t90 = discovery_days.quantile(0.9);
    const double rel = baseline_passive > 0
                           ? 100.0 * static_cast<double>(c.passive_total) /
                                 baseline_passive
                           : 0.0;

    char loss_s[16], obs_s[16], union_s[16], rel_s[16], t50_s[16], t90_s[16];
    std::snprintf(loss_s, sizeof loss_s, "%.1f", specs[i].rate_pct);
    std::snprintf(obs_s, sizeof obs_s, "%.2f", observed_pct);
    std::snprintf(union_s, sizeof union_s, "%.1f", c.passive_pct());
    std::snprintf(rel_s, sizeof rel_s, "%.1f", rel);
    std::snprintf(t50_s, sizeof t50_s, "%.2f", t50);
    std::snprintf(t90_s, sizeof t90_s, "%.2f", t90);
    table.add_row({specs[i].model, loss_s, obs_s,
                   analysis::fmt_count(c.passive_total), union_s, rel_s,
                   t50_s, t90_s, balanced ? "ok" : "VIOLATED"});
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s\t%.1f\t%.2f\t%llu\t%llu\t%.1f\t%.1f\t%.3f\t%.3f\n",
                  specs[i].model, specs[i].rate_pct, observed_pct,
                  static_cast<unsigned long long>(c.passive_total),
                  static_cast<unsigned long long>(c.union_count),
                  c.passive_pct(), rel, t50, t90);
    tsv += line;
  }
  std::fputs(table.render().c_str(), stdout);
  if (!conservation_ok) {
    std::fprintf(stderr,
                 "error: impairment conservation violated "
                 "(pushed + duplicated != delivered + dropped)\n");
  }
  if (!tsv_path.empty()) {
    std::FILE* f = std::fopen(tsv_path.c_str(), "w");
    if (!f || std::fputs(tsv.c_str(), f) == EOF) {
      std::fprintf(stderr, "cannot write %s\n", tsv_path.c_str());
      if (f) std::fclose(f);
      return 1;
    }
    std::fclose(f);
    std::printf("sweep table -> %s\n", tsv_path.c_str());
  }
  if (!trace_path.empty() && !finish_trace(trace_path)) return 1;
  if (!provenance_path.empty()) {
    std::string body;
    std::size_t services = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok() || !results[i].provenance) continue;
      char label[48];
      std::snprintf(label, sizeof label, "%s-%.1f", specs[i].model,
                    specs[i].rate_pct);
      body += results[i].provenance->to_jsonl(label);
      services += results[i].provenance->size();
    }
    std::FILE* f = std::fopen(provenance_path.c_str(), "wb");
    if (!f || std::fwrite(body.data(), 1, body.size(), f) != body.size()) {
      std::fprintf(stderr, "cannot write %s\n", provenance_path.c_str());
      if (f) std::fclose(f);
      return 1;
    }
    std::fclose(f);
    std::printf("provenance: %zu services over %zu row(s) -> %s\n", services,
                results.size(), provenance_path.c_str());
  }
  return failures == 0 && conservation_ok ? 0 : 1;
}

// Parses "addr:port" with an optional "/tcp" or "/udp" suffix
// (default tcp) into a ServiceKey.
bool parse_service_key(const std::string& text, passive::ServiceKey* key) {
  std::string spec = text;
  net::Proto proto = net::Proto::kTcp;
  const auto slash = spec.find('/');
  if (slash != std::string::npos) {
    const std::string proto_text = spec.substr(slash + 1);
    if (proto_text == "udp") {
      proto = net::Proto::kUdp;
    } else if (proto_text != "tcp") {
      return false;
    }
    spec.resize(slash);
  }
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos) return false;
  const auto addr = net::Ipv4::parse(spec.substr(0, colon));
  if (!addr) return false;
  const std::string port_text = spec.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || port > 65535) return false;
  key->addr = *addr;
  key->proto = proto;
  key->port = static_cast<net::Port>(port);
  return true;
}

int cmd_explain(int argc, const char* const* argv) {
  std::string scenario_name = "tiny";
  std::int64_t seed = 24301;
  std::int64_t scans = -1;
  double days = 0;
  bool streaming = false;
  std::string log_level_text;
  util::Flags flags("svcdisc_cli explain",
                    "re-run a campaign with the provenance ledger on and "
                    "print one service's evidence timeline");
  flags.add_string("scenario", "scenario preset (see `scenarios`)",
                   &scenario_name);
  flags.add_int64("seed", "campaign seed", &seed);
  flags.add_int64("scans", "number of 12-hourly scans (-1 = preset)",
                  &scans);
  flags.add_double("days", "override campaign duration in days", &days);
  flags.add_bool("streaming",
                 "also run streaming analytics and merge its change-point "
                 "events into the timeline",
                 &streaming);
  add_log_level_flag(flags, &log_level_text);
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 1,
                      "usage: explain <addr:port[/tcp|/udp]> [flags]\n",
                      &exit_code)) {
    return exit_code;
  }
  passive::ServiceKey key;
  if (!parse_service_key(flags.positional()[0], &key)) {
    std::fprintf(stderr,
                 "bad service spec %s (want addr:port, addr:port/tcp, or "
                 "addr:port/udp)\n",
                 flags.positional()[0].c_str());
    return 2;
  }
  if (!validate_days(days)) return 2;
  if (!apply_log_level(log_level_text)) return 2;
  const workload::Preset* scenario = workload::find_preset(scenario_name);
  if (!scenario) {
    std::fprintf(stderr, "unknown scenario %s (try `scenarios`)\n",
                 scenario_name.c_str());
    return 2;
  }

  auto cfg = scenario->make();
  cfg.seed = static_cast<std::uint64_t>(seed);
  if (days > 0) cfg.duration = util::seconds_f(days * 86400.0);
  workload::Campus campus(cfg);

  core::ProvenanceLedger ledger;
  core::EngineConfig engine_cfg;
  engine_cfg.scan_count =
      scans >= 0 ? static_cast<int>(scans)
                 : static_cast<int>(cfg.duration.days() * 2);
  engine_cfg.provenance = &ledger;
  std::unique_ptr<analysis::StreamingAnalytics> stream;
  if (streaming) {
    stream = std::make_unique<analysis::StreamingAnalytics>(
        core::streaming_config_for(campus));
    engine_cfg.streaming = stream.get();
    engine_cfg.sketch_tables = true;
  }
  core::DiscoveryEngine engine(campus, engine_cfg);
  engine.run();

  const std::string out = ledger.explain(key, campus.calendar());
  std::vector<std::string> stream_lines;
  if (stream) stream_lines = stream->explain_lines(key, campus.calendar());
  if (out.empty() && stream_lines.empty()) {
    // Scale-universe addresses have no Host and may never be contacted,
    // but their behavior is still fully determined — explain it instead
    // of presenting an empty timeline as "nothing known".
    if (const host::ScaleUniverse* u = campus.universe();
        u != nullptr && u->contains(key.addr)) {
      const host::ScaleProfile profile = u->profile(key.addr);
      std::printf("%s: synthetic block member (scale universe, %llu addrs)\n",
                  flags.positional()[0].c_str(),
                  static_cast<unsigned long long>(u->universe_size()));
      if (!profile.live) {
        std::printf("  profile: dark (never answers)\n");
      } else if (profile.service) {
        std::printf("  profile: live, tcp service on port %u%s\n",
                    static_cast<unsigned>(profile.port),
                    profile.icmp_echo ? ", answers ping" : "");
      } else {
        std::printf("  profile: live, no listening service%s\n",
                    profile.icmp_echo ? ", answers ping" : "");
      }
      const std::uint32_t contacted = u->packets_received(key.addr);
      if (contacted == 0) {
        std::printf("  no evidence this campaign (seed %lld): "
                    "the address was never contacted\n",
                    static_cast<long long>(seed));
      } else {
        std::printf("  no service evidence this campaign (seed %lld): "
                    "%u packets reached the address but none proved a "
                    "service on this port\n",
                    static_cast<long long>(seed), contacted);
      }
      return 0;
    }
    std::fprintf(stderr,
                 "%s: no evidence recorded (scenario %s, seed %lld, "
                 "%zu services seen)\n",
                 flags.positional()[0].c_str(), scenario_name.c_str(),
                 static_cast<long long>(seed), ledger.size());
    return 1;
  }
  std::fputs(out.c_str(), stdout);
  if (!stream_lines.empty()) {
    std::printf("streaming events:\n");
    for (const std::string& line : stream_lines) {
      std::printf("  %s\n", line.c_str());
    }
  }
  return 0;
}

int cmd_replay(int argc, const char* const* argv) {
  std::string net_text = "128.125.0.0/16";
  std::string table_path;
  std::string log_level_text;
  bool all_ports = false;
  util::Flags flags("svcdisc_cli replay",
                    "offline passive analysis of a pcap capture");
  flags.add_string("net", "internal (campus) prefix", &net_text);
  flags.add_string("table", "save the service table (TSV) here",
                   &table_path);
  flags.add_bool("all-ports", "record services on any port", &all_ports);
  add_log_level_flag(flags, &log_level_text);
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 1, "usage: replay <capture.pcap>\n",
                      &exit_code)) {
    return exit_code;
  }
  if (!apply_log_level(log_level_text)) return 2;
  const auto prefix = net::Prefix::parse(net_text);
  if (!prefix) {
    std::fprintf(stderr, "bad prefix: %s\n", net_text.c_str());
    return 2;
  }
  const auto result =
      capture::PcapReader::read_file(flags.positional()[0]);
  if (!result.ok) {
    std::fprintf(stderr, "cannot read %s\n", flags.positional()[0].c_str());
    return 1;
  }

  passive::MonitorConfig cfg;
  cfg.internal_prefixes = {*prefix};
  if (!all_ports) cfg.tcp_ports = net::selected_tcp_ports();
  cfg.detect_udp = true;
  passive::PassiveMonitor monitor(cfg);
  for (const net::Packet& p : result.packets) monitor.observe(p);

  std::printf("replayed %zu packets (%llu skipped)\n", result.packets.size(),
              static_cast<unsigned long long>(result.skipped));
  std::printf("services discovered: %zu on %zu addresses\n",
              monitor.table().size(), monitor.table().address_count());
  analysis::TextTable table({"address", "proto", "port", "flows",
                             "clients"});
  int shown = 0;
  for (const auto& [key, when] : monitor.table().chronological()) {
    const passive::ServiceRecord* record = monitor.table().find(key);
    table.add_row({key.addr.to_string(), std::string(proto_name(key.proto)),
                   std::to_string(key.port),
                   analysis::fmt_count(record ? record->flows : 0),
                   analysis::fmt_count(record ? record->client_count() : 0)});
    if (++shown >= 20) break;
  }
  std::fputs(table.render().c_str(), stdout);
  if (monitor.table().size() > 20) {
    std::printf("... (%zu more)\n", monitor.table().size() - 20);
  }
  if (!table_path.empty() &&
      passive::save_table(monitor.table(), table_path)) {
    std::printf("service table -> %s\n", table_path.c_str());
  }
  return 0;
}

int cmd_filter(int argc, const char* const* argv) {
  std::string log_level_text;
  util::Flags flags("svcdisc_cli filter",
                    "count pcap packets matching a capture filter");
  add_log_level_flag(flags, &log_level_text);
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 2,
                      "usage: filter <expression> <capture.pcap>\n",
                      &exit_code)) {
    return exit_code;
  }
  if (!apply_log_level(log_level_text)) return 2;
  std::string error;
  const auto filter = capture::Filter::compile(flags.positional()[0], &error);
  if (!filter) {
    std::fprintf(stderr, "filter error: %s\n", error.c_str());
    return 2;
  }
  const auto result =
      capture::PcapReader::read_file(flags.positional()[1]);
  if (!result.ok) {
    std::fprintf(stderr, "cannot read %s\n", flags.positional()[1].c_str());
    return 1;
  }
  std::size_t matched = 0;
  for (const net::Packet& p : result.packets) matched += filter->matches(p);
  std::printf("%zu of %zu packets match \"%s\"\n", matched,
              result.packets.size(), flags.positional()[0].c_str());
  return 0;
}

int cmd_dump(int argc, const char* const* argv) {
  std::int64_t limit = 40;
  std::string expr;
  std::string log_level_text;
  util::Flags flags("svcdisc_cli dump", "print pcap packets, tcpdump-style");
  flags.add_int64("limit", "max packets to print (0 = all)", &limit);
  flags.add_string("filter", "only print matching packets", &expr);
  add_log_level_flag(flags, &log_level_text);
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 1, "usage: dump <capture.pcap>\n",
                      &exit_code)) {
    return exit_code;
  }
  if (!apply_log_level(log_level_text)) return 2;
  std::string error;
  const auto filter = capture::Filter::compile(expr, &error);
  if (!filter) {
    std::fprintf(stderr, "filter error: %s\n", error.c_str());
    return 2;
  }
  const auto result = capture::PcapReader::read_file(flags.positional()[0]);
  if (!result.ok) {
    std::fprintf(stderr, "cannot read %s\n", flags.positional()[0].c_str());
    return 1;
  }
  const util::Calendar cal;
  std::int64_t printed = 0;
  for (const net::Packet& p : result.packets) {
    if (!filter->matches(p)) continue;
    std::printf("%s %s\n", cal.month_day_time(p.time).c_str(),
                p.to_string().c_str());
    if (limit > 0 && ++printed >= limit) {
      std::printf("... (truncated at %lld; use --limit=0 for all)\n",
                  static_cast<long long>(limit));
      break;
    }
  }
  return 0;
}

int cmd_diff(int argc, const char* const* argv) {
  std::string log_level_text;
  util::Flags flags("svcdisc_cli diff",
                    "compare two saved service tables (surface-area "
                    "tracking)");
  add_log_level_flag(flags, &log_level_text);
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 2,
                      "usage: diff <before.tsv> <after.tsv>\n", &exit_code)) {
    return exit_code;
  }
  if (!apply_log_level(log_level_text)) return 2;
  const auto before = passive::load_table(flags.positional()[0]);
  const auto after = passive::load_table(flags.positional()[1]);
  if (!before.ok || !after.ok) {
    std::fprintf(stderr, "cannot read %s\n",
                 (!before.ok ? flags.positional()[0] : flags.positional()[1])
                     .c_str());
    return 1;
  }
  // A diff over partially-loaded tables can fabricate appearances or
  // disappearances, so degraded input is surfaced before the verdict.
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& loaded = i == 0 ? before : after;
    if (loaded.malformed > 0) {
      std::fprintf(stderr, "warning: %s: %zu malformed row(s) skipped\n",
                   flags.positional()[i].c_str(), loaded.malformed);
    }
    if (loaded.clamped > 0) {
      std::fprintf(stderr,
                   "warning: %s: %zu row(s) with client tally clamped to "
                   "%llu\n",
                   flags.positional()[i].c_str(), loaded.clamped,
                   static_cast<unsigned long long>(
                       passive::kMaxRestoredClients));
    }
  }
  const auto diff = passive::diff_tables(before.table, after.table);
  std::printf("%zu unchanged, %zu appeared, %zu disappeared\n",
              diff.unchanged, diff.appeared.size(),
              diff.disappeared.size());
  for (const auto& key : diff.appeared) {
    std::printf("+ %s %.*s/%u\n", key.addr.to_string().c_str(),
                static_cast<int>(net::proto_name(key.proto).size()),
                net::proto_name(key.proto).data(), key.port);
  }
  for (const auto& key : diff.disappeared) {
    std::printf("- %s %.*s/%u\n", key.addr.to_string().c_str(),
                static_cast<int>(net::proto_name(key.proto).size()),
                net::proto_name(key.proto).data(), key.port);
  }
  return diff.appeared.empty() && diff.disappeared.empty() ? 0 : 3;
}

// ---------------------------------------------------------------------------
// scenario — replayable workload bundles (scenario packs, DESIGN.md §12)
// ---------------------------------------------------------------------------

// Exit codes: 0 ok, 1 run/record failure, 2 usage or bad spec, 3 golden
// mismatch (distinct so CI can tell "scenario drifted" from "scenario
// broken"; mirrors `diff`'s exit 3 for table differences).
constexpr int kExitVerifyMismatch = 3;

int cmd_scenario_list(int argc, const char* const* argv) {
  std::string root = "tests/scenarios";
  std::string log_level_text;
  util::Flags flags("svcdisc_cli scenario list",
                    "list the scenario packs under a directory");
  flags.add_string("root", "directory holding scenario pack subdirectories",
                   &root);
  add_log_level_flag(flags, &log_level_text);
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 0, nullptr, &exit_code)) {
    return exit_code;
  }
  if (!apply_log_level(log_level_text)) return 2;
  const auto dirs = core::discover_scenarios(root);
  if (dirs.empty()) {
    std::fprintf(stderr, "no scenario packs under %s\n", root.c_str());
    return 1;
  }
  analysis::TextTable table({"name", "preset", "goldens", "description"});
  bool load_failed = false;
  for (const std::string& dir : dirs) {
    core::ScenarioSpec spec;
    std::string error;
    if (!core::load_scenario(dir, &spec, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      load_failed = true;
      continue;
    }
    core::ScenarioArtifacts none;
    // Recorded = every golden file present (content not checked here).
    bool recorded = true;
    for (const char* name : core::kScenarioArtifactNames) {
      std::FILE* f =
          std::fopen((dir + "/expected/" + name).c_str(), "rb");
      if (!f) {
        recorded = false;
        break;
      }
      std::fclose(f);
    }
    table.add_row({spec.name, spec.preset, recorded ? "yes" : "no",
                   spec.description});
  }
  std::fputs(table.render().c_str(), stdout);
  return load_failed ? 2 : 0;
}

int cmd_scenario_run(int argc, const char* const* argv) {
  std::string log_level_text;
  util::Flags flags("svcdisc_cli scenario run",
                    "run a scenario pack and print its artifacts");
  add_log_level_flag(flags, &log_level_text);
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 1,
                      "usage: scenario run <dir> [flags]\n", &exit_code)) {
    return exit_code;
  }
  if (!apply_log_level(log_level_text)) return 2;
  core::ScenarioSpec spec;
  std::string error;
  if (!core::load_scenario(flags.positional()[0], &spec, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  core::ScenarioArtifacts artifacts;
  if (!core::run_scenario(spec, &artifacts, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (const std::string* summary = artifacts.find("summary.txt")) {
    std::fputs(summary->c_str(), stdout);
  }
  for (const auto& [file, bytes] : artifacts.files) {
    std::printf("artifact %s: %zu bytes\n", file.c_str(), bytes.size());
  }
  return 0;
}

int cmd_scenario_record(int argc, const char* const* argv) {
  bool force = false;
  std::string log_level_text;
  util::Flags flags("svcdisc_cli scenario record",
                    "run a scenario pack and write its expected/ goldens");
  flags.add_bool("force", "overwrite existing goldens", &force);
  add_log_level_flag(flags, &log_level_text);
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 1,
                      "usage: scenario record <dir> [--force]\n",
                      &exit_code)) {
    return exit_code;
  }
  if (!apply_log_level(log_level_text)) return 2;
  core::ScenarioSpec spec;
  std::string error;
  if (!core::load_scenario(flags.positional()[0], &spec, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  core::ScenarioArtifacts artifacts;
  if (!core::run_scenario(spec, &artifacts, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (!core::record_scenario(spec, artifacts, force, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("scenario %s: %zu golden(s) -> %s/expected\n",
              spec.name.c_str(), artifacts.files.size(), spec.dir.c_str());
  return 0;
}

int cmd_scenario_verify(int argc, const char* const* argv) {
  std::string log_level_text;
  util::Flags flags("svcdisc_cli scenario verify",
                    "run a scenario pack and byte-compare against its "
                    "goldens");
  add_log_level_flag(flags, &log_level_text);
  int exit_code = 0;
  if (!parse_or_usage(flags, argc, argv, 1,
                      "usage: scenario verify <dir>\n", &exit_code)) {
    return exit_code;
  }
  if (!apply_log_level(log_level_text)) return 2;
  core::ScenarioSpec spec;
  std::string error;
  if (!core::load_scenario(flags.positional()[0], &spec, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  core::ScenarioArtifacts artifacts;
  if (!core::run_scenario(spec, &artifacts, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const core::VerifyReport report = core::verify_scenario(spec, artifacts);
  if (!report.ok()) {
    std::fprintf(stderr, "scenario %s: verification FAILED\n%s",
                 spec.name.c_str(), report.to_string().c_str());
    return kExitVerifyMismatch;
  }
  std::printf("scenario %s: %zu artifact(s) match the goldens\n",
              spec.name.c_str(), artifacts.files.size());
  return 0;
}

int cmd_scenario(int argc, const char* const* argv) {
  const std::string action = argc > 1 ? argv[1] : "";
  if (action == "list") return cmd_scenario_list(argc - 1, argv + 1);
  if (action == "run") return cmd_scenario_run(argc - 1, argv + 1);
  if (action == "record") return cmd_scenario_record(argc - 1, argv + 1);
  if (action == "verify") return cmd_scenario_verify(argc - 1, argv + 1);
  std::fprintf(stderr,
               "usage: scenario <list|run|record|verify> [args]\n"
               "  list [--root=DIR]    list scenario packs (default "
               "tests/scenarios)\n"
               "  run <dir>            run and print the artifacts\n"
               "  record <dir>         write expected/ goldens (--force to "
               "overwrite)\n"
               "  verify <dir>         byte-compare a fresh run against the "
               "goldens\n");
  return 2;
}

int dispatch(int argc, const char* const* argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "scenarios") return cmd_scenarios(argc - 1, argv + 1);
  if (command == "scenario") return cmd_scenario(argc - 1, argv + 1);
  if (command == "run") return cmd_run(argc - 1, argv + 1);
  if (command == "campaign") return cmd_campaign(argc - 1, argv + 1);
  if (command == "loss-sweep") return cmd_loss_sweep(argc - 1, argv + 1);
  if (command == "explain") return cmd_explain(argc - 1, argv + 1);
  if (command == "replay") return cmd_replay(argc - 1, argv + 1);
  if (command == "filter") return cmd_filter(argc - 1, argv + 1);
  if (command == "dump") return cmd_dump(argc - 1, argv + 1);
  if (command == "diff") return cmd_diff(argc - 1, argv + 1);
  std::fprintf(stderr,
               "usage: %s <scenarios|scenario|run|campaign|loss-sweep|explain|"
               "replay|filter|dump|diff> [flags]\n"
               "  scenarios             list dataset presets\n"
               "  scenario <action>     scenario packs: list|run|record|"
               "verify\n"
               "  run                   run a discovery campaign\n"
               "  campaign              parallel seed sweep, metrics export\n"
               "  loss-sweep            completeness vs injected capture "
               "loss\n"
               "  explain <addr:port>   evidence timeline for one service\n"
               "  replay <pcap>         offline passive analysis\n"
               "  filter <expr> <pcap>  count matching packets\n"
               "  dump <pcap>           print packets, tcpdump-style\n"
               "  diff <a.tsv> <b.tsv>  compare two saved service tables\n",
               argc > 0 ? argv[0] : "svcdisc_cli");
  return command.empty() ? 2 : 2;
}

}  // namespace
}  // namespace svcdisc

int main(int argc, char** argv) { return svcdisc::dispatch(argc, argv); }
