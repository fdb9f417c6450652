// One repetition of the paper-scale campaign benchmark.
//
//   perfbench_campaign --workload NAME --seed N [--traced]
//                      [--spans-out FILE]
//   perfbench_campaign --stamp
//
// Builds the named workload's Campus and DiscoveryEngine (serial,
// EngineConfig::threads = 1) through the public API, runs the campaign
// once, checks its outputs and prints one JSON object on stdout. run.py
// starts one process per repetition, so the peak RSS it reports belongs
// to this workload alone. Exit status: 0 when every check passed, 1 when
// one failed, 2 on bad arguments or a build the benchmark refuses.
//
// --traced attaches the outside-in LayerTracer (layers.h) and adds the
// per-layer times to the output; the untraced run never constructs it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/streaming.h"
#include "core/completeness.h"
#include "core/engine.h"
#include "core/provenance.h"
#include "core/report.h"
#include "layers.h"
#include "passive/table_io.h"
#include "util/metrics.h"
#include "workload/campus.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// The scan schedule of the 18-day workloads, pinned here rather than
/// taken from a preset: 36 sweeps every 12 h from +1 h, as the CLI runs
/// dtcp1_18d (bench_common's dtcp1_engine_config runs 35).
constexpr int kPaperScans = 36;
constexpr int kScale1mScans = 2;
/// Peak-RSS ceiling every workload must stay under.
constexpr double kRssCeilingMb = 512;
/// Campaigns built per process; setup_s is their median, and the last
/// one runs. A single ~10 ms build is at the mercy of whatever else the
/// host does in those milliseconds.
constexpr int kSetups = 20;

enum class Kind { kPaper18d, kPassiveObserved18d, kScale1m, kAdaptive18d };

struct Workload {
  const char* name;
  Kind kind;
};

constexpr Workload kWorkloads[] = {
    {"paper_18d", Kind::kPaper18d},
    {"passive_observed_18d", Kind::kPassiveObserved18d},
    {"scale1m", Kind::kScale1m},
    {"adaptive_18d", Kind::kAdaptive18d},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// One campaign and everything the engine borrows. Members are declared
/// so that the engine is destroyed before what it refers to.
struct Campaign {
  util::MetricsRegistry metrics;
  core::ProvenanceLedger ledger;
  std::unique_ptr<workload::Campus> campus;
  std::unique_ptr<analysis::StreamingAnalytics> stream;
  core::EngineConfig config;
  std::unique_ptr<core::DiscoveryEngine> engine;
  double campus_s{0};
  double engine_s{0};
};

std::unique_ptr<Campaign> build(Kind kind, std::uint64_t seed) {
  auto c = std::make_unique<Campaign>();
  workload::CampusConfig cfg = kind == Kind::kScale1m
                                   ? workload::CampusConfig::scale1m()
                                   : workload::CampusConfig::dtcp1_18d();
  cfg.seed = seed;

  Clock::time_point t0 = Clock::now();
  c->campus = std::make_unique<workload::Campus>(cfg);
  c->campus_s = seconds_since(t0);

  t0 = Clock::now();
  core::EngineConfig& e = c->config;
  e.threads = 1;
  e.metrics = &c->metrics;
  e.scan_count = kind == Kind::kScale1m ? kScale1mScans : kPaperScans;
  switch (kind) {
    case Kind::kPaper18d:
    case Kind::kScale1m:
      break;
    case Kind::kPassiveObserved18d:
      e.scan_count = 0;
      c->stream = std::make_unique<analysis::StreamingAnalytics>(
          core::streaming_config_for(*c->campus));
      e.streaming = c->stream.get();
      e.sketch_tables = true;
      e.provenance = &c->ledger;
      break;
    case Kind::kAdaptive18d: {
      // Half of the fixed sweep's per-scan grid (targets x ports).
      const workload::Campus& campus = *c->campus;
      const std::uint64_t grid =
          campus.scan_targets().size() *
          (campus.tcp_ports().size() + campus.udp_ports().size());
      e.adaptive_prober = true;
      e.adaptive.probe_budget = grid / 2;
      e.adaptive.verify = true;
      break;
    }
  }
  c->engine = std::make_unique<core::DiscoveryEngine>(*c->campus, e);
  c->engine_s = seconds_since(t0);
  return c;
}

/// The engine's combined-monitor configuration, for the shadow monitor.
passive::MonitorConfig monitor_config_of(const Campaign& c) {
  const workload::Campus& campus = *c.campus;
  passive::MonitorConfig cfg;
  cfg.internal_prefixes = campus.internal_prefixes();
  if (!campus.config().all_ports_mode) {
    cfg.tcp_ports = campus.tcp_ports();
    cfg.udp_ports = campus.udp_ports();
  }
  cfg.detect_udp = campus.config().udp_mode;
  cfg.drop_exact_duplicates = c.config.impairment.dup_rate > 0;
  if (c.config.sketch_tables) {
    cfg.client_accounting = passive::ClientAccounting::kSketch;
  }
  return cfg;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string table_bytes(const passive::ServiceTable& table) {
  std::ostringstream out;
  passive::save_table(table, out);
  return out.str();
}

/// The metrics snapshot with its marker-dependent readings removed: the
/// traced run's markers are simulator events, and the queue high-water
/// mark may count one of them.
std::string metrics_bytes(const util::MetricsSnapshot& snap,
                          std::uint64_t markers) {
  std::string out;
  for (const util::MetricValue& m : snap.values()) {
    if (m.name == "sim.queue_depth_hwm") continue;
    double v = m.value;
    if (m.name == "sim.events_processed") v -= static_cast<double>(markers);
    out += m.name + ' ' + fmt(v);
    if (m.kind == util::MetricValue::Kind::kHistogram) {
      out += ' ' + fmt(m.sum);
      for (const auto& [bound, count] : m.buckets) {
        out += ' ' + fmt(bound) + ':' + std::to_string(count);
      }
    }
    out += '\n';
  }
  return out;
}

std::string summary_bytes(const Campaign& c) {
  const core::DiscoveryEngine& engine = *c.engine;
  const util::TimePoint end = util::kEpoch + c.campus->config().duration;
  const auto passive = core::addresses_found(engine.monitor().table(), end);
  const auto active = core::addresses_found(engine.prober().table(), end);
  const core::Completeness k = core::completeness(passive, active);
  std::ostringstream out;
  out << "passive_services " << engine.monitor().table().size() << '\n'
      << "active_services " << engine.prober().table().size() << '\n'
      << "union_addrs " << k.union_count << '\n'
      << "both_addrs " << k.both << '\n'
      << "active_only_addrs " << k.active_only << '\n'
      << "passive_only_addrs " << k.passive_only << '\n'
      << "scanners " << engine.scan_detector().scanner_count() << '\n'
      << "scans " << engine.prober().scans().size() << '\n';
  if (c.config.provenance) out << "provenance " << c.ledger.size() << '\n';
  if (c.stream) {
    out << "stream_services " << c.stream->services_seen() << '\n'
        << "stream_change_points " << c.stream->change_points().size()
        << '\n';
  }
  return out.str();
}

/// Seed-independent output checks; returns one line per failure.
std::vector<std::string> check(const Campaign& c, const util::MetricsSnapshot& s,
                               double rss_mb, bool traced) {
  std::vector<std::string> failures;
  auto fail = [&](std::string what) { failures.push_back(std::move(what)); };
  constexpr std::string_view kSeen = ".packets_seen";
  for (const util::MetricValue& m : s.values()) {
    if (!m.name.starts_with("tap.") || !m.name.ends_with(kSeen)) continue;
    const std::string base = m.name.substr(0, m.name.size() - kSeen.size());
    const double split = s.value_of(base + ".filter_match") +
                         s.value_of(base + ".filter_reject");
    if (m.value != split) fail(base + ": packets_seen != match + reject");
  }
  if (s.value_of("passive.packets_seen") !=
      s.value_of("scan_detector.packets_seen")) {
    fail("passive.packets_seen != scan_detector.packets_seen");
  }
  if (c.config.provenance) {
    const core::ProvenanceAudit audit = c.ledger.audit(
        c.engine->monitor().table(), c.engine->prober().table());
    if (!audit.ok()) fail("provenance audit failed");
  }
  const double scans = s.value_of("active.scans_completed");
  if (scans != c.config.scan_count) fail("not every scheduled scan completed");
  if (c.config.adaptive_prober &&
      s.value_of("adaptive.budget_spent") >
          static_cast<double>(c.config.adaptive.probe_budget) * scans) {
    fail("adaptive.budget_spent exceeds budget x scans");
  }
  // The traced run's shadow tables add to its RSS; the ceiling is the
  // workload's alone.
  if (!traced && rss_mb > kRssCeilingMb) {
    fail("peak RSS above the 512 MB ceiling");
  }
  return failures;
}

void emit_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  out += '"';
}

struct JsonObject {
  std::string body;
  void add(std::string_view key, double v) { field(key) += fmt(v); }
  void add_str(std::string_view key, std::string_view v) {
    emit_json_string(field(key), v);
  }
  void add_raw(std::string_view key, std::string_view raw) {
    field(key) += raw;
  }
  std::string& field(std::string_view key) {
    if (!body.empty()) body += ", ";
    emit_json_string(body, key);
    body += ": ";
    return body;
  }
  std::string str() const { return "{" + body + "}"; }
};

/// Counts from the run's metrics snapshot, named after the src/ layers.
void add_layer_counts(JsonObject& o, const Campaign& c, const util::MetricsSnapshot& s,
                      std::uint64_t markers) {
  const double events = s.value_of("sim.events_processed") -
                        static_cast<double>(markers);
  o.add("sim.events", events);
  o.add("sim.queue_depth_hwm", s.value_of("sim.queue_depth_hwm"));

  double tap_seen = 0;
  double tap_reject = 0;
  for (const util::MetricValue& m : s.values()) {
    if (!m.name.starts_with("tap.")) continue;
    if (m.name.ends_with(".packets_seen")) tap_seen += m.value;
    if (m.name.ends_with(".filter_reject")) tap_reject += m.value;
  }
  o.add("capture.packets", tap_seen);
  o.add("capture.filter_reject_ratio", tap_seen > 0 ? tap_reject / tap_seen : 0);

  o.add("passive.packets", s.value_of("passive.packets_seen"));
  o.add("passive.flows_counted", s.value_of("passive.flows_counted"));
  o.add("passive.discoveries", s.value_of("passive.tcp_discoveries") +
                                   s.value_of("passive.udp_discoveries"));
  o.add("passive.scanners_flagged", s.value_of("scan_detector.scanners_flagged"));

  const double probes = s.value_of("active.probes_tcp_sent") +
                        s.value_of("active.probes_udp_sent") +
                        s.value_of("active.pings_sent");
  const double active_found = s.value_of("active.discoveries");
  o.add("active.probes_sent", probes);
  o.add("active.responses", s.value_of("active.responses_received"));
  o.add("active.discoveries", active_found);
  o.add("active.open_yield", probes > 0 ? active_found / probes : 0);
  o.add("active.rate_limiter_deferrals",
        s.value_of("active.rate_limiter.deferrals"));

  const double verify = s.value_of("adaptive.verify_probes_sent");
  o.add("active.adaptive.budget_spent", s.value_of("adaptive.budget_spent"));
  o.add("active.adaptive.verify_probes", verify);
  o.add("active.adaptive.verify_confirm_ratio",
        verify > 0 ? s.value_of("adaptive.verify_confirmed") / verify : 0);
  o.add("active.adaptive.passive_seeds_probed",
        s.value_of("adaptive.passive_seeds_probed"));

  o.add("host.universe_materialized", s.value_of("scale.materialized_addresses"));
  o.add("host.universe_bytes", s.value_of("scale.universe_bytes"));
  o.add("host.universe_replies", s.value_of("scale.replies_sent"));

  o.add("analysis.sketch_bytes", s.value_of("stream.sketch_bytes"));
  o.add("analysis.change_points", s.value_of("stream.change_points"));
  o.add("core.provenance_services",
        c.config.provenance ? static_cast<double>(c.ledger.size()) : 0);
}

void add_layer_times(JsonObject& o, const LayerReport& r, double events,
                     double probes) {
  auto ns_per = [](double s, double n) { return n > 0 ? s * 1e9 / n : 0; };
  o.add("sim.ns_per_event", ns_per(r.run_s - r.shadow_s, events));
  o.add("capture.filter_ns", ns_per(r.busy_s[kFilter], r.filter_packets));
  o.add("passive.monitor_ns", ns_per(r.busy_s[kMonitor], r.monitor_packets));
  o.add("passive.scan_detector_ns",
        ns_per(r.busy_s[kDetector], r.monitor_packets));
  o.add("analysis.streaming_ns", ns_per(r.busy_s[kStreaming], r.monitor_packets));
  o.add("active.scan_window_s", r.scan_window_s);
  o.add("active.scan_s", r.scan_median_s);
  o.add("active.ns_per_probe", ns_per(r.scan_window_s, probes));
  o.add("core.unattributed_ratio", r.unattributed_ratio);
}

bool refused_build() {
#if !defined(__OPTIMIZE__) || PERFBENCH_SANITIZED
  return true;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

std::string stamp_json() {
  JsonObject o;
  o.add_str("build_type", PERFBENCH_BUILD_TYPE);
  o.add_str("compiler", PERFBENCH_COMPILER);
  o.add_raw("optimized",
#if defined(__OPTIMIZE__)
            "true"
#else
            "false"
#endif
  );
  o.add_raw("sanitized", PERFBENCH_SANITIZED ? "true" : "false");
  o.add_raw("refused", refused_build() ? "true" : "false");
  return o.str();
}

int usage() {
  std::fputs(
      "usage: perfbench_campaign --workload NAME --seed N [--traced]\n"
      "                          [--spans-out FILE]\n"
      "       perfbench_campaign --stamp\n"
      "workloads: paper_18d passive_observed_18d scale1m adaptive_18d\n",
      stderr);
  return 2;
}

int run(int argc, char** argv) {
  std::string workload_name;
  std::string spans_out;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--stamp") {
      std::printf("%s\n", stamp_json().c_str());
      return 0;
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--spans-out" && has_value) {
      spans_out = argv[++i];
    } else {
      return usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload_name == candidate.name) w = &candidate;
  }
  if (w == nullptr || !have_seed) return usage();
  if (refused_build()) {
    std::fprintf(stderr,
                 "error: refusing to measure an unoptimised or sanitizer "
                 "build (%s)\n",
                 stamp_json().c_str());
    return 2;
  }

  std::vector<double> setup_s;
  std::vector<double> campus_s;
  std::vector<double> engine_s;
  std::unique_ptr<Campaign> c;
  double cpu0 = 0;
  for (int i = 0; i < kSetups; ++i) {
    c.reset();
    cpu0 = cpu_seconds();
    c = build(w->kind, seed);
    campus_s.push_back(c->campus_s);
    engine_s.push_back(c->engine_s);
    setup_s.push_back(c->campus_s + c->engine_s);
  }

  std::unique_ptr<LayerTracer> tracer;
  if (traced) {
    tracer = std::make_unique<LayerTracer>(*c->campus, *c->engine,
                                           monitor_config_of(*c),
                                           c->stream != nullptr);
    tracer->begin_run();
  }
  const Clock::time_point t0 = Clock::now();
  c->engine->run();
  double run_s = seconds_since(t0);
  LayerReport report;
  if (tracer) {
    report = tracer->end_run();
    run_s = report.run_s;
  }
  const double cpu_s = cpu_seconds() - cpu0;
  const double rss_mb = peak_rss_mb();

  const util::MetricsSnapshot snap = c->metrics.snapshot();
  std::vector<std::string> failures = check(*c, snap, rss_mb, traced);
  const std::string passive_table = table_bytes(c->engine->monitor().table());
  if (tracer) {
    if (table_bytes(tracer->shadow_monitor().table()) != passive_table) {
      failures.push_back("shadow monitor table differs from the engine's");
    }
    if (tracer->shadow_detector().scanner_count() !=
        c->engine->scan_detector().scanner_count()) {
      failures.push_back("shadow scan detector disagrees with the engine's");
    }
  }

  // Output digest: tables, summary counts, deterministic metrics and, when
  // recorded, the provenance ledger.
  const std::uint64_t markers = report.markers;
  JsonObject parts;
  std::uint64_t digest = 0;
  auto part = [&](const char* name, const std::string& bytes) {
    const std::uint64_t h = fnv1a(bytes);
    parts.add_str(name, hex(h));
    digest = digest * 0x9e3779b97f4a7c15ULL + h;
  };
  part("passive_table", passive_table);
  part("active_table", table_bytes(c->engine->prober().table()));
  part("summary", summary_bytes(*c));
  part("metrics", metrics_bytes(snap, markers));
  if (c->config.provenance) part("provenance", c->ledger.to_jsonl());

  JsonObject layers;
  layers.add("workload.build_s", median(campus_s));
  layers.add("core.engine_build_s", median(engine_s));
  add_layer_counts(layers, *c, snap, markers);
  const double events =
      snap.value_of("sim.events_processed") - static_cast<double>(markers);
  if (tracer) {
    const double probes = snap.value_of("active.probes_tcp_sent") +
                          snap.value_of("active.probes_udp_sent") +
                          snap.value_of("active.pings_sent");
    add_layer_times(layers, report, events, probes);
    if (!spans_out.empty()) {
      std::ofstream out(spans_out, std::ios::binary);
      out << report.spans_json;
      if (!out) failures.push_back("cannot write " + spans_out);
    }
  }

  std::string failure_list = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) failure_list += ", ";
    emit_json_string(failure_list, failures[i]);
  }
  failure_list += "]";

  JsonObject o;
  o.add_str("workload", w->name);
  o.add_raw("seed", std::to_string(seed));
  o.add_raw("traced", traced ? "true" : "false");
  o.add("setup_s", median(setup_s));
  o.add("run_s", run_s);
  o.add("events", events);
  o.add("cpu_s", cpu_s);
  o.add("peak_rss_mb", rss_mb);
  o.add_str("digest", hex(digest));
  o.add_raw("digest_parts", parts.str());
  o.add_raw("failures", failure_list);
  o.add_raw("layers", layers.str());
  std::printf("%s\n", o.str().c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
