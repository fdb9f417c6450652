// Hot-path benchmark suite: self-timed measurements of the four
// per-packet hot paths (event queue, tap+monitor delivery, filter
// evaluation, per-packet tables) plus a whole-campaign throughput
// figure, emitted as machine-readable JSON so the perf trajectory is
// tracked across commits (see README "Hot-path benchmarks").
//
// Knobs:
//   SVCDISC_BENCH_SMOKE=1        tiny iteration counts (ctest smoke)
//   SVCDISC_BENCH_OUT=path       output JSON path (default BENCH_hotpath.json)
//   SVCDISC_BASELINE_JSON=path   baseline JSON to embed + compute speedups
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/streaming.h"
#include "capture/filter.h"
#include "capture/tap.h"
#include "core/campaign_runner.h"
#include "net/packet.h"
#include "passive/monitor.h"
#include "passive/scan_detector.h"
#include "passive/service_table.h"
#include "sim/event_queue.h"
#include "util/flat_hash.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/sketch.h"
#include "workload/campus.h"

namespace svcdisc {
namespace {

using net::Ipv4;
using net::Packet;

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool smoke() {
  const char* env = std::getenv("SVCDISC_BENCH_SMOKE");
  return env && *env && std::strcmp(env, "0") != 0;
}

/// Best-of-3 wall time for `fn()` (1 rep in smoke mode).
template <typename Fn>
double best_of(Fn&& fn) {
  const int reps = smoke() ? 1 : 3;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_sec();
    fn();
    const double dt = now_sec() - t0;
    if (dt < best) best = dt;
  }
  return best;
}

/// A deterministic border-crossing traffic mix: inbound SYNs, outbound
/// SYN-ACKs, UDP datagrams, and the occasional ICMP — the shape a tap
/// actually sees.
std::vector<Packet> make_traffic_mix(std::size_t n) {
  std::vector<Packet> mix;
  mix.reserve(n);
  util::Rng rng(0xB0B0);
  const Ipv4 campus_base = Ipv4::from_octets(128, 125, 0, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Ipv4 internal(campus_base.value() +
                        static_cast<std::uint32_t>(rng.below(16384)));
    const Ipv4 external(0x42000000u +
                        static_cast<std::uint32_t>(rng.below(1u << 20)));
    Packet p;
    switch (rng.below(8)) {
      case 0:  // service answering: SYN-ACK out
      case 1:
        p = net::make_tcp(internal, 80, external, 40000, net::flags_syn_ack());
        break;
      case 2:  // client flow: SYN in
      case 3:
      case 4:
        p = net::make_tcp(external, 41000, internal, 80, net::flags_syn());
        break;
      case 5:  // refused connection
        p = net::make_tcp(internal, 22, external, 42000, net::flags_rst());
        break;
      case 6:  // UDP datagram toward campus
        p = net::make_udp(external, 53000, internal, 53, 64);
        break;
      default:  // data packet the paper filter rejects
        p = net::make_tcp(external, 45000, internal, 80, net::flags_ack());
        break;
    }
    p.time = util::kEpoch + util::usec(static_cast<std::int64_t>(i));
    mix.push_back(p);
  }
  return mix;
}

// -------------------------------------------------------- event queue --

double bench_event_queue(std::size_t total) {
  sim::EventQueue queue;
  util::Rng rng(1);
  std::uint64_t drained = 0;
  const double dt = best_of([&] {
    for (std::size_t i = 0; i < total; i += 64) {
      for (int j = 0; j < 64; ++j) {
        queue.push(
            util::TimePoint{static_cast<std::int64_t>(rng.below(1u << 20))},
            [&drained] { ++drained; });
      }
      while (!queue.empty()) queue.pop().fire();
    }
  });
  if (drained == 0) std::abort();  // keep the work observable
  return static_cast<double>(total) / dt;
}

// ------------------------------------------------- tap + monitor path --

passive::MonitorConfig monitor_config() {
  passive::MonitorConfig cfg;
  cfg.internal_prefixes = {
      net::Prefix(Ipv4::from_octets(128, 125, 0, 0), 16)};
  cfg.detect_udp = true;
  return cfg;
}

double bench_tap_monitor(const std::vector<Packet>& mix, std::size_t total) {
  const double dt = best_of([&] {
    capture::Tap tap("bench");
    tap.set_filter(capture::Tap::paper_default_filter());
    passive::PassiveMonitor monitor(monitor_config());
    auto detector = std::make_shared<passive::ScanDetector>(
        passive::ScanDetectorConfig{}, monitor_config().internal_prefixes);
    monitor.set_scan_detector(detector);
    tap.add_consumer(&monitor);
    for (std::size_t i = 0; i < total; ++i) {
      tap.observe(mix[i % mix.size()]);
    }
  });
  return static_cast<double>(total) / dt;
}

/// Same pipeline via the batched entry point, the shape coalesced
/// simulator deliveries take — isolates the batching win from the
/// filter/table wins.
double bench_tap_monitor_batch(const std::vector<Packet>& mix,
                               std::size_t total) {
  constexpr std::size_t kBatch = 64;
  const double dt = best_of([&] {
    capture::Tap tap("bench");
    tap.set_filter(capture::Tap::paper_default_filter());
    passive::PassiveMonitor monitor(monitor_config());
    auto detector = std::make_shared<passive::ScanDetector>(
        passive::ScanDetectorConfig{}, monitor_config().internal_prefixes);
    monitor.set_scan_detector(detector);
    tap.add_consumer(&monitor);
    for (std::size_t i = 0; i + kBatch <= total; i += kBatch) {
      const std::size_t off = i % (mix.size() - kBatch);
      tap.observe_batch(
          std::span<const Packet>(mix.data() + off, kBatch));
    }
  });
  return static_cast<double>(total) / dt;
}

// -------------------------------------------------------------- filter --

double bench_filter_ns(const capture::Filter& filter,
                       const std::vector<Packet>& mix, std::size_t total) {
  std::size_t hits = 0;
  const double dt = best_of([&] {
    hits = 0;
    for (std::size_t i = 0; i < total; ++i) {
      hits += filter.matches(mix[i % mix.size()]);
    }
  });
  if (hits > total) std::abort();
  return dt / static_cast<double>(total) * 1e9;
}

// -------------------------------------------------------------- tables --

double bench_service_table(const std::vector<Packet>& mix,
                           std::size_t total) {
  const double dt = best_of([&] {
    passive::ServiceTable table;
    for (std::size_t i = 0; i < total; ++i) {
      const Packet& p = mix[i % mix.size()];
      const passive::ServiceKey key{p.dst, p.proto, p.dport};
      if (i % 4 == 0) {
        table.discover({p.src, p.proto, p.sport},
                       util::kEpoch + util::usec(static_cast<std::int64_t>(i)));
      } else {
        table.count_flow(key, p.src,
                         util::kEpoch + util::usec(static_cast<std::int64_t>(i)));
      }
      if (i % 8 == 0) (void)table.find(key);
    }
  });
  return static_cast<double>(total) / dt;
}

/// Tap + monitor + streaming analytics: the per-packet cost of the
/// sketch-fed observer chain when --streaming is on. The plain
/// tap_monitor_pps figure above runs without a streaming consumer, which
/// is the assertion that disabled streaming leaves the default hot path
/// holding its baseline.
double bench_tap_monitor_stream(const std::vector<Packet>& mix,
                                std::size_t total) {
  const double dt = best_of([&] {
    capture::Tap tap("bench");
    tap.set_filter(capture::Tap::paper_default_filter());
    passive::PassiveMonitor monitor(monitor_config());
    auto detector = std::make_shared<passive::ScanDetector>(
        passive::ScanDetectorConfig{}, monitor_config().internal_prefixes);
    monitor.set_scan_detector(detector);
    analysis::StreamingConfig stream_cfg;
    stream_cfg.internal_prefixes = monitor_config().internal_prefixes;
    stream_cfg.detect_udp = true;
    analysis::StreamingAnalytics stream(stream_cfg);
    stream.set_scan_detector(detector);
    tap.add_consumer(&monitor);
    tap.add_consumer(&stream);
    for (std::size_t i = 0; i < total; ++i) {
      tap.observe(mix[i % mix.size()]);
    }
  });
  return static_cast<double>(total) / dt;
}

// ----------------------------------------------------------- sketches --

double bench_hll_add_ns(std::size_t total) {
  util::HyperLogLog hll(14);
  const double dt = best_of([&] {
    for (std::size_t i = 0; i < total; ++i) {
      hll.add(util::hash_mix(i));
    }
  });
  if (hll.count() == 0) std::abort();  // keep the work observable
  return dt / static_cast<double>(total) * 1e9;
}

double bench_cms_add_ns(std::size_t total) {
  util::CountMinSketch cms(4096, 4);
  const double dt = best_of([&] {
    for (std::size_t i = 0; i < total; ++i) {
      cms.add(util::hash_mix(i % 4096));
    }
  });
  if (cms.total() == 0) std::abort();
  return dt / static_cast<double>(total) * 1e9;
}

double bench_scan_detector(const std::vector<Packet>& mix,
                           std::size_t total) {
  const double dt = best_of([&] {
    passive::ScanDetector detector(passive::ScanDetectorConfig{},
                                   monitor_config().internal_prefixes);
    for (std::size_t i = 0; i < total; ++i) {
      detector.observe(mix[i % mix.size()]);
    }
  });
  return static_cast<double>(total) / dt;
}

// ------------------------------------------------------ whole campaign --

struct CampaignFigures {
  double wall_sec{0};
  double packets_per_sec{0};
  double events_per_sec{0};
};

/// A `seeds`-seed sweep of tiny campaigns on one thread.
CampaignFigures bench_campaign(std::size_t seeds) {
  auto campus_cfg = workload::CampusConfig::tiny();
  campus_cfg.duration = smoke() ? util::hours(6) : util::days(4);
  core::EngineConfig engine_cfg;
  engine_cfg.scan_count = smoke() ? 1 : 6;
  engine_cfg.scan_period = util::hours(12);
  engine_cfg.first_scan_offset = util::hours(1);

  CampaignFigures fig;
  double tap_packets = 0, events = 0;
  fig.wall_sec = best_of([&] {
    const auto results = core::CampaignRunner(1).run(
        core::seed_sweep_jobs(campus_cfg, engine_cfg, 1, seeds));
    tap_packets = events = 0;
    for (const auto& r : results) {
      for (const auto& v : r.snapshot.values()) {
        if (v.name.rfind("tap.", 0) == 0 && v.name.size() > 13 &&
            v.name.compare(v.name.size() - 13, 13, ".packets_seen") == 0) {
          tap_packets += v.value;
        }
      }
      events += r.snapshot.value_of("sim.events_processed");
    }
  });
  fig.packets_per_sec = tap_packets / fig.wall_sec;
  fig.events_per_sec = events / fig.wall_sec;
  return fig;
}

// ---------------------------------------------------------------- JSON --

struct Figure {
  std::string key;
  double value;
};

/// Pulls `"key": <number>` out of a flat JSON text (good enough for the
/// baseline files this suite itself writes).
bool json_number(const std::string& text, const std::string& key,
                 double* out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

void write_json(const std::vector<Figure>& figures) {
  std::string baseline_text;
  if (const char* path = std::getenv("SVCDISC_BASELINE_JSON")) {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      baseline_text = ss.str();
      // Strip whitespace-only files.
      if (baseline_text.find('{') == std::string::npos) baseline_text.clear();
    }
  }

  const char* out_path = std::getenv("SVCDISC_BENCH_OUT");
  if (!out_path) out_path = "BENCH_hotpath.json";
  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"hotpath\",\n";
  out << "  \"smoke\": " << (smoke() ? "true" : "false") << ",\n";
  out << "  \"current\": {\n";
  for (std::size_t i = 0; i < figures.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", figures[i].value);
    out << "    \"" << figures[i].key << "\": " << buf
        << (i + 1 < figures.size() ? ",\n" : "\n");
  }
  out << "  }";
  if (!baseline_text.empty()) {
    out << ",\n  \"baseline\": " << baseline_text;
    out << ",\n  \"speedup\": {\n";
    bool first = true;
    for (const auto& fig : figures) {
      if (fig.key == "host_cores") continue;  // a fact, not a figure
      double base = 0;
      if (!json_number(baseline_text, fig.key, &base) || base == 0 ||
          fig.value == 0) {
        continue;
      }
      // ns-per-op and wall-time keys are lower-better; rates are
      // higher-better. Either way >1 in the output means "faster now".
      const auto has_suffix = [&](const char* s) {
        const std::size_t n = std::strlen(s);
        return fig.key.size() > n &&
               fig.key.compare(fig.key.size() - n, n, s) == 0;
      };
      const bool lower_better =
          has_suffix("_ns") ||
          (has_suffix("_sec") && !has_suffix("_per_sec"));
      const double speedup =
          lower_better ? base / fig.value : fig.value / base;
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.3f", speedup);
      out << (first ? "" : ",\n") << "    \"" << fig.key << "\": " << buf;
      first = false;
    }
    out << "\n  }";
  }
  out << "\n}\n";
  std::printf("wrote %s\n", out_path);
}

}  // namespace

int run() {
  const std::size_t scale = smoke() ? 1 : 100;
  const std::size_t events_total = 20'000 * scale;
  const std::size_t packets_total = 20'000 * scale;
  const std::size_t filter_total = 40'000 * scale;
  const std::size_t table_total = 10'000 * scale;

  const auto mix = make_traffic_mix(4096);
  std::vector<Figure> figures;

  // Recorded alongside the figures: the host the trajectory was taken on.
  const unsigned host_cores = std::thread::hardware_concurrency();
  figures.push_back({"host_cores", static_cast<double>(host_cores)});

  std::printf("== Hot-path benchmarks%s (%u cores) ==\n",
              smoke() ? " (smoke)" : "", host_cores);

  const double events_ps = bench_event_queue(events_total);
  figures.push_back({"events_per_sec", events_ps});
  std::printf("event queue:        %12.0f events/s\n", events_ps);

  const double tap_pps = bench_tap_monitor(mix, packets_total);
  figures.push_back({"tap_monitor_pps", tap_pps});
  std::printf("tap+monitor:        %12.0f packets/s\n", tap_pps);

  const double tap_batch_pps = bench_tap_monitor_batch(mix, packets_total);
  figures.push_back({"tap_monitor_batch_pps", tap_batch_pps});
  std::printf("tap+monitor batch:  %12.0f packets/s\n", tap_batch_pps);

  const double tap_stream_pps = bench_tap_monitor_stream(mix, packets_total);
  figures.push_back({"tap_monitor_stream_pps", tap_stream_pps});
  std::printf("tap+monitor+stream: %12.0f packets/s\n", tap_stream_pps);

  const double hll_ns = bench_hll_add_ns(filter_total);
  const double cms_ns = bench_cms_add_ns(filter_total);
  figures.push_back({"sketch_hll_add_ns", hll_ns});
  figures.push_back({"sketch_cms_add_ns", cms_ns});
  std::printf("hll add:            %12.2f ns/item\n", hll_ns);
  std::printf("cms add:            %12.2f ns/item\n", cms_ns);

  const auto default_filter = capture::Tap::paper_default_filter();
  const auto conj_filter =
      capture::Filter::compile("udp and dst net 128.125.0.0/16");
  const auto general_filter = capture::Filter::compile(
      "tcp and not (port 80 or port 22) and dst net 128.125.0.0/16");
  const double f_default = bench_filter_ns(default_filter, mix, filter_total);
  const double f_conj = bench_filter_ns(*conj_filter, mix, filter_total);
  const double f_general = bench_filter_ns(*general_filter, mix, filter_total);
  figures.push_back({"filter_default_ns", f_default});
  figures.push_back({"filter_conj_ns", f_conj});
  figures.push_back({"filter_general_ns", f_general});
  std::printf("filter default:     %12.2f ns/packet\n", f_default);
  std::printf("filter conjunction: %12.2f ns/packet\n", f_conj);
  std::printf("filter general:     %12.2f ns/packet\n", f_general);

  const double table_ops = bench_service_table(mix, table_total);
  figures.push_back({"service_table_ops_per_sec", table_ops});
  std::printf("service table:      %12.0f ops/s\n", table_ops);

  const double det_pps = bench_scan_detector(mix, table_total);
  figures.push_back({"scan_detector_pps", det_pps});
  std::printf("scan detector:      %12.0f packets/s\n", det_pps);

  const CampaignFigures campaign = bench_campaign(smoke() ? 1 : 4);
  figures.push_back({"campaign_packets_per_sec", campaign.packets_per_sec});
  figures.push_back({"campaign_events_per_sec", campaign.events_per_sec});
  figures.push_back({"campaign_wall_sec", campaign.wall_sec});
  std::printf("campaign:           %12.0f packets/s, %.0f events/s "
              "(%.3f s wall)\n",
              campaign.packets_per_sec, campaign.events_per_sec,
              campaign.wall_sec);

  // The same campaign as a single seed (the one serial engine).
  const double single_pps = bench_campaign(1).packets_per_sec;
  figures.push_back({"campaign_pps_t1", single_pps});
  std::printf("campaign 1 seed:    %12.0f packets/s\n", single_pps);

  write_json(figures);
  return 0;
}

}  // namespace svcdisc

int main() { return svcdisc::run(); }
