// Outside-in layer timing for the traced benchmark run.
//
// Nothing here reaches inside src/. The tracer attaches to every border
// peering beside the engine's tap, so it receives exactly the batches the
// taps receive, and feeds them to shadow instances of the passive-side
// layers whose public entry points it times:
//
//   capture.filter        capture::Filter::matches (the paper's filter)
//   passive.monitor       PassiveMonitor::observe_batch, own ScanDetector
//   passive.scan_detector a second ScanDetector::observe
//   analysis.streaming    StreamingAnalytics::observe_batch (when the
//                         engine runs streaming analytics)
//
// Packets are buffered and replayed in chunks, so each clock read covers
// many packets. Sim-time markers, scheduled with Simulator::at every
// simulated minute, close a wall-time interval each and read
// ProberBase::scan_in_progress(); that splits the run into simulated days
// and active-scan windows. Spans are aggregated per simulated day per
// layer and kept in memory until the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/streaming.h"
#include "capture/filter.h"
#include "core/engine.h"
#include "passive/monitor.h"
#include "passive/scan_detector.h"
#include "sim/node.h"
#include "workload/campus.h"

namespace perfbench {

namespace active = svcdisc::active;
namespace analysis = svcdisc::analysis;
namespace capture = svcdisc::capture;
namespace core = svcdisc::core;
namespace net = svcdisc::net;
namespace passive = svcdisc::passive;
namespace sim = svcdisc::sim;
namespace util = svcdisc::util;
namespace workload = svcdisc::workload;

/// The shadow layers, in the order a chunk passes through them.
enum ShadowLayer : std::size_t {
  kFilter,
  kMonitor,
  kDetector,
  kStreaming,
  kShadowLayers
};

/// Per-layer results of one traced campaign (wall times in seconds).
struct LayerReport {
  double run_s{0};           ///< traced DiscoveryEngine::run() wall time
  double shadow_s{0};        ///< all shadow work, the tracer's own cost
  std::array<double, kShadowLayers> busy_s{};
  std::uint64_t filter_packets{0};   ///< packets the shadow filter saw
  std::uint64_t monitor_packets{0};  ///< filter survivors
  double scan_window_s{0};   ///< wall time with a scan in flight, net of
                             ///< shadow work
  double scan_median_s{0};   ///< median of per-scan windows
  std::uint64_t markers{0};  ///< marker events added to the simulator
  /// Share of (run_s - shadow_s) no layer span covers.
  double unattributed_ratio{0};
  /// The aggregated span tree as a JSON array.
  std::string spans_json;
};

class LayerTracer final : public sim::PacketObserver {
 public:
  /// `monitor_config` must match the engine's combined monitor; the
  /// shadow table is compared to the engine's after the run.
  /// `streaming` adds a shadow StreamingAnalytics.
  LayerTracer(workload::Campus& campus, core::DiscoveryEngine& engine,
              passive::MonitorConfig monitor_config, bool streaming);

  LayerTracer(const LayerTracer&) = delete;
  LayerTracer& operator=(const LayerTracer&) = delete;

  // sim::PacketObserver: buffers border batches for the shadow layers.
  void observe(const net::Packet& p) override;
  void observe_batch(std::span<const net::Packet> packets) override;

  /// Schedules the first marker and starts the wall clock; call right
  /// before DiscoveryEngine::run().
  void begin_run();
  /// Flushes the shadows, closes the last interval and builds the report;
  /// call right after DiscoveryEngine::run() returns.
  LayerReport end_run();

  const passive::PassiveMonitor& shadow_monitor() const { return monitor_; }
  const passive::ScanDetector& shadow_detector() const { return *detector2_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One layer's aggregate within one simulated day (and, separately,
  /// within that day's scan windows).
  struct Agg {
    double start_s{-1};  ///< first activity, seconds since run start
    double end_s{0};
    double busy_s{0};
    std::uint64_t calls{0};
    void add(double start, double end, double busy, std::uint64_t n = 1);
  };
  struct Day {
    Agg day;
    Agg scan;
    std::array<Agg, kShadowLayers> shadow;
    std::array<Agg, kShadowLayers> shadow_in_scan;
    double scan_shadow_s{0};  ///< all shadow work inside scan windows
  };

  void flush();
  void on_marker();
  void close_interval();
  double since_start(Clock::time_point t) const;

  workload::Campus& campus_;
  core::DiscoveryEngine& engine_;
  capture::Filter filter_;
  passive::PassiveMonitor monitor_;
  std::shared_ptr<passive::ScanDetector> detector_;   ///< the monitor's
  std::unique_ptr<passive::ScanDetector> detector2_;  ///< timed alone
  std::unique_ptr<analysis::StreamingAnalytics> stream_;

  std::vector<net::Packet> buf_;
  std::vector<char> keep_;
  std::vector<net::Packet> survivors_;
  std::uint64_t filter_packets_{0};
  std::uint64_t monitor_packets_{0};

  // Interval bookkeeping; an interval ends at each marker.
  Clock::time_point run_start_{};
  Clock::time_point last_wall_{};
  util::TimePoint last_sim_{};
  util::TimePoint end_{};
  bool last_scanning_{false};
  std::size_t last_scans_done_{0};
  std::uint64_t markers_{0};
  /// Shadow seconds per layer flushed inside the current interval.
  std::array<double, kShadowLayers> pending_shadow_{};
  std::array<double, kShadowLayers> pending_start_{};
  std::array<double, kShadowLayers> pending_end_{};
  std::array<std::uint64_t, kShadowLayers> pending_calls_{};
  /// Shadow work outside the timed layers (survivor compaction).
  double pending_other_{0};
  double shadow_s_{0};

  std::vector<Day> days_;
  /// Wall seconds per scan index, net of shadow work.
  std::vector<double> scan_s_;
};

}  // namespace perfbench
