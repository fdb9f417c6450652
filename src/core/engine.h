// DiscoveryEngine: the public entry point wiring a measurement campaign.
//
// Given a Campus scenario, the engine sets up the full paper apparatus:
//   * one capture Tap per border peering, with the paper's capture
//     filter (TCP SYN/SYN-ACK/RST + UDP + ICMP);
//   * a combined passive monitor over all taps, an optional
//     scanner-excluded twin (§4.3), optional per-peering monitors
//     (§5.2), and optional sampled monitors (§5.3);
//   * an internal Prober and a periodic ScanScheduler (§3.1);
//   * a shared external-scan detector.
// After run(), the monitors' service tables and the prober's scan
// records hold everything the paper's tables and figures are computed
// from (core/report.h, core/completeness.h, ...).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "active/adaptive_prober.h"
#include "active/prober.h"
#include "active/scan_scheduler.h"
#include "analysis/streaming.h"
#include "capture/impairment.h"
#include "capture/sampler.h"
#include "capture/tap.h"
#include "core/provenance.h"
#include "passive/monitor.h"
#include "passive/scan_detector.h"
#include "util/metrics.h"
#include "workload/campus.h"

namespace svcdisc::core {

struct EngineConfig {
  /// Number of periodic scans (0 disables active probing).
  int scan_count{35};
  util::Duration scan_period{util::hours(12)};
  /// Offset of the first scan from campaign start (paper: campaigns
  /// start 10:00, scans fire at 11:00/23:00).
  util::Duration first_scan_offset{util::hours(1)};
  /// Build a second monitor that suppresses scanner-elicited discoveries.
  bool scanner_excluded_monitor{false};
  /// Build one extra monitor per peering link (Table 8).
  bool per_link_monitors{false};
  /// Observability: when set, every component registers its counters
  /// here (taps, monitors, prober, scan detector, simulator). Not owned;
  /// must outlive the engine. See README "Metrics & parallel campaigns"
  /// for the metric names.
  util::MetricsRegistry* metrics{nullptr};
  /// Capture-path fault injection applied in front of every tap (loss,
  /// duplication, reordering, clock skew/jitter); each tap gets an
  /// independent rng stream forked from `impairment.seed`. The default
  /// (identity) config inserts nothing — the pipeline, its metrics and
  /// the campaign output stay byte-identical to an unimpaired engine.
  capture::ImpairmentConfig impairment;
  /// Additional per-tap clock skew (index = peering index, missing
  /// entries = none), added on top of `impairment.skew` — models
  /// independently drifting capture clocks across peerings.
  std::vector<util::Duration> tap_skew;
  /// Discovery provenance: when set, the engine stamps per-tap context
  /// ahead of the combined monitor and feeds every accepted piece of
  /// evidence (passive SYN-ACK/UDP renewals, active open probe replies)
  /// into the ledger. Not owned; must outlive the engine. Takes over the
  /// combined monitor's on_evidence and the prober's on_open_response
  /// callbacks.
  ProvenanceLedger* provenance{nullptr};
  /// Retained only because the perfbench harness sets it; must be 1.
  /// The engine is serial (DESIGN.md §13 records why intra-campaign
  /// sharding was removed) and its constructor throws
  /// std::invalid_argument for any other value.
  std::size_t threads{1};
  /// Streaming analytics (DESIGN.md §15): when set, the engine attaches
  /// it after the monitors on every tap (so scanner verdicts match what
  /// the monitors saw), feeds it every open probe reply, and closes its
  /// windows at end of run. Not owned; must outlive the engine. When
  /// null (default), no stream.* metrics are registered and no
  /// per-packet work is added.
  analysis::StreamingAnalytics* streaming{nullptr};
  /// Constant-memory tables: every monitor's ServiceTable tracks unique
  /// clients with a per-service HyperLogLog instead of an exact client
  /// map (passive::ClientAccounting::kSketch), bounding table memory at
  /// O(services). The --streaming CLI mode enables this together with
  /// `streaming`; default off preserves exact historical artifacts.
  bool sketch_tables{false};
  /// Budgeted adaptive prober (DESIGN.md §16) instead of the paper's
  /// fixed exhaustive sweep: passive seeding from the border taps,
  /// learned priors, probe budget, LZR-style SYN-ACK verification.
  bool adaptive_prober{false};
  /// Budget / verification knobs; only read when adaptive_prober is on.
  active::AdaptiveConfig adaptive;
};

class DiscoveryEngine {
 public:
  DiscoveryEngine(workload::Campus& campus, EngineConfig config);
  ~DiscoveryEngine();

  DiscoveryEngine(const DiscoveryEngine&) = delete;
  DiscoveryEngine& operator=(const DiscoveryEngine&) = delete;

  /// The combined passive monitor (all peerings).
  passive::PassiveMonitor& monitor() { return *monitor_; }
  const passive::PassiveMonitor& monitor() const { return *monitor_; }
  /// The scanner-excluded twin, or nullptr when not configured.
  passive::PassiveMonitor* excluded_monitor() {
    return excluded_monitor_.get();
  }
  /// Per-peering monitor (requires per_link_monitors).
  passive::PassiveMonitor& link_monitor(std::size_t peering);
  std::size_t link_monitor_count() const { return link_monitors_.size(); }

  active::ProberBase& prober() { return *prober_; }
  const active::ProberBase& prober() const { return *prober_; }
  /// The adaptive prober, or nullptr when the engine runs the fixed
  /// sweep (EngineConfig::adaptive_prober off).
  active::AdaptiveProber* adaptive_prober() { return adaptive_; }
  const active::AdaptiveProber* adaptive_prober() const { return adaptive_; }
  active::ScanScheduler* scheduler() { return scheduler_.get(); }

  const passive::ScanDetector& scan_detector() const { return *detector_; }

  capture::Tap& tap(std::size_t peering) { return *taps_.at(peering); }
  std::size_t tap_count() const { return taps_.size(); }

  /// The fault-injection stage in front of tap `peering`, or nullptr
  /// when the engine runs unimpaired.
  capture::Impairment* impairment(std::size_t peering) {
    return impairments_.empty() ? nullptr : impairments_.at(peering).get();
  }
  bool impaired() const { return !impairments_.empty(); }

  /// Adds a monitor fed through `sampler` (call before run()). Returns
  /// the new monitor; the engine keeps ownership.
  passive::PassiveMonitor& add_sampled_monitor(
      std::unique_ptr<capture::Sampler> sampler);

  /// Attaches an arbitrary extra consumer to every tap (e.g. a
  /// PcapWriter). Not owned.
  void add_tap_consumer(sim::PacketObserver* consumer);

  /// Starts the campus and runs the campaign to its configured duration.
  void run();

  workload::Campus& campus() { return campus_; }
  /// The registry every component reports into, or nullptr.
  util::MetricsRegistry* metrics() const { return config_.metrics; }
  /// The provenance ledger the engine feeds, or nullptr.
  ProvenanceLedger* provenance() const { return config_.provenance; }
  /// The streaming analytics layer the engine feeds, or nullptr.
  analysis::StreamingAnalytics* streaming() const {
    return config_.streaming;
  }

 private:
  passive::MonitorConfig monitor_config(bool exclude_scanners) const;

  workload::Campus& campus_;
  EngineConfig config_;
  std::shared_ptr<passive::ScanDetector> detector_;
  std::vector<std::unique_ptr<capture::Tap>> taps_;
  /// One per tap when provenance is on: stamps the ledger's current-tap
  /// context ahead of the monitors, so evidence knows its peering.
  std::vector<std::unique_ptr<TapContextObserver>> tap_contexts_;
  /// One per tap when fault injection is configured, else empty.
  std::vector<std::unique_ptr<capture::Impairment>> impairments_;
  std::unique_ptr<passive::PassiveMonitor> monitor_;
  std::unique_ptr<passive::PassiveMonitor> excluded_monitor_;
  std::vector<std::unique_ptr<passive::PassiveMonitor>> link_monitors_;
  std::vector<std::unique_ptr<capture::SampledStream>> sampled_streams_;
  std::vector<std::unique_ptr<passive::PassiveMonitor>> sampled_monitors_;
  std::unique_ptr<active::ProberBase> prober_;
  /// Non-owning view of prober_ when it is an AdaptiveProber.
  active::AdaptiveProber* adaptive_{nullptr};
  std::unique_ptr<active::ScanScheduler> scheduler_;
};

/// The streaming configuration matching a campus: same internal
/// prefixes, port selection and UDP mode as the engine's monitors, so
/// the streaming rules see the same service universe the exact tables
/// record. Callers may tighten window/threshold fields afterwards.
analysis::StreamingConfig streaming_config_for(const workload::Campus& campus);

}  // namespace svcdisc::core
