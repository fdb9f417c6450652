// Streaming analytics (DESIGN.md §15): constant-memory online inference
// over the live discovery stream, instead of post-hoc analysis over
// fully-materialized tables.
//
// StreamingAnalytics is a PacketObserver attached (by DiscoveryEngine,
// under EngineConfig::streaming) to every border tap, plus a probe-reply
// hook fed by the prober. Both feeds run on the simulator thread in
// simulated-time order, so every streaming artifact is a deterministic
// function of (config, seed).
//
// It maintains:
//   * global sketches — passive/active/union address HyperLogLogs (the
//     incremental completeness estimate), a distinct-client HLL, and a
//     count-min sketch of per-service flow tallies;
//   * a per-service map (O(services), no per-client state): first/last
//     activity, exact flow counter, passive/active sighting bits, and a
//     decayed activity rate — what the change-point detector reads;
//   * a windowed change-point detector: inbound-SYN bursts (external
//     scan), discovery-rate jumps, and per-service death/reappearance;
//   * periodic snapshot rows (one per closed window) exportable as JSONL
//     — the "watch completeness converge while the campaign runs" view.
//
// Detected events surface three ways: stream.* counters/gauges in the
// MetricsRegistry, flight-recorder instants (util::trace), and per-key
// timeline lines merged into `svcdisc_cli explain addr:port`.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "net/packet.h"
#include "net/ports.h"
#include "passive/scan_detector.h"
#include "passive/service_table.h"
#include "sim/node.h"
#include "util/flat_hash.h"
#include "util/metrics.h"
#include "util/sim_time.h"
#include "util/sketch.h"

namespace svcdisc::analysis {

struct StreamingConfig {
  /// Campus prefixes: the passive rules mirror the monitor's notion of
  /// "internal" (services live inside, clients outside).
  std::vector<net::Prefix> internal_prefixes;
  /// Port selection, mirroring MonitorConfig (empty = all / well-known).
  std::vector<net::Port> tcp_ports;
  std::vector<net::Port> udp_ports;
  bool detect_udp{false};

  /// Analysis window: snapshots close and the change-point detector
  /// evaluates once per window of simulated time.
  util::Duration window{util::hours(1)};
  /// A window's inbound-SYN (or discovery) count is a burst when it
  /// exceeds burst_factor x the EWMA of previous windows...
  double burst_factor{4.0};
  /// ...and this absolute floor (quiet campaigns must not alert on
  /// 3-SYN windows).
  std::uint64_t burst_floor{64};
  /// EWMA weight of the newest window in the baseline rate.
  double baseline_alpha{0.3};

  /// A service is declared dead when it showed at least this much
  /// activity (sightings + flows)...
  std::uint64_t death_min_activity{6};
  /// ...and then went silent for this many whole windows.
  std::uint64_t death_windows{6};

  /// Register-count precisions of the global HLLs (2^p bytes each).
  int hll_precision{12};
  /// Count-min geometry for the flow-tally sketch.
  std::size_t cms_width{4096};
  std::size_t cms_depth{4};
  /// Half-life of the decayed per-service activity rates.
  util::Duration decay_half_life{util::hours(2)};
};

/// One global change-point or per-service lifecycle event.
struct ChangePoint {
  enum class Kind : std::uint8_t {
    kScanBurst,       ///< inbound-SYN jump: external sweep hitting the tap
    kDiscoveryJump,   ///< new-service rate jump
    kServiceAppeared, ///< first evidence of a service (per-key timeline)
    kServiceDied,     ///< active service went silent past the threshold
    kServiceReturned, ///< evidence after a death verdict
  };
  Kind kind{Kind::kScanBurst};
  util::TimePoint at{};
  /// The service concerned (per-service kinds only; zero otherwise).
  passive::ServiceKey key{};
  /// Observed window count (bursts) or lifetime activity (deaths).
  std::uint64_t observed{0};
  /// Baseline the observation was compared against (bursts).
  double baseline{0.0};
};

const char* change_point_kind_name(ChangePoint::Kind kind);

/// One closed analysis window. All integer fields; the two percentages
/// are pre-rounded to basis points so JSONL export is trivially
/// byte-stable.
struct StreamSnapshot {
  util::TimePoint at{};           ///< window end
  std::uint64_t services{0};      ///< services seen (passive or active)
  std::uint64_t passive_addrs{0}; ///< HLL estimate, server addresses
  std::uint64_t active_addrs{0};
  std::uint64_t union_addrs{0};
  std::uint64_t both_addrs{0};    ///< inclusion-exclusion over the HLLs
  /// both/union in basis points (the incremental §4.1 completeness).
  std::int64_t overlap_bp{0};
  /// Flow-weighted active completeness in basis points: the share of all
  /// observed inbound flows aimed at services active probing also found.
  std::int64_t flow_weighted_active_bp{0};
  std::uint64_t clients{0};       ///< HLL estimate, distinct clients
  std::uint64_t flows{0};         ///< cumulative inbound flows
  std::uint64_t window_flows{0};
  std::uint64_t window_discoveries{0};
  std::uint64_t change_points{0}; ///< cumulative (bursts + deaths + returns)
};

class StreamingAnalytics final : public sim::PacketObserver {
 public:
  explicit StreamingAnalytics(StreamingConfig config);

  /// Scanner verdicts: flows from flagged sources are not counted,
  /// matching the monitor's client accounting. Optional.
  void set_scan_detector(std::shared_ptr<const passive::ScanDetector> d) {
    detector_ = std::move(d);
  }

  // sim::PacketObserver — the passive feed (attached to every tap).
  void observe(const net::Packet& p) override;
  void observe_batch(std::span<const net::Packet> packets) override;

  /// The active feed: one open-port probe reply (prober callback).
  void on_probe_reply(const passive::ServiceKey& key, util::TimePoint t);

  /// Closes all windows up to `end` and publishes final gauges. Call
  /// once, after the campaign (DiscoveryEngine::run does).
  void finish(util::TimePoint end);

  /// Registers the stream.* counters and gauges. Call before the run;
  /// never called for disabled streaming, so existing metric exports
  /// carry no new keys.
  void attach_metrics(util::MetricsRegistry& registry);

  const std::vector<StreamSnapshot>& snapshots() const { return snapshots_; }
  const std::vector<ChangePoint>& change_points() const { return events_; }
  /// Global change-points only (bursts/jumps), excluding per-service
  /// lifecycle events.
  std::uint64_t burst_count() const { return bursts_; }

  /// Incremental completeness estimates (live, not just at windows).
  std::uint64_t passive_addr_estimate() const { return passive_addrs_.count(); }
  std::uint64_t active_addr_estimate() const { return active_addrs_.count(); }
  std::uint64_t union_addr_estimate() const { return union_addrs_.count(); }
  std::uint64_t client_estimate() const { return clients_.count(); }
  std::uint64_t services_seen() const { return table_.size(); }
  std::uint64_t flows_seen() const { return flows_total_; }

  /// Flow-tally estimate for one service (count-min: never under).
  std::uint64_t flow_estimate(const passive::ServiceKey& key) const;
  /// Exact flow tally from the per-service map (the CMS oracle in the
  /// error-bound tests; 0 for unseen keys).
  std::uint64_t flow_exact(const passive::ServiceKey& key) const;

  /// Bytes held by the layer: global sketches + the per-service map.
  /// O(services); independent of contacted-address count.
  std::size_t memory_bytes() const;

  /// Snapshot rows as JSONL (stable field order and integer formatting —
  /// the artifact scripts/scale.sh byte-compares across same-seed runs).
  std::string snapshots_jsonl() const;
  /// All change-points as JSONL, in detection order.
  std::string events_jsonl() const;
  /// Per-key timeline lines for `explain addr:port` (empty when the key
  /// never produced a streaming event).
  std::vector<std::string> explain_lines(const passive::ServiceKey& key,
                                         const util::Calendar& calendar) const;

 private:
  struct ServiceState {
    util::TimePoint first_seen{};
    util::TimePoint last_activity{};
    std::uint64_t flows{0};
    std::uint64_t sightings{0};
    util::DecayRate activity;
    bool seen_passive{false};
    bool seen_active{false};
    bool dead{false};
  };

  bool is_internal(net::Ipv4 addr) const;
  bool tcp_port_selected(net::Port port) const;
  bool udp_port_selected(net::Port port) const;
  /// Advances the window clock to contain `t`, closing any windows that
  /// ended before it (multiple on large gaps).
  void roll_windows(util::TimePoint t);
  void close_window(util::TimePoint window_end);
  ServiceState& touch_service(const passive::ServiceKey& key,
                              util::TimePoint t, bool active);
  void record_service_event(ChangePoint::Kind kind,
                            const passive::ServiceKey& key, util::TimePoint t,
                            std::uint64_t observed);
  void count_flow(const passive::ServiceKey& key, net::Ipv4 client,
                  util::TimePoint t);
  void ingest(const net::Packet& p);

  StreamingConfig config_;
  std::shared_ptr<const passive::ScanDetector> detector_;

  // Global sketches.
  util::HyperLogLog passive_addrs_;
  util::HyperLogLog active_addrs_;
  util::HyperLogLog union_addrs_;
  util::HyperLogLog clients_;
  util::CountMinSketch flow_sketch_;

  util::FlatMap<passive::ServiceKey, ServiceState, passive::ServiceKeyHash>
      table_;
  /// Sum of `flows` over services with seen_active — the numerator of
  /// the incremental flow-weighted completeness. Maintained online:
  /// flows to an already-active-confirmed service add here, and a
  /// service's first probe reply promotes its accumulated tally.
  std::uint64_t flows_active_covered_{0};
  std::uint64_t flows_total_{0};

  // Window state.
  bool window_open_{false};
  util::TimePoint window_start_{};
  std::uint64_t window_syns_{0};
  std::uint64_t window_flows_{0};
  std::uint64_t window_discoveries_{0};
  double baseline_syns_{-1.0};  ///< EWMA; negative = no closed window yet
  double baseline_discoveries_{-1.0};

  std::vector<StreamSnapshot> snapshots_;
  std::vector<ChangePoint> events_;
  std::uint64_t bursts_{0};
  std::uint64_t deaths_{0};
  std::uint64_t returns_{0};
  /// Event indexes per service key, for explain timelines.
  util::FlatMap<passive::ServiceKey, std::vector<std::uint32_t>,
                passive::ServiceKeyHash>
      key_events_;

  // Metrics (optional; simulator-thread writes only).
  util::Counter* m_snapshots_{nullptr};
  util::Counter* m_change_points_{nullptr};
  util::Counter* m_scan_bursts_{nullptr};
  util::Counter* m_discovery_jumps_{nullptr};
  util::Counter* m_services_died_{nullptr};
  util::Counter* m_services_returned_{nullptr};
  util::Gauge* m_passive_est_{nullptr};
  util::Gauge* m_active_est_{nullptr};
  util::Gauge* m_union_est_{nullptr};
  util::Gauge* m_both_est_{nullptr};
  util::Gauge* m_clients_est_{nullptr};
  util::Gauge* m_services_{nullptr};
  util::Gauge* m_flows_{nullptr};
  util::Gauge* m_overlap_bp_{nullptr};
  util::Gauge* m_flow_weighted_bp_{nullptr};
  util::Gauge* m_sketch_bytes_{nullptr};
};

}  // namespace svcdisc::analysis
