// The passive service monitor (paper §2.2, §3.2).
//
// Detection rules:
//   * TCP: "any host sending a SYN-ACK is running a service" — a SYN-ACK
//     from an internal address discovers (addr, tcp, sport).
//   * UDP: "any host which sends UDP traffic from a well known server
//     port is running a UDP service on that port".
// The monitor additionally tallies inbound flows (external SYN to an
// internal address) and unique clients per service for the weighted
// completeness metrics, and can exclude discoveries elicited by flagged
// external scanners to measure their contribution (Figure 4).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/ipv4.h"
#include "net/packet.h"
#include "net/ports.h"
#include "passive/scan_detector.h"
#include "passive/service_table.h"
#include "sim/node.h"
#include "util/flat_hash.h"
#include "util/metrics.h"

namespace svcdisc::passive {

struct MonitorConfig {
  /// Campus prefixes: only services on internal addresses are recorded.
  std::vector<net::Prefix> internal_prefixes;
  /// If non-empty, only these TCP server ports are recorded (the paper's
  /// selected-service studies). Empty = all ports (DTCPall).
  std::vector<net::Port> tcp_ports;
  /// Same for UDP server ports. Empty = any well-known UDP port.
  std::vector<net::Port> udp_ports;
  /// Record UDP services at all (off for the TCP-only datasets).
  bool detect_udp{false};
  /// Discoveries whose triggering packet answers a flagged scanner are
  /// suppressed (used to isolate the external-scan contribution, §4.3).
  bool exclude_scanner_triggered{false};
  /// Detection rule. The paper argues a SYN-ACK alone is sufficient
  /// evidence under normal operation (§3.2); the stricter rule demands
  /// the inbound SYN be observed first (half a "three-way handshake"),
  /// which resists spoofed/one-sided captures at the cost of per-flow
  /// state. The ablation bench shows both rules agree on real traffic.
  /// Under the strict rule, a SYN-less SYN-ACK for an ALREADY-discovered
  /// service counts as renewed evidence (touch) rather than an unmatched
  /// drop — capture loss of the SYN must not erase prior knowledge.
  bool require_syn_before_synack{false};
  /// Ignore a packet identical to the immediately preceding one (same
  /// timestamp, endpoints, protocol, flags and sequence number). Capture
  /// duplication (span ports, impaired taps) delivers such twins
  /// back-to-back; without this they double-count inbound flows.
  /// DiscoveryEngine enables it automatically when duplication is
  /// injected. Off by default: flow accounting stays byte-identical to
  /// the historical behaviour on clean captures.
  bool drop_exact_duplicates{false};
  /// Client-set backend of the service table (DESIGN.md §15): kExact
  /// keeps the per-client FlatMap (historical behaviour), kSketch swaps
  /// it for a per-service HyperLogLog so table memory stays O(services).
  /// DiscoveryEngine selects kSketch under EngineConfig::sketch_tables.
  ClientAccounting client_accounting{ClientAccounting::kExact};
};

class PassiveMonitor final : public sim::PacketObserver {
 public:
  explicit PassiveMonitor(MonitorConfig config);

  /// Attach a scan detector whose verdicts drive scanner exclusion and
  /// reporting. The monitor feeds it every packet it sees.
  void set_scan_detector(std::shared_ptr<ScanDetector> detector) {
    scan_detector_ = std::move(detector);
  }
  const ScanDetector* scan_detector() const { return scan_detector_.get(); }

  /// Invoked on each new discovery (after insertion).
  std::function<void(const ServiceKey&, util::TimePoint)> on_discovery;

  /// Invoked on *every* accepted piece of discovery evidence — the first
  /// sighting and every renewal (repeat SYN-ACK, repeat server-port UDP)
  /// — after the table has been updated. Feeds the provenance ledger;
  /// unlike on_discovery it also fires for already-known services.
  std::function<void(const ServiceKey&, util::TimePoint)> on_evidence;

  // sim::PacketObserver
  void observe(const net::Packet& p) override;
  /// Batch entry point: hoists the per-packet counter updates, then runs
  /// the detection rules per packet in order (the rules are stateful:
  /// scan-detector verdicts and pending-SYN state must evolve exactly as
  /// in the per-packet path).
  void observe_batch(std::span<const net::Packet> packets) override;

  const ServiceTable& table() const { return table_; }
  ServiceTable& table() { return table_; }

  std::uint64_t packets_seen() const { return packets_seen_; }
  std::uint64_t discoveries_suppressed() const { return suppressed_; }
  /// SYN-ACKs dropped by the strict rule for lack of a preceding SYN.
  std::uint64_t unmatched_syn_acks() const { return unmatched_syn_acks_; }
  /// Exact back-to-back duplicates ignored (drop_exact_duplicates).
  std::uint64_t duplicates_dropped() const { return duplicates_dropped_; }

  /// Registers `<prefix>.` counters (packets_seen, tcp_discoveries,
  /// udp_discoveries, flows_counted, scanner_suppressed,
  /// unmatched_syn_acks; duplicates_dropped when dedup is enabled) and
  /// a `<prefix>.table_size` gauge.
  void attach_metrics(util::MetricsRegistry& registry,
                      std::string_view prefix);

 private:
  bool is_internal(net::Ipv4 addr) const;
  bool tcp_port_selected(net::Port port) const;
  bool udp_port_selected(net::Port port) const;
  /// The detection rules, minus the packets_seen accounting (shared by
  /// observe and observe_batch).
  void ingest(const net::Packet& p);
  bool scanner_flagged(net::Ipv4 addr) const {
    return scan_detector_ && scan_detector_->is_scanner(addr);
  }

  MonitorConfig config_;
  ServiceTable table_;
  std::shared_ptr<ScanDetector> scan_detector_;
  /// Strict-rule state: flows with an observed inbound SYN.
  util::FlatSet<net::FlowKey> pending_syns_;
  /// Dedup state: the previous packet ingested (drop_exact_duplicates).
  net::Packet last_packet_{};
  bool have_last_packet_{false};
  std::uint64_t packets_seen_{0};
  std::uint64_t suppressed_{0};
  std::uint64_t unmatched_syn_acks_{0};
  std::uint64_t duplicates_dropped_{0};
  util::Counter* m_packets_{nullptr};
  util::Counter* m_tcp_discoveries_{nullptr};
  util::Counter* m_udp_discoveries_{nullptr};
  util::Counter* m_flows_{nullptr};
  util::Counter* m_suppressed_{nullptr};
  util::Counter* m_unmatched_{nullptr};
  util::Counter* m_duplicates_{nullptr};
  util::Gauge* m_table_size_{nullptr};
};

}  // namespace svcdisc::passive
