#include "passive/monitor.h"

#include <algorithm>

#include "util/trace.h"

namespace svcdisc::passive {
namespace {

/// Field-wise identity over the fields the detection rules read — two
/// such packets carry zero extra evidence (the dedup predicate).
bool same_observation(const net::Packet& a, const net::Packet& b) {
  return a.time == b.time && a.src == b.src && a.dst == b.dst &&
         a.proto == b.proto && a.sport == b.sport && a.dport == b.dport &&
         a.flags == b.flags && a.seq == b.seq;
}

}  // namespace

PassiveMonitor::PassiveMonitor(MonitorConfig config)
    : config_(std::move(config)), table_(config_.client_accounting) {}

bool PassiveMonitor::is_internal(net::Ipv4 addr) const {
  for (const auto& prefix : config_.internal_prefixes) {
    if (prefix.contains(addr)) return true;
  }
  return false;
}

bool PassiveMonitor::tcp_port_selected(net::Port port) const {
  if (config_.tcp_ports.empty()) return true;
  return std::find(config_.tcp_ports.begin(), config_.tcp_ports.end(),
                   port) != config_.tcp_ports.end();
}

bool PassiveMonitor::udp_port_selected(net::Port port) const {
  if (config_.udp_ports.empty()) return net::is_well_known(port);
  return std::find(config_.udp_ports.begin(), config_.udp_ports.end(),
                   port) != config_.udp_ports.end();
}

void PassiveMonitor::attach_metrics(util::MetricsRegistry& registry,
                                    std::string_view prefix) {
  const std::string base(prefix);
  m_packets_ = &registry.counter(base + ".packets_seen");
  m_tcp_discoveries_ = &registry.counter(base + ".tcp_discoveries");
  m_udp_discoveries_ = &registry.counter(base + ".udp_discoveries");
  m_flows_ = &registry.counter(base + ".flows_counted");
  m_suppressed_ = &registry.counter(base + ".scanner_suppressed");
  m_unmatched_ = &registry.counter(base + ".unmatched_syn_acks");
  // Registered only when dedup runs, so clean-capture campaigns export
  // an unchanged metric set (the golden snapshot pins it).
  if (config_.drop_exact_duplicates) {
    m_duplicates_ = &registry.counter(base + ".duplicates_dropped");
  }
  m_table_size_ = &registry.gauge(base + ".table_size");
}

void PassiveMonitor::observe(const net::Packet& p) {
  ++packets_seen_;
  if (m_packets_) m_packets_->inc();
  ingest(p);
}

void PassiveMonitor::observe_batch(std::span<const net::Packet> packets) {
  packets_seen_ += packets.size();
  if (m_packets_) m_packets_->inc(packets.size());
  for (const net::Packet& p : packets) ingest(p);
}

void PassiveMonitor::ingest(const net::Packet& p) {
  if (config_.drop_exact_duplicates) {
    if (have_last_packet_ && same_observation(last_packet_, p)) {
      ++duplicates_dropped_;
      if (m_duplicates_) m_duplicates_->inc();
      return;
    }
    last_packet_ = p;
    have_last_packet_ = true;
  }
  if (scan_detector_) scan_detector_->observe(p);
  switch (p.proto) {
    case net::Proto::kTcp: {
      if (p.flags.is_syn_ack()) {
        // A positive response from an internal address: service present.
        if (!is_internal(p.src) || !tcp_port_selected(p.sport)) return;
        if (config_.exclude_scanner_triggered && scanner_flagged(p.dst)) {
          ++suppressed_;
          if (m_suppressed_) m_suppressed_->inc();
          return;
        }
        const ServiceKey key{p.src, net::Proto::kTcp, p.sport};
        if (config_.require_syn_before_synack &&
            pending_syns_.erase(net::FlowKey::of(p)) == 0) {
          // SYN-less SYN-ACK: with lossy capture, the inbound SYN may
          // simply have been dropped. Renewed evidence for a service we
          // already know must not be discarded (or, worse, tallied as
          // suspicious) — only genuinely new claims need the handshake.
          if (table_.contains(key)) {
            table_.touch(key, p.time);
            if (on_evidence) on_evidence(key, p.time);
            return;
          }
          ++unmatched_syn_acks_;
          if (m_unmatched_) m_unmatched_->inc();
          return;
        }
        if (table_.discover(key, p.time)) {
          SVCDISC_TRACE_INSTANT("passive.discover_tcp", p.time.usec);
          if (m_tcp_discoveries_) m_tcp_discoveries_->inc();
          if (m_table_size_) {
            m_table_size_->set(static_cast<std::int64_t>(table_.size()));
          }
          if (on_discovery) on_discovery(key, p.time);
        } else {
          table_.touch(key, p.time);  // renewed evidence (Table 4)
        }
        if (on_evidence) on_evidence(key, p.time);
      } else if (p.flags.is_syn_only()) {
        // Inbound connection attempt: a flow toward a (possible) server.
        if (is_internal(p.src) || !is_internal(p.dst)) return;
        if (!tcp_port_selected(p.dport)) return;
        if (config_.require_syn_before_synack) {
          pending_syns_.insert(net::FlowKey::of(p));
        }
        if (scanner_flagged(p.src)) return;
        table_.count_flow({p.dst, net::Proto::kTcp, p.dport}, p.src, p.time);
        if (m_flows_) m_flows_->inc();
      }
      return;
    }
    case net::Proto::kUdp: {
      if (!config_.detect_udp) return;
      // Traffic *from* a well-known port on an internal host.
      if (is_internal(p.src) && udp_port_selected(p.sport)) {
        if (config_.exclude_scanner_triggered && scanner_flagged(p.dst)) {
          ++suppressed_;
          if (m_suppressed_) m_suppressed_->inc();
          return;
        }
        const ServiceKey key{p.src, net::Proto::kUdp, p.sport};
        if (table_.discover(key, p.time)) {
          SVCDISC_TRACE_INSTANT("passive.discover_udp", p.time.usec);
          if (m_udp_discoveries_) m_udp_discoveries_->inc();
          if (m_table_size_) {
            m_table_size_->set(static_cast<std::int64_t>(table_.size()));
          }
          if (on_discovery) on_discovery(key, p.time);
        }
        // Repeat server-port UDP deliberately leaves the table untouched
        // (last_activity is SYN-ACK/flow-driven for UDP), but it is still
        // evidence the provenance ledger wants.
        if (on_evidence) on_evidence(key, p.time);
      } else if (!is_internal(p.src) && is_internal(p.dst) &&
                 udp_port_selected(p.dport)) {
        table_.count_flow({p.dst, net::Proto::kUdp, p.dport}, p.src, p.time);
        if (m_flows_) m_flows_->inc();
      }
      return;
    }
    case net::Proto::kIcmp:
      return;  // passive TCP/UDP discovery ignores ICMP
  }
}

}  // namespace svcdisc::passive
