#include "passive/scan_detector.h"

#include "util/trace.h"

namespace svcdisc::passive {

ScanDetector::ScanDetector(ScanDetectorConfig config,
                           std::vector<net::Prefix> internal_prefixes)
    : config_(config), internal_(std::move(internal_prefixes)) {}

bool ScanDetector::is_internal(net::Ipv4 addr) const {
  for (const auto& prefix : internal_) {
    if (prefix.contains(addr)) return true;
  }
  return false;
}

void ScanDetector::roll_window(util::TimePoint t) {
  // Floored division so timestamps left of the epoch (negative clock
  // skew on an impaired tap) get their own window instead of sharing
  // window 0 with the first real window.
  const std::int64_t window = util::floor_div(t.usec, config_.window.usec);
  if (window != current_window_) {
    SVCDISC_TRACE_INSTANT("scan_detector.window_roll", t.usec);
    current_window_ = window;
    window_counts_.clear();
    target_pairs_.clear();
    rst_pairs_.clear();
  }
}

void ScanDetector::attach_metrics(util::MetricsRegistry& registry,
                                  std::string_view prefix) {
  const std::string base(prefix);
  m_packets_ = &registry.counter(base + ".packets_seen");
  m_flagged_ = &registry.counter(base + ".scanners_flagged");
}

void ScanDetector::count_peer(util::FlatSet<std::uint64_t>& pairs,
                              net::Ipv4 source, net::Ipv4 peer,
                              std::uint32_t& count, std::uint32_t threshold) {
  if (count >= threshold) return;
  if (pairs.insert(std::uint64_t{source.value()} << 32 | peer.value())) {
    ++count;
  }
}

void ScanDetector::flag(net::Ipv4 src, util::TimePoint t) {
  SVCDISC_TRACE_INSTANT("scan_detector.flagged", t.usec);
  scanners_.insert(src);
  window_counts_.erase(src);
  if (m_flagged_) m_flagged_->inc();
}

void ScanDetector::observe(const net::Packet& p) {
  if (p.proto != net::Proto::kTcp) return;
  if (m_packets_) m_packets_->inc();
  roll_window(p.time);

  if (p.flags.is_syn_only()) {
    // Inbound connection attempt: external source -> internal target.
    if (is_internal(p.src) || !is_internal(p.dst)) return;
    if (scanners_.contains(p.src)) return;  // already flagged
    SourceCounts& counts = window_counts_[p.src];
    count_peer(target_pairs_, p.src, p.dst, counts.targets,
               config_.target_threshold);
    if (crossed(counts)) flag(p.src, p.time);
  } else if (p.flags.rst()) {
    // Refusal flowing back out: internal host -> external source.
    if (!is_internal(p.src) || is_internal(p.dst)) return;
    if (scanners_.contains(p.dst)) return;
    SourceCounts& counts = window_counts_[p.dst];
    count_peer(rst_pairs_, p.dst, p.src, counts.rst_from,
               config_.rst_threshold);
    if (crossed(counts)) flag(p.dst, p.time);
  }
}

}  // namespace svcdisc::passive
