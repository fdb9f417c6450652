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
    window_state_.clear();
  }
}

void ScanDetector::attach_metrics(util::MetricsRegistry& registry,
                                  std::string_view prefix) {
  const std::string base(prefix);
  m_packets_ = &registry.counter(base + ".packets_seen");
  m_flagged_ = &registry.counter(base + ".scanners_flagged");
}

void ScanDetector::CappedSet::insert(net::Ipv4 addr, std::uint32_t cap) {
  if (count_ >= cap) return;
  if (count_ == 0) {
    first_ = addr;
    count_ = 1;
    return;
  }
  if (addr == first_) return;
  if (!rest_) rest_ = std::make_unique<util::FlatSet<net::Ipv4>>();
  if (rest_->insert(addr)) ++count_;
}

void ScanDetector::flag(net::Ipv4 src, util::TimePoint t) {
  SVCDISC_TRACE_INSTANT("scan_detector.flagged", t.usec);
  scanners_.insert(src);
  window_state_.erase(src);
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
    SourceState& state = window_state_[p.src];
    state.targets.insert(p.dst, config_.target_threshold);
    if (crossed(state)) flag(p.src, p.time);
  } else if (p.flags.rst()) {
    // Refusal flowing back out: internal host -> external source.
    if (!is_internal(p.src) || is_internal(p.dst)) return;
    if (scanners_.contains(p.dst)) return;
    SourceState& state = window_state_[p.dst];
    state.rst_from.insert(p.src, config_.rst_threshold);
    if (crossed(state)) flag(p.dst, p.time);
  }
}

}  // namespace svcdisc::passive
