#include "capture/tap.h"

namespace svcdisc::capture {

Filter Tap::paper_default_filter() {
  // "we collected all TCP SYN, SYN-ACK and RST packets, as well as all
  // UDP traffic" (§3.2); ICMP is included for the UDP prober's
  // port-unreachable interpretation.
  auto filter = Filter::compile("(tcp and (syn or rst)) or udp or icmp");
  return filter ? *filter : Filter{};
}

void Tap::attach_metrics(util::MetricsRegistry& registry,
                         std::string_view prefix) {
  const std::string base(prefix);
  m_seen_ = &registry.counter(base + ".packets_seen");
  m_filter_match_ = &registry.counter(base + ".filter_match");
  m_filter_reject_ = &registry.counter(base + ".filter_reject");
  m_sampled_out_ = &registry.counter(base + ".sampled_out");
  m_delivered_ = &registry.counter(base + ".delivered");
  m_dropped_ = &registry.counter(base + ".dropped");
}

void Tap::observe(const net::Packet& p) {
  ++seen_;
  if (m_seen_) m_seen_->inc();
  if (!filter_.matches(p)) {
    ++filtered_out_;
    if (m_filter_reject_) m_filter_reject_->inc();
    if (m_dropped_) m_dropped_->inc();
    return;
  }
  if (m_filter_match_) m_filter_match_->inc();
  if (sampler_ && !sampler_->keep(p)) {
    ++sampled_out_;
    if (m_sampled_out_) m_sampled_out_->inc();
    if (m_dropped_) m_dropped_->inc();
    return;
  }
  ++delivered_;
  if (m_delivered_) m_delivered_->inc();
  for (sim::PacketObserver* consumer : consumers_) consumer->observe(p);
}

void Tap::observe_batch(std::span<const net::Packet> packets) {
  // Each counter bump is a locked add, and most batches hold one packet,
  // so zero amounts are skipped.
  const auto bump = [](util::Counter* counter, std::uint64_t amount) {
    if (counter != nullptr && amount != 0) counter->inc(amount);
  };
  const std::uint64_t n = packets.size();
  seen_ += n;
  bump(m_seen_, n);

  // Filter + sampler pre-pass, in packet order (the sampler may be
  // stateful, so it must see survivors in the same sequence as the
  // per-packet path).
  survivors_.clear();
  std::uint64_t rejected = 0;
  std::uint64_t sampled_out = 0;
  for (const net::Packet& p : packets) {
    if (!filter_.matches(p)) {
      ++rejected;
      continue;
    }
    if (sampler_ && !sampler_->keep(p)) {
      ++sampled_out;
      continue;
    }
    survivors_.push_back(p);
  }
  filtered_out_ += rejected;
  sampled_out_ += sampled_out;
  delivered_ += survivors_.size();
  bump(m_filter_reject_, rejected);
  bump(m_filter_match_, n - rejected);
  bump(m_sampled_out_, sampled_out);
  bump(m_dropped_, rejected + sampled_out);
  bump(m_delivered_, survivors_.size());

  if (survivors_.empty()) return;
  if (consumers_.size() == 1) {
    consumers_[0]->observe_batch(survivors_);
    return;
  }
  // Several consumers may share state (e.g. both monitors feed one scan
  // detector), so survivors are fanned out packet by packet to keep the
  // serial interleave bit-for-bit.
  for (const net::Packet& p : survivors_) {
    for (sim::PacketObserver* consumer : consumers_) consumer->observe(p);
  }
}

}  // namespace svcdisc::capture
