#include "sim/simulator.h"

#include <utility>

#include "util/trace.h"

namespace svcdisc::sim {

void Simulator::attach_metrics(util::MetricsRegistry& registry,
                               std::string_view prefix) {
  const std::string base(prefix);
  m_events_ = &registry.counter(base + ".events_processed");
  m_queue_hwm_ = &registry.gauge(base + ".queue_depth_hwm");
}

void Simulator::note_push() {
  if (m_queue_hwm_) {
    m_queue_hwm_->update_max(static_cast<std::int64_t>(queue_.size()));
  }
}

void Simulator::at(util::TimePoint t, util::SmallFn fn) {
  queue_.push(t < now_ ? now_ : t, std::move(fn));
  note_push();
}

void Simulator::after(util::Duration d, util::SmallFn fn) {
  at(now_ + d, std::move(fn));
}

void Simulator::at_timer(util::TimePoint t, TimerTarget* target,
                         std::uint64_t tag) {
  queue_.push_timer(t < now_ ? now_ : t, target, tag);
  note_push();
}

void Simulator::at_pacing_timer(std::size_t slot, util::TimePoint t,
                                TimerTarget* target, std::uint64_t tag) {
  queue_.push_slot_timer(slot, t < now_ ? now_ : t, target, tag);
  note_push();
}

void Simulator::after_timer(util::Duration d, TimerTarget* target,
                            std::uint64_t tag) {
  at_timer(now_ + d, target, tag);
}

void Simulator::after_packet(util::Duration d, PacketEventTarget* target,
                             const net::Packet& p, net::Ipv4 external,
                             bool crossed) {
  // `d` keys the delivery's FIFO lane: the clock never runs backwards,
  // so deliveries with one delay are pushed in time order.
  queue_.push_packet(now_ + d, d, target, p, external, crossed);
  note_push();
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  dispatch_next(/*coalesce=*/false);
  return true;
}

void Simulator::count_processed(std::size_t n) {
  processed_ += n;
  if (m_events_) m_events_->inc(n);
}

void Simulator::dispatch_next(bool coalesce) {
  // Timer and packet payloads are copied straight out of the queue's
  // slab and the slot dropped in place; only callbacks, which own a
  // SmallFn, are moved out through pop().
  const Event& top = queue_.top();
  now_ = top.time;
  switch (top.kind) {
    case Event::Kind::kTimer: {
      TimerTarget* const target = top.pod.timer.target;
      const std::uint64_t tag = top.pod.timer.tag;
      queue_.drop_top();
      count_processed(1);
      target->on_timer(tag);
      return;
    }
    case Event::Kind::kCallback: {
      Event ev = queue_.pop();
      count_processed(1);
      ev.fn();
      return;
    }
    case Event::Kind::kPacket:
      break;
  }

  // Coalesce the run of consecutive deliveries sharing this event's
  // (time, target, external, crossed). Any event scheduled by the
  // handlers gets a later seq than everything absorbed here, so batching
  // preserves the exact serial order.
  PacketEventTarget* const target = top.pod.packet.target;
  const net::Ipv4 external = top.external;
  const bool crossed = top.crossed;
  batch_.clear();
  batch_.push_back(top.pod.packet.packet);
  queue_.drop_top();
  while (coalesce && !queue_.empty()) {
    const Event& next = queue_.top();
    if (next.time != now_ || next.kind != Event::Kind::kPacket ||
        next.pod.packet.target != target || next.external != external ||
        next.crossed != crossed) {
      break;
    }
    batch_.push_back(next.pod.packet.packet);
    queue_.drop_top();
  }
  count_processed(batch_.size());
  target->deliver_packets(batch_, external, crossed);
}

void Simulator::run_until(util::TimePoint t) {
  SVCDISC_TRACE_SPAN_AT("sim.run_until", t.usec);
  while (!queue_.empty() && queue_.next_time() <= t) dispatch_next();
  if (now_ < t) now_ = t;
}

void Simulator::run() {
  SVCDISC_TRACE_SPAN("sim.run");
  while (!queue_.empty()) dispatch_next();
}

}  // namespace svcdisc::sim
