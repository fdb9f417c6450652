// The discrete-event simulator driving a measurement campaign.
//
// Components schedule callbacks, timers, or packet deliveries at
// absolute or relative simulated times; run_until() advances the clock
// deterministically. There is no wall-clock anywhere: a campaign is a
// pure function of (scenario config, seed).
//
// Hot-path note: the run loops coalesce consecutive same-timestamp
// packet deliveries to the same target into one deliver_packets() span.
// This cannot change observable order — the coalesced events are
// adjacent in (time, seq) order, handlers never schedule work at the
// current timestamp that could interleave (new events get later seqs and
// would fire after the run anyway), so the per-packet effect sequence is
// identical to popping them one by one.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "util/metrics.h"
#include "util/sim_time.h"

namespace svcdisc::sim {

class Simulator {
 public:
  /// Current simulated time.
  util::TimePoint now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (clamped to now if in the past).
  void at(util::TimePoint t, util::SmallFn fn);
  /// Schedule `fn` `d` after now.
  void after(util::Duration d, util::SmallFn fn);
  /// Schedule a timer event for `target` at absolute time `t`.
  void at_timer(util::TimePoint t, TimerTarget* target,
                std::uint64_t tag = 0);
  /// Schedule a timer event `d` after now.
  void after_timer(util::Duration d, TimerTarget* target,
                   std::uint64_t tag = 0);
  /// What reserve_pacing_slot returns when every slot is taken.
  static constexpr std::size_t kNoPacingSlot = EventQueue::kSlots;
  /// Reserves one of the queue's pacing slots for a strictly periodic
  /// timer source that keeps at most one timer pending (a prober
  /// machine). Returns kNoPacingSlot when every slot is taken; timers
  /// scheduled through it then take the heap, in the same pop order.
  std::size_t reserve_pacing_slot() { return queue_.reserve_slot(); }
  /// Frees a slot from reserve_pacing_slot (kNoPacingSlot: no-op).
  void release_pacing_slot(std::size_t slot) { queue_.release_slot(slot); }
  /// Schedule a timer event for `target` at absolute time `t` in the
  /// reserved pacing slot `slot`.
  void at_pacing_timer(std::size_t slot, util::TimePoint t,
                       TimerTarget* target, std::uint64_t tag = 0);

  /// Schedule delivery of `p` to `target` `d` after now. Deliveries with
  /// one `d` share a FIFO lane of the queue (see EventQueue).
  void after_packet(util::Duration d, PacketEventTarget* target,
                    const net::Packet& p, net::Ipv4 external, bool crossed);

  /// Runs events with time <= t, then advances the clock to exactly t.
  void run_until(util::TimePoint t);
  /// Runs until the queue drains.
  void run();
  /// Runs a single event if one exists; returns false when empty.
  bool step();

  std::size_t pending() const { return queue_.size(); }
  std::uint64_t events_processed() const { return processed_; }

  /// Registers a `<prefix>.events_processed` counter and a
  /// `<prefix>.queue_depth_hwm` gauge (high-water mark of the pending
  /// event queue), mirroring subsequent activity.
  void attach_metrics(util::MetricsRegistry& registry,
                      std::string_view prefix);

 private:
  /// Removes the earliest event and dispatches it. With `coalesce`, a
  /// packet event absorbs any directly following deliveries with
  /// identical (time, target, external, crossed) into one batch; without
  /// it (step()), it is delivered as a batch of one.
  void dispatch_next(bool coalesce = true);
  void count_processed(std::size_t n);
  void note_push();

  EventQueue queue_;
  util::TimePoint now_{};
  std::uint64_t processed_{0};
  std::vector<net::Packet> batch_;  // reused packet coalescing buffer
  util::Counter* m_events_{nullptr};
  util::Gauge* m_queue_hwm_{nullptr};
};

}  // namespace svcdisc::sim
