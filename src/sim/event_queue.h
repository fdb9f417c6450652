// A deterministic discrete-event queue over POD tagged events.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), which makes runs reproducible
// regardless of heap internals.
//
// The queue stores three event kinds:
//   * packet delivery — the dominant event: a Packet plus its
//     PacketEventTarget, held by value, no allocation;
//   * timer — a (TimerTarget*, tag) pair for periodic/self-rescheduling
//     components (probers, hosts, flow generators), no allocation;
//   * callback — the generic escape hatch: a util::SmallFn, which stays
//     allocation-free for captures up to 48 bytes.
// Timers and callbacks go to a 4-ary min-heap of small (time, seq, slot)
// keys; their payloads live in a slab indexed by slot, so sift operations
// never move them. Packet deliveries go to a few FIFO lanes beside the
// heap, one per delivery delay: the network has only a handful of path
// latencies, and deliveries pushed `delay` after a nondecreasing clock
// arrive in time order, so a ring buffer holds them sorted for free. A
// delivery that would break its lane's order, or that finds no lane,
// goes to the heap. Beside them sit a few pacing slots, each holding at
// most one timer of a strictly periodic source (a prober machine's
// per-probe tick) that keeps one timer pending at a time. Every push
// takes the next seq, and the heap, each lane and each slot are sorted by
// (time, seq), so merging their fronts pops in exactly ascending
// (time, seq) order: lanes and slots change the cost, never the order.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.h"
#include "util/sim_time.h"
#include "util/small_fn.h"

namespace svcdisc::sim {

/// Receiver of timer events. `tag` is caller-defined (e.g. a machine or
/// stream index), letting one target multiplex many timers.
class TimerTarget {
 public:
  virtual ~TimerTarget() = default;
  virtual void on_timer(std::uint64_t tag) = 0;
};

/// Receiver of packet-delivery events. The simulator coalesces
/// consecutive same-timestamp deliveries to one target into a single
/// span (see Simulator::run), so implementations get batches for free.
class PacketEventTarget {
 public:
  virtual ~PacketEventTarget() = default;
  /// Delivers `packets` (all due now, in schedule order). `external` is
  /// the off-campus endpoint and `crossed` whether the path crosses the
  /// campus border — identical for every packet in one call.
  virtual void deliver_packets(std::span<net::Packet> packets,
                               net::Ipv4 external, bool crossed) = 0;
};

/// One scheduled event. Plain tagged struct; `fire()` dispatches it.
struct Event {
  enum class Kind : std::uint8_t { kPacket, kTimer, kCallback };

  util::TimePoint time{};
  std::uint64_t seq{0};
  Kind kind{Kind::kCallback};
  bool crossed{false};   ///< kPacket: path crosses the border
  net::Ipv4 external{};  ///< kPacket: off-campus endpoint
  union Pod {
    struct {
      PacketEventTarget* target;
      net::Packet packet;
    } packet;
    struct {
      TimerTarget* target;
      std::uint64_t tag;
    } timer;
    Pod() : timer{nullptr, 0} {}
  } pod;
  util::SmallFn fn;  ///< kCallback only

  /// Dispatches this event (packet events as a batch of one).
  void fire() {
    switch (kind) {
      case Kind::kPacket:
        pod.packet.target->deliver_packets({&pod.packet.packet, 1},
                                           external, crossed);
        break;
      case Kind::kTimer:
        pod.timer.target->on_timer(pod.timer.tag);
        break;
      case Kind::kCallback:
        fn();
        break;
    }
  }
};

/// Min-heap of timestamped events with FIFO tie-breaking, plus FIFO
/// lanes for packet deliveries and pacing slots for periodic timers.
class EventQueue {
 public:
  /// Pacing slots: a prober machine takes one, so four cover two
  /// two-machine probers.
  static constexpr std::size_t kSlots = 4;

  /// Enqueue a generic callback to fire at time `t`.
  void push(util::TimePoint t, util::SmallFn fn);
  /// Enqueue a timer event for `target` at time `t`.
  void push_timer(util::TimePoint t, TimerTarget* target,
                  std::uint64_t tag = 0);
  /// Enqueue delivery of `p` to `target` at time `t`. `delay` is the
  /// lane key: deliveries pushed with one delay share a FIFO lane while
  /// their times do not decrease.
  void push_packet(util::TimePoint t, util::Duration delay,
                   PacketEventTarget* target, const net::Packet& p,
                   net::Ipv4 external, bool crossed);

  /// Claims a free pacing slot; returns its index, or kSlots when every
  /// slot is taken.
  std::size_t reserve_slot();
  /// Returns a slot from reserve_slot (kSlots: no-op).
  void release_slot(std::size_t slot);
  /// Enqueue a timer for `target` at time `t` in pacing slot `slot`. The
  /// timer goes to the heap instead when `slot` is kSlots or already
  /// holds one: either place pops in the same order.
  void push_slot_timer(std::size_t slot, util::TimePoint t,
                       TimerTarget* target, std::uint64_t tag = 0);

  bool empty() const { return size_ == 0; }
  /// Pending events, heap, lanes and slots together.
  std::size_t size() const { return size_; }

  /// Timestamp of the earliest event; undefined when empty.
  util::TimePoint next_time() const { return top().time; }
  /// The earliest event (for coalescing peeks); undefined when empty.
  const Event& top() const {
    if (best_ == kHeap) return slab_[heap_[0].slot];
    return best_ < kLanes ? lanes_[best_].front() : slots_[best_ - kSlot0];
  }

  /// Removes and returns the earliest event.
  Event pop();
  /// Removes the earliest event without moving it out: for callers that
  /// already copied what they need from top(). Undefined when empty.
  void drop_top();

 private:
  /// Heap element: ordering key plus the slab slot of the payload.
  struct Key {
    util::TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// A FIFO of packet deliveries sharing one delay, sorted by (time,
  /// seq): a power-of-two ring of events, grown by doubling.
  struct Lane {
    util::Duration delay{-1};  ///< key, kept while empty until rekeyed
    std::vector<Event> ring;
    std::size_t head{0};
    std::size_t count{0};

    Event& front() { return ring[head]; }
    const Event& front() const { return ring[head]; }
    const Event& back() const {
      return ring[(head + count - 1) & (ring.size() - 1)];
    }
    /// Appends a slot at the tail (growing the ring if full).
    Event& push_back();
    void pop_front() {
      head = (head + 1) & (ring.size() - 1);
      --count;
    }
  };

  static constexpr std::size_t kLanes = 4;
  /// best_ value naming the heap top.
  static constexpr std::size_t kHeap = kLanes;
  /// best_ value naming slot 0; slot i is kSlot0 + i.
  static constexpr std::size_t kSlot0 = kHeap + 1;

  /// Grabs a free slab slot (growing the slab if needed), stamps its
  /// (time, seq) and pushes its key; returns the slot's Event for payload
  /// assignment.
  Event& emplace(util::TimePoint t);
  /// The lane a delivery at `t` with `delay` joins, or null for the heap:
  /// the delay's lane if empty or its tail is not after `t`; else, when
  /// no lane holds the delay, the first empty lane, rekeyed.
  Lane* lane_for(util::TimePoint t, util::Duration delay);
  /// Records that a pushed event (`t`, the largest seq so far) sits in
  /// `source`: it is the new earliest only if strictly earlier in time.
  void note_pushed(util::TimePoint t, std::size_t source);
  /// Recomputes best_ over the heap top, the lane fronts and the slots.
  void select_best();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  static bool before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::vector<Key> heap_;
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::array<Lane, kLanes> lanes_;
  std::size_t best_{kHeap};  ///< source of the earliest event
  std::size_t size_{0};
  std::uint64_t next_seq_{0};
  std::uint32_t slots_reserved_{0};  ///< bit i: slot i is reserved
  std::uint32_t slots_pending_{0};   ///< bit i: slots_[i] holds a timer
  // Last: the slots' Events are read only while a slot holds a timer, so
  // they stay off the cache lines every pop touches.
  std::array<Event, kSlots> slots_;
};

}  // namespace svcdisc::sim
