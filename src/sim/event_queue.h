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
// The heap itself is a 4-ary min-heap of small (time, seq, slot) keys;
// event payloads live in a slab indexed by slot, so sift operations never
// move them. Keys are unique, so the heap's arity cannot change the pop
// order: it is always ascending (time, seq).
#pragma once

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

/// Min-heap of timestamped events with FIFO tie-breaking.
class EventQueue {
 public:
  /// Enqueue a generic callback to fire at time `t`.
  void push(util::TimePoint t, util::SmallFn fn);
  /// Enqueue a timer event for `target` at time `t`.
  void push_timer(util::TimePoint t, TimerTarget* target,
                  std::uint64_t tag = 0);
  /// Enqueue delivery of `p` to `target` at time `t`.
  void push_packet(util::TimePoint t, PacketEventTarget* target,
                   const net::Packet& p, net::Ipv4 external, bool crossed);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Timestamp of the earliest event; undefined when empty.
  util::TimePoint next_time() const { return heap_[0].time; }
  /// The earliest event (for coalescing peeks); undefined when empty.
  const Event& top() const { return slab_[heap_[0].slot]; }

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

  /// Grabs a free slab slot (growing the slab if needed) and stamps its
  /// (time, seq); returns the slot's Event for payload assignment.
  Event& emplace(util::TimePoint t);
  /// Removes heap_[0] and returns the slot it named.
  std::uint32_t remove_top_key();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  static bool before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::vector<Key> heap_;
  std::vector<Event> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_{0};
};

}  // namespace svcdisc::sim
