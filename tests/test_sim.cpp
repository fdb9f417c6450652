// Unit tests for sim: event ordering, clock semantics, network routing,
// border-crossing observation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "net/packet.h"
#include "sim/border_router.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace svcdisc::sim {
namespace {

using net::Ipv4;
using net::Packet;
using net::Prefix;
using util::hours;
using util::kEpoch;
using util::msec;
using util::seconds;

// ------------------------------------------------------------ EventQueue --

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(kEpoch + seconds(3), [&] { fired.push_back(3); });
  q.push(kEpoch + seconds(1), [&] { fired.push_back(1); });
  q.push(kEpoch + seconds(2), [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameTime) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(kEpoch + seconds(5), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fire();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

struct RecordingTimer final : TimerTarget {
  std::vector<std::uint64_t> tags;
  void on_timer(std::uint64_t tag) override { tags.push_back(tag); }
};

struct RecordingTarget final : PacketEventTarget {
  std::vector<std::size_t> batch_sizes;
  std::vector<Packet> delivered;
  net::Ipv4 last_external{};
  bool last_crossed{false};
  void deliver_packets(std::span<Packet> packets, net::Ipv4 external,
                       bool crossed) override {
    batch_sizes.push_back(packets.size());
    delivered.insert(delivered.end(), packets.begin(), packets.end());
    last_external = external;
    last_crossed = crossed;
  }
};

TEST(EventQueue, MixedKindsKeepFifoAtSameTime) {
  EventQueue q;
  RecordingTimer timer;
  RecordingTarget target;
  std::vector<int> order;  // 0 = callback, 1 = timer, 2 = packet
  q.push(kEpoch + seconds(1), [&] { order.push_back(0); });
  q.push_timer(kEpoch + seconds(1), &timer, 7);
  q.push_packet(kEpoch + seconds(1), seconds(1), &target,
                net::make_tcp(Ipv4(1), 1, Ipv4(2), 2, net::flags_syn()),
                Ipv4(9), true);
  while (!q.empty()) {
    Event ev = q.pop();
    if (ev.kind == Event::Kind::kTimer) order.push_back(1);
    if (ev.kind == Event::Kind::kPacket) order.push_back(2);
    ev.fire();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(timer.tags, (std::vector<std::uint64_t>{7}));
  ASSERT_EQ(target.batch_sizes, (std::vector<std::size_t>{1}));
  EXPECT_EQ(target.last_external, Ipv4(9));
  EXPECT_TRUE(target.last_crossed);
}

TEST(EventQueue, SlotReuseDoesNotDisturbOrdering) {
  // Interleave pops with pushes so slab slots get recycled, and verify
  // the (time, seq) order is still exact.
  EventQueue q;
  std::vector<int> fired;
  q.push(kEpoch + seconds(1), [&] { fired.push_back(1); });
  q.push(kEpoch + seconds(3), [&] { fired.push_back(3); });
  q.pop().fire();  // frees a slot
  q.push(kEpoch + seconds(2), [&] { fired.push_back(2); });
  q.push(kEpoch + seconds(2), [&] { fired.push_back(22); });
  while (!q.empty()) q.pop().fire();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 22, 3}));
}

TEST(EventQueue, LargeCaptureCallbackStillFires) {
  // Captures past SmallFn's inline buffer take the heap fallback but
  // must behave identically.
  EventQueue q;
  std::array<std::uint64_t, 16> payload{};
  payload.fill(42);
  std::uint64_t sum = 0;
  q.push(kEpoch + seconds(1), [payload, &sum] {
    for (const auto v : payload) sum += v;
  });
  q.pop().fire();
  EXPECT_EQ(sum, 42u * 16);
}

// ------------------------------------------------- EventQueue properties --
// Random traces against a reference model. Times come from a range of a
// few microseconds, so most pops are decided by the seq tie-break.

/// Appends each fired event's id to one shared log: timer tags and
/// packet `seq` fields carry the id.
struct LogTimer final : TimerTarget {
  std::vector<std::uint64_t>* log;
  explicit LogTimer(std::vector<std::uint64_t>* l) : log(l) {}
  void on_timer(std::uint64_t tag) override { log->push_back(tag); }
};

struct LogTarget final : PacketEventTarget {
  std::vector<std::uint64_t>* log;
  explicit LogTarget(std::vector<std::uint64_t>* l) : log(l) {}
  void deliver_packets(std::span<Packet> packets, net::Ipv4,
                       bool) override {
    for (const Packet& p : packets) log->push_back(p.seq);
  }
};

Packet tagged_packet(std::uint64_t id) {
  Packet p = net::make_tcp(Ipv4(1), 1, Ipv4(2), 2, net::flags_syn());
  p.seq = static_cast<std::uint32_t>(id);
  return p;
}

TEST(EventQueueProperty, RandomTracesMatchSortedReference) {
  struct Pending {
    std::int64_t time;
    std::uint64_t seq;
    std::uint64_t id;
  };
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    EventQueue q;
    std::vector<std::uint64_t> log;
    LogTimer timer(&log);
    LogTarget target(&log);
    std::vector<Pending> ref;  // every pending event, in push order
    std::uint64_t pushed = 0;
    const std::uint64_t pushes = 20 + rng.below(400);
    while (pushed < pushes || !ref.empty()) {
      if (pushed < pushes && (ref.empty() || rng.chance(0.6))) {
        const util::TimePoint t =
            kEpoch + util::usec(static_cast<std::int64_t>(rng.below(4)));
        const std::uint64_t id = pushed;
        switch (rng.below(3)) {
          case 0:
            q.push(t, [&log, id] { log.push_back(id); });
            break;
          case 1:
            q.push_timer(t, &timer, id);
            break;
          default:
            q.push_packet(t, t - kEpoch, &target, tagged_packet(id),
                          Ipv4(9), true);
            break;
        }
        ref.push_back({t.usec, pushed, id});
        ++pushed;
        continue;
      }
      const auto it = std::min_element(
          ref.begin(), ref.end(), [](const Pending& a, const Pending& b) {
            return std::tie(a.time, a.seq) < std::tie(b.time, b.seq);
          });
      const Pending want = *it;
      ref.erase(it);
      ASSERT_EQ(q.size(), ref.size() + 1);
      ASSERT_EQ(q.next_time().usec, want.time);
      ASSERT_EQ(q.top().seq, want.seq);
      if (rng.chance(0.5)) {
        q.drop_top();
      } else {
        q.pop().fire();
        ASSERT_FALSE(log.empty());
        ASSERT_EQ(log.back(), want.id);
      }
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueueProperty, LanesMatchSortedReference) {
  // Packet pushes take one of up to six delays (the queue has four
  // lanes), usually `delay` after a clock that only moves forward, so
  // most land in their delay's lane; a fifth are pushed up to 2 us early,
  // often below their lane's tail, which sends them to the heap. Timers
  // and callbacks always take the heap. Times span a few microseconds,
  // so ties are the rule.
  struct Pending {
    std::int64_t time;
    std::uint64_t seq;
    std::uint64_t id;
  };
  std::size_t max_pending = 0;
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    EventQueue q;
    std::vector<std::uint64_t> log;
    LogTimer timer(&log);
    LogTarget target(&log);
    std::vector<std::int64_t> delays(1 + rng.below(6));
    for (std::int64_t& d : delays) {
      d = static_cast<std::int64_t>(rng.below(5));
    }
    // Deep traces (push-heavy) wrap and grow the lane rings.
    const double push_chance = 0.5 + 0.1 * static_cast<double>(rng.below(5));
    std::vector<Pending> ref;  // every pending event, in push order
    std::int64_t now = 0;      // time of the last pop
    std::uint64_t pushed = 0;
    const std::uint64_t pushes = 20 + rng.below(600);
    while (pushed < pushes || !ref.empty()) {
      if (pushed < pushes && (ref.empty() || rng.chance(push_chance))) {
        const std::uint64_t id = pushed;
        std::int64_t at = now + static_cast<std::int64_t>(rng.below(3));
        const std::uint64_t kind = rng.below(5);
        if (kind == 0) {
          q.push(kEpoch + util::usec(at), [&log, id] { log.push_back(id); });
        } else if (kind == 1) {
          q.push_timer(kEpoch + util::usec(at), &timer, id);
        } else {
          const std::int64_t delay = delays[rng.below(delays.size())];
          at = now + delay;
          if (rng.chance(0.2)) {
            at -= static_cast<std::int64_t>(rng.below(3));  // below the tail
          }
          q.push_packet(kEpoch + util::usec(at), util::usec(delay), &target,
                        tagged_packet(id), Ipv4(9), true);
        }
        ref.push_back({at, pushed, id});
        ++pushed;
        ASSERT_EQ(q.size(), ref.size());
        max_pending = std::max(max_pending, ref.size());
        continue;
      }
      const auto it = std::min_element(
          ref.begin(), ref.end(), [](const Pending& a, const Pending& b) {
            return std::tie(a.time, a.seq) < std::tie(b.time, b.seq);
          });
      const Pending want = *it;
      ref.erase(it);
      ASSERT_EQ(q.next_time().usec, want.time);
      ASSERT_EQ(q.top().seq, want.seq);
      now = want.time;
      if (rng.chance(0.5)) {
        q.drop_top();
      } else {
        q.pop().fire();
        ASSERT_FALSE(log.empty());
        ASSERT_EQ(log.back(), want.id);
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    EXPECT_TRUE(q.empty());
  }
  EXPECT_GT(max_pending, 200u);  // some lane rings grew past their start
}

TEST(EventQueueProperty, SlotsMatchSortedReference) {
  // Pacing-slot timers mixed with heap timers, callbacks and lane
  // packets. A slot push names one of the slots or kSlots (no slot); one
  // into a busy slot or kSlots goes to the heap. Every push lands 0-2 us
  // after the clock, so same-usec ties across slots, heap and lanes are
  // the rule.
  constexpr std::size_t kSlots = EventQueue::kSlots;
  struct Pending {
    std::int64_t time;
    std::uint64_t seq;
    std::uint64_t id;
    std::size_t slot;  ///< the slot it occupies, or kSlots
  };
  std::uint64_t slotted = 0;  // slot pushes that found their slot free
  std::uint64_t spilled = 0;  // slot pushes sent to the heap
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    EventQueue q;
    std::vector<std::uint64_t> log;
    LogTimer timer(&log);
    LogTarget target(&log);
    std::array<bool, kSlots> busy{};
    std::vector<Pending> ref;  // every pending event, in push order
    std::int64_t now = 0;      // time of the last pop
    std::uint64_t pushed = 0;
    const std::uint64_t pushes = 20 + rng.below(600);
    while (pushed < pushes || !ref.empty()) {
      if (pushed < pushes && (ref.empty() || rng.chance(0.6))) {
        const std::uint64_t id = pushed;
        const auto delay = static_cast<std::int64_t>(rng.below(3));
        const util::TimePoint t = kEpoch + util::usec(now + delay);
        std::size_t slot = kSlots;
        switch (rng.below(4)) {
          case 0: {
            const std::size_t want = rng.below(kSlots + 1);
            q.push_slot_timer(want, t, &timer, id);
            if (want < kSlots && !busy[want]) {
              busy[want] = true;
              slot = want;
              ++slotted;
            } else {
              ++spilled;
            }
            break;
          }
          case 1:
            q.push_timer(t, &timer, id);
            break;
          case 2:
            q.push(t, [&log, id] { log.push_back(id); });
            break;
          default:
            q.push_packet(t, util::usec(delay), &target, tagged_packet(id),
                          Ipv4(9), true);
            break;
        }
        ref.push_back({now + delay, pushed, id, slot});
        ++pushed;
        ASSERT_EQ(q.size(), ref.size());
        continue;
      }
      const auto it = std::min_element(
          ref.begin(), ref.end(), [](const Pending& a, const Pending& b) {
            return std::tie(a.time, a.seq) < std::tie(b.time, b.seq);
          });
      const Pending want = *it;
      ref.erase(it);
      ASSERT_EQ(q.next_time().usec, want.time);
      ASSERT_EQ(q.top().seq, want.seq);
      if (want.slot < kSlots) busy[want.slot] = false;
      now = want.time;
      if (rng.chance(0.5)) {
        q.drop_top();
      } else {
        q.pop().fire();
        ASSERT_FALSE(log.empty());
        ASSERT_EQ(log.back(), want.id);
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    EXPECT_TRUE(q.empty());
  }
  EXPECT_GT(slotted, 1000u);
  EXPECT_GT(spilled, 1000u);
}

/// Ids below this are scheduled up front; larger ones are follow-ups.
constexpr std::uint64_t kFirstGeneration = 300;

/// Logs every timer and packet it receives, like LogTimer/LogTarget.
/// Each up-front event whose id is a multiple of 3 schedules a follow-up
/// of the other kind at the current instant, the case coalescing must
/// not reorder.
struct FollowUpNode final : TimerTarget, PacketEventTarget {
  FollowUpNode(Simulator* s, std::vector<std::uint64_t>* l,
               std::uint64_t* next)
      : sim(s), log(l), next_id(next) {}
  void on_timer(std::uint64_t tag) override {
    log->push_back(tag);
    if (tag < kFirstGeneration && tag % 3 == 0) {
      sim->after_packet(util::usec(0), this, tagged_packet((*next_id)++),
                        Ipv4(9), true);
    }
  }
  void deliver_packets(std::span<Packet> packets, net::Ipv4,
                       bool) override {
    if (packets.size() > 1) batched += packets.size();
    for (const Packet& p : packets) {
      log->push_back(p.seq);
      if (p.seq < kFirstGeneration && p.seq % 3 == 0) {
        sim->after_timer(util::usec(0), this, (*next_id)++);
      }
    }
  }
  Simulator* sim;
  std::vector<std::uint64_t>* log;
  std::uint64_t* next_id;
  std::size_t batched{0};  ///< packets delivered in batches of > 1
};

TEST(EventQueueProperty, RunAndStepFireTheSameSequence) {
  // One random schedule, replayed twice: run() coalesces same-time
  // deliveries into batches, step() fires one event at a time.
  std::size_t batched = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    const auto replay = [seed, &batched](bool stepwise) {
      Simulator sim;
      std::vector<std::uint64_t> log;
      std::uint64_t next_id = kFirstGeneration;
      std::array<FollowUpNode, 2> nodes{FollowUpNode(&sim, &log, &next_id),
                                        FollowUpNode(&sim, &log, &next_id)};
      util::Rng rng(seed);
      for (std::uint64_t id = 0; id < kFirstGeneration; ++id) {
        const util::Duration at =
            util::usec(static_cast<std::int64_t>(rng.below(6)));
        FollowUpNode& node = nodes[rng.below(2)];
        switch (rng.below(4)) {
          case 0:
            sim.after(at, [&log, id] { log.push_back(id); });
            break;
          case 1:
            sim.after_timer(at, &node, id);
            break;
          default:
            // Few distinct (target, external, crossed) triples, so
            // same-time deliveries often share one and coalesce.
            sim.after_packet(at, &node, tagged_packet(id),
                             Ipv4(9 + rng.below(2)), rng.chance(0.8));
            break;
        }
      }
      if (stepwise) {
        while (sim.step()) {
        }
      } else {
        sim.run();
        batched += nodes[0].batched + nodes[1].batched;
      }
      EXPECT_EQ(sim.events_processed(), log.size());
      return log;
    };
    EXPECT_EQ(replay(false), replay(true));
  }
  EXPECT_GT(batched, 0u);  // coalescing was actually exercised
}

TEST(Simulator, CoalescesSameTimeDeliveriesToOneTarget) {
  Simulator sim;
  RecordingTarget a;
  RecordingTarget b;
  const Packet p = net::make_tcp(Ipv4(1), 1, Ipv4(2), 2, net::flags_syn());
  // Three packets for `a` and one for `b`, all due at the same instant:
  // a's run coalesces into one batch of 3; b's is its own batch.
  sim.after_packet(seconds(5), &a, p, Ipv4(9), true);
  sim.after_packet(seconds(5), &a, p, Ipv4(9), true);
  sim.after_packet(seconds(5), &a, p, Ipv4(9), true);
  sim.after_packet(seconds(5), &b, p, Ipv4(9), true);
  sim.run();
  EXPECT_EQ(a.batch_sizes, (std::vector<std::size_t>{3}));
  EXPECT_EQ(b.batch_sizes, (std::vector<std::size_t>{1}));
  EXPECT_EQ(sim.events_processed(), 4u);
}

TEST(Simulator, DifferentMetadataNotCoalesced) {
  Simulator sim;
  RecordingTarget a;
  const Packet p = net::make_tcp(Ipv4(1), 1, Ipv4(2), 2, net::flags_syn());
  sim.after_packet(seconds(5), &a, p, Ipv4(9), true);
  sim.after_packet(seconds(5), &a, p, Ipv4(9), false);  // crossed differs
  sim.after_packet(seconds(6), &a, p, Ipv4(9), true);   // time differs
  sim.run();
  EXPECT_EQ(a.batch_sizes, (std::vector<std::size_t>{1, 1, 1}));
}

// ------------------------------------------------------------- Simulator --

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  util::TimePoint seen{};
  sim.after(seconds(10), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, kEpoch + seconds(10));
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(kEpoch + hours(2));
  EXPECT_EQ(sim.now(), kEpoch + hours(2));
}

TEST(Simulator, RunUntilDoesNotRunLaterEvents) {
  Simulator sim;
  bool early = false, late = false;
  sim.at(kEpoch + seconds(1), [&] { early = true; });
  sim.at(kEpoch + seconds(100), [&] { late = true; });
  sim.run_until(kEpoch + seconds(50));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.run_until(kEpoch + seconds(10));
  util::TimePoint seen{};
  sim.at(kEpoch + seconds(1), [&] { seen = sim.now(); });  // in the past
  sim.run();
  EXPECT_EQ(seen, kEpoch + seconds(10));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) sim.after(seconds(1), step);
  };
  sim.after(seconds(1), step);
  sim.run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.now(), kEpoch + seconds(5));
  EXPECT_EQ(sim.events_processed(), 5u);
}

// ---------------------------------------------------------- BorderRouter --

TEST(BorderRouter, StablePeeringChoice) {
  BorderRouter border;
  border.add_peering("a", 0.5);
  border.add_peering("b", 0.5);
  const Ipv4 ext = Ipv4::from_octets(7, 7, 7, 7);
  const std::size_t first = border.default_peering_for(ext);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(border.default_peering_for(ext), first);
  }
}

TEST(BorderRouter, WeightsShapeDistribution) {
  BorderRouter border;
  border.add_peering("heavy", 0.9);
  border.add_peering("light", 0.1);
  int heavy = 0;
  constexpr int kHosts = 5000;
  for (int i = 0; i < kHosts; ++i) {
    const Ipv4 ext(0x10000000u + static_cast<std::uint32_t>(i) * 977u);
    heavy += border.default_peering_for(ext) == 0;
  }
  EXPECT_NEAR(heavy, kHosts * 0.9, kHosts * 0.05);
}

TEST(BorderRouter, RejectsBadWeight) {
  BorderRouter border;
  EXPECT_THROW(border.add_peering("zero", 0.0), std::invalid_argument);
}

class RecordingObserver : public PacketObserver {
 public:
  void observe(const Packet& p) override { seen.push_back(p); }
  std::vector<Packet> seen;
};

TEST(BorderRouter, TapsSeeOnlyTheirPeering) {
  BorderRouter border;
  border.add_peering("a", 1.0);
  border.add_peering("b", 1.0);
  RecordingObserver tap_a, tap_b;
  border.add_tap(0, &tap_a);
  border.add_tap(1, &tap_b);
  border.set_policy([](Ipv4 ext) { return ext.value() % 2; });

  const Ipv4 internal = Ipv4::from_octets(128, 125, 0, 1);
  const Ipv4 even(0x01000002), odd(0x01000003);
  border.carry(net::make_tcp(even, 1, internal, 80, net::flags_syn()), even);
  border.carry(net::make_tcp(odd, 1, internal, 80, net::flags_syn()), odd);
  EXPECT_EQ(tap_a.seen.size(), 1u);
  EXPECT_EQ(tap_b.seen.size(), 1u);
  EXPECT_EQ(border.peering(0).packets, 1u);
  EXPECT_EQ(border.peering(1).packets, 1u);
}

// -------------------------------------------------------------- Network --

class SinkRecorder : public PacketSink {
 public:
  void on_packet(const Packet& p) override { received.push_back(p); }
  std::vector<Packet> received;
};

struct NetworkFixture : ::testing::Test {
  NetworkFixture()
      : network(sim, {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16)}) {}
  Simulator sim;
  Network network;
  const Ipv4 internal_addr = Ipv4::from_octets(128, 125, 1, 1);
  const Ipv4 external_addr = Ipv4::from_octets(66, 1, 1, 1);
};

TEST_F(NetworkFixture, DeliversToAttachedSink) {
  SinkRecorder sink;
  network.attach(internal_addr, &sink);
  network.send(net::make_tcp(external_addr, 1234, internal_addr, 80,
                             net::flags_syn()));
  sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].dport, 80);
  EXPECT_EQ(network.packets_delivered(), 1u);
}

TEST_F(NetworkFixture, StampsDeliveryTime) {
  SinkRecorder sink;
  network.attach(internal_addr, &sink);
  network.set_external_latency(msec(20));
  network.send(net::make_tcp(external_addr, 1, internal_addr, 80,
                             net::flags_syn()));
  sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].time, kEpoch + msec(20));
}

TEST_F(NetworkFixture, DropsToUnattachedAddress) {
  network.send(net::make_tcp(external_addr, 1, internal_addr, 80,
                             net::flags_syn()));
  sim.run();
  EXPECT_EQ(network.packets_dropped(), 1u);
}

TEST_F(NetworkFixture, DetachRespectsOwner) {
  SinkRecorder old_owner, new_owner;
  network.attach(internal_addr, &old_owner);
  network.attach(internal_addr, &new_owner);  // address reuse
  network.detach(internal_addr, &old_owner);  // stale detach: no-op
  EXPECT_EQ(network.owner(internal_addr), &new_owner);
  network.detach(internal_addr, &new_owner);
  EXPECT_EQ(network.owner(internal_addr), nullptr);
}

TEST_F(NetworkFixture, InternalClassification) {
  EXPECT_TRUE(network.is_internal(internal_addr));
  EXPECT_FALSE(network.is_internal(external_addr));
}

TEST_F(NetworkFixture, BorderTapSeesCrossingTraffic) {
  network.border().add_peering("only", 1.0);
  RecordingObserver tap;
  network.border().add_tap(0, &tap);
  SinkRecorder sink;
  network.attach(internal_addr, &sink);

  network.send(net::make_tcp(external_addr, 1, internal_addr, 80,
                             net::flags_syn()));
  sim.run();
  ASSERT_EQ(tap.seen.size(), 1u);
  // Tap sees the packet with its delivery timestamp set.
  EXPECT_GT(tap.seen[0].time.usec, 0);
}

TEST_F(NetworkFixture, InternalTrafficInvisibleToBorder) {
  network.border().add_peering("only", 1.0);
  RecordingObserver tap;
  network.border().add_tap(0, &tap);
  SinkRecorder sink;
  const Ipv4 other_internal = Ipv4::from_octets(128, 125, 2, 2);
  network.attach(other_internal, &sink);

  // Internal probe: crosses no border, invisible to the tap.
  network.send(net::make_tcp(internal_addr, 1, other_internal, 22,
                             net::flags_syn()));
  sim.run();
  EXPECT_TRUE(tap.seen.empty());
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST_F(NetworkFixture, OutboundCrossingAlsoObserved) {
  network.border().add_peering("only", 1.0);
  RecordingObserver tap;
  network.border().add_tap(0, &tap);
  // SYN-ACK from an internal server to an external client.
  network.send(net::make_tcp(internal_addr, 80, external_addr, 1234,
                             net::flags_syn_ack()));
  sim.run();
  ASSERT_EQ(tap.seen.size(), 1u);
  EXPECT_TRUE(tap.seen[0].flags.is_syn_ack());
}

TEST_F(NetworkFixture, InternalLatencyShorterThanExternal) {
  SinkRecorder internal_sink, far_sink;
  const Ipv4 other = Ipv4::from_octets(128, 125, 3, 3);
  network.attach(other, &internal_sink);
  network.attach(internal_addr, &far_sink);
  network.set_internal_latency(msec(1));
  network.set_external_latency(msec(50));
  network.send(net::make_tcp(internal_addr, 1, other, 2, net::flags_syn()));
  network.send(net::make_tcp(external_addr, 1, internal_addr, 2,
                             net::flags_syn()));
  sim.run();
  ASSERT_EQ(internal_sink.received.size(), 1u);
  ASSERT_EQ(far_sink.received.size(), 1u);
  EXPECT_EQ(internal_sink.received[0].time, kEpoch + msec(1));
  EXPECT_EQ(far_sink.received[0].time, kEpoch + msec(50));
}

// --------------------------------------------------------- Network owners --
// Per-address owners live in a dense table inside internal prefixes of
// length >= /16 and in a hash map elsewhere; prefix owners back both.

TEST(NetworkOwners, AttachReplaceDetachInsideDensePrefix) {
  Simulator sim;
  Network network(sim, {Prefix(Ipv4::from_octets(10, 0, 0, 0), 16)});
  SinkRecorder a, b;
  const Ipv4 first = Ipv4::from_octets(10, 0, 0, 0);
  const Ipv4 last = Ipv4::from_octets(10, 0, 255, 255);
  EXPECT_EQ(network.owner(first), nullptr);
  network.attach(first, &a);
  network.attach(last, &a);
  EXPECT_EQ(network.owner(first), &a);
  EXPECT_EQ(network.owner(last), &a);
  EXPECT_EQ(network.owner(Ipv4::from_octets(10, 0, 0, 1)), nullptr);
  network.attach(last, &b);  // replace
  EXPECT_EQ(network.owner(last), &b);
  network.detach(last, &b);
  EXPECT_EQ(network.owner(last), nullptr);
  EXPECT_EQ(network.owner(first), &a);
}

TEST(NetworkOwners, DetachByNonOwnerIsNoOp) {
  Simulator sim;
  Network network(sim, {Prefix(Ipv4::from_octets(10, 0, 0, 0), 16)});
  SinkRecorder owner, other;
  const Ipv4 dense = Ipv4::from_octets(10, 0, 3, 4);
  const Ipv4 stray = Ipv4::from_octets(66, 1, 1, 1);
  network.attach(dense, &owner);
  network.attach(stray, &owner);
  network.detach(dense, &other);
  network.detach(stray, &other);
  network.detach(Ipv4::from_octets(10, 0, 3, 5), &other);  // unowned
  EXPECT_EQ(network.owner(dense), &owner);
  EXPECT_EQ(network.owner(stray), &owner);
  EXPECT_EQ(network.owner(Ipv4::from_octets(10, 0, 3, 5)), nullptr);
}

TEST(NetworkOwners, PerAddressAttachBeatsPrefixOwnerOfInternalBlock) {
  const Prefix block(Ipv4::from_octets(10, 0, 0, 0), 16);
  Simulator sim;
  Network network(sim, {block});
  SinkRecorder universe, host;
  network.attach_prefix(block, &universe);
  const Ipv4 carved = Ipv4::from_octets(10, 0, 7, 7);
  EXPECT_EQ(network.owner(carved), &universe);
  network.attach(carved, &host);
  EXPECT_EQ(network.owner(carved), &host);
  EXPECT_EQ(network.owner(Ipv4::from_octets(10, 0, 7, 8)), &universe);
  network.detach(carved, &host);
  EXPECT_EQ(network.owner(carved), &universe);

  network.send(net::make_tcp(Ipv4::from_octets(66, 1, 1, 1), 1, carved, 80,
                             net::flags_syn()));
  network.attach(carved, &host);
  sim.run();
  EXPECT_EQ(host.received.size(), 1u);
  EXPECT_TRUE(universe.received.empty());
}

TEST(NetworkOwners, AddressOutsideInternalPrefixesUsesTheMap) {
  Simulator sim;
  Network network(sim, {Prefix(Ipv4::from_octets(10, 0, 0, 0), 16)});
  SinkRecorder external, block_owner;
  const Ipv4 outside = Ipv4::from_octets(66, 1, 1, 1);
  network.attach_prefix(Prefix(Ipv4::from_octets(66, 1, 0, 0), 16),
                        &block_owner);
  EXPECT_EQ(network.owner(outside), &block_owner);
  network.attach(outside, &external);
  EXPECT_EQ(network.owner(outside), &external);
  EXPECT_EQ(network.owner(Ipv4::from_octets(66, 1, 1, 2)), &block_owner);
  network.detach(outside, &external);
  EXPECT_EQ(network.owner(outside), &block_owner);
}

TEST(NetworkOwners, ShortInternalPrefixTakesTheMapPath) {
  // A /8 would need a 16M-entry table; its owners stay in the map and
  // behave exactly as in a dense prefix.
  const Prefix wide(Ipv4::from_octets(20, 0, 0, 0), 8);
  Simulator sim;
  Network network(sim, {wide, Prefix(Ipv4::from_octets(10, 0, 0, 0), 16)});
  SinkRecorder a, b, block_owner;
  const Ipv4 addr = Ipv4::from_octets(20, 200, 1, 1);
  network.attach(addr, &a);
  EXPECT_EQ(network.owner(addr), &a);
  network.attach(addr, &b);
  network.detach(addr, &a);  // stale
  EXPECT_EQ(network.owner(addr), &b);
  network.attach_prefix(wide, &block_owner);
  EXPECT_EQ(network.owner(addr), &b);
  network.detach(addr, &b);
  EXPECT_EQ(network.owner(addr), &block_owner);
  EXPECT_TRUE(network.is_internal(addr));
}

// ------------------------------------------------------- Simulator lanes --
// Packet deliveries ride FIFO lanes keyed by their delay; these pin that
// the simulator's observable order is still ascending (time, seq).

TEST(SimulatorLanes, LatencyChangeMidRunKeepsDeliveryOrder) {
  // Internal sends every 500 us while the latency steps 5 ms -> 1 ms ->
  // 5 ms, plus crossing sends at 20 ms: 1 ms deliveries overtake pending
  // 5 ms ones, and many pairs arrive at the same instant. Deliveries must
  // come in ascending (arrival, send order), send order being the seq.
  Simulator sim;
  Network network(sim, {Prefix(Ipv4::from_octets(128, 125, 0, 0), 16)});
  network.set_external_latency(msec(20));
  SinkRecorder sink;
  const Ipv4 dst = Ipv4::from_octets(128, 125, 1, 1);
  const Ipv4 src = Ipv4::from_octets(128, 125, 2, 2);
  const Ipv4 outside = Ipv4::from_octets(66, 1, 1, 1);
  network.attach(dst, &sink);

  struct Sent {
    std::int64_t arrival;
    std::uint32_t id;
  };
  std::vector<Sent> sent;
  util::Duration latency = msec(5);
  for (std::uint32_t id = 0; id < 300; ++id) {
    const util::Duration at = util::usec(500 * static_cast<std::int64_t>(id));
    if (id == 100) latency = msec(1);
    if (id == 200) latency = msec(5);
    const bool crossing = id % 7 == 3;
    const util::Duration path = crossing ? msec(20) : latency;
    sim.after(at, [&network, &sink, dst, src, outside, id, latency,
                   crossing] {
      network.set_internal_latency(latency);
      Packet p = net::make_tcp(crossing ? outside : src, 1, dst, 80,
                               net::flags_syn());
      p.seq = id;
      network.send(p);
    });
    sent.push_back({(at + path).usec, id});
  }
  sim.run();

  std::stable_sort(sent.begin(), sent.end(), [](const Sent& a, const Sent& b) {
    return a.arrival < b.arrival;
  });
  ASSERT_EQ(sink.received.size(), sent.size());
  std::size_t ties = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(sink.received[i].seq, sent[i].id) << "delivery " << i;
    EXPECT_EQ(sink.received[i].time.usec, (kEpoch.usec + sent[i].arrival))
        << "delivery " << i;
    if (i > 0 && sent[i].arrival == sent[i - 1].arrival) ++ties;
  }
  EXPECT_GT(ties, 0u);  // same-instant arrivals were exercised
}

/// Logs every delivery and timer, and answers each first-generation
/// delivery with deliveries of its own at random delays from a set wider
/// than the queue's lane count.
struct EchoNode final : TimerTarget, PacketEventTarget {
  EchoNode(Simulator* s, std::vector<std::uint64_t>* l, std::uint64_t* next,
           util::Rng* r)
      : sim(s), log(l), next_id(next), rng(r) {}
  void on_timer(std::uint64_t tag) override { log->push_back(tag); }
  void deliver_packets(std::span<Packet> packets, net::Ipv4,
                       bool) override {
    for (const Packet& p : packets) {
      log->push_back(p.seq);
      if (p.seq >= kFirstGeneration) continue;
      for (std::uint64_t n = rng->below(3); n > 0; --n) {
        const std::uint64_t id = (*next_id)++;
        if (rng->chance(0.2)) {
          sim->after_timer(util::usec(static_cast<std::int64_t>(
                               rng->below(4))),
                           this, id);
        } else {
          sim->after_packet(
              util::usec(static_cast<std::int64_t>(rng->below(6))), this,
              tagged_packet(id), Ipv4(9), true);
        }
      }
    }
  }
  Simulator* sim;
  std::vector<std::uint64_t>* log;
  std::uint64_t* next_id;
  util::Rng* rng;
};

TEST(SimulatorLanes, RunAndStepFireTheSameSequence) {
  // Six delivery delays against four lanes: some delays find no free
  // lane and take the heap, and lanes are rekeyed as they drain. run()
  // (coalescing) and step() must still fire one sequence.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE(seed);
    const auto replay = [seed](bool stepwise) {
      Simulator sim;
      std::vector<std::uint64_t> log;
      std::uint64_t next_id = kFirstGeneration;
      util::Rng rng(seed);
      EchoNode node(&sim, &log, &next_id, &rng);
      for (std::uint64_t id = 0; id < kFirstGeneration; ++id) {
        const util::Duration at =
            util::usec(static_cast<std::int64_t>(rng.below(8)));
        if (rng.chance(0.2)) {
          sim.after_timer(at, &node, id);
        } else {
          sim.after_packet(at, &node, tagged_packet(id), Ipv4(9), true);
        }
      }
      if (stepwise) {
        while (sim.step()) {
        }
      } else {
        sim.run();
      }
      EXPECT_EQ(sim.events_processed(), log.size());
      return log;
    };
    const std::vector<std::uint64_t> run = replay(false);
    EXPECT_GT(run.size(), kFirstGeneration);
    EXPECT_EQ(run, replay(true));
  }
}

TEST(SimulatorLanes, QueueDepthGaugeCountsLaneEvents) {
  Simulator sim;
  util::MetricsRegistry registry;
  sim.attach_metrics(registry, "sim");
  RecordingTarget target;
  RecordingTimer timer;
  const Packet p = net::make_tcp(Ipv4(1), 1, Ipv4(2), 2, net::flags_syn());
  // 100 deliveries in one lane, 50 in another, 10 timers in the heap.
  for (int i = 0; i < 100; ++i) {
    sim.after_packet(msec(1), &target, p, Ipv4(9), true);
  }
  for (int i = 0; i < 50; ++i) {
    sim.after_packet(msec(20), &target, p, Ipv4(9), true);
  }
  for (int i = 0; i < 10; ++i) sim.after_timer(msec(5), &timer, 0);
  EXPECT_EQ(sim.pending(), 160u);
  EXPECT_EQ(registry.snapshot().value_of("sim.queue_depth_hwm"), 160.0);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 160u);
  EXPECT_EQ(target.delivered.size(), 150u);
  EXPECT_EQ(registry.snapshot().value_of("sim.queue_depth_hwm"), 160.0);
}

TEST(SimulatorSlots, ReservationFallsBackToTheHeapWhenSlotsRunOut) {
  Simulator sim;
  util::MetricsRegistry registry;
  sim.attach_metrics(registry, "sim");
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < EventQueue::kSlots; ++i) {
    slots.push_back(sim.reserve_pacing_slot());
    EXPECT_LT(slots.back(), Simulator::kNoPacingSlot);
  }
  std::sort(slots.begin(), slots.end());
  EXPECT_EQ(std::adjacent_find(slots.begin(), slots.end()), slots.end());
  EXPECT_EQ(sim.reserve_pacing_slot(), Simulator::kNoPacingSlot);

  // One tick per slot plus one through the failed reservation, all at
  // one instant behind a heap timer: they fire in push order.
  RecordingTimer timer;
  sim.at_timer(kEpoch + msec(1), &timer, 0);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    sim.at_pacing_timer(slots[slots.size() - 1 - i], kEpoch + msec(1), &timer,
                        i + 1);
  }
  sim.at_pacing_timer(Simulator::kNoPacingSlot, kEpoch + msec(1), &timer, 5);
  EXPECT_EQ(sim.pending(), 6u);
  EXPECT_EQ(registry.snapshot().value_of("sim.queue_depth_hwm"), 6.0);
  sim.run();
  EXPECT_EQ(timer.tags, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5}));

  sim.release_pacing_slot(Simulator::kNoPacingSlot);  // no-op
  sim.release_pacing_slot(slots[2]);
  EXPECT_EQ(sim.reserve_pacing_slot(), slots[2]);
  EXPECT_EQ(sim.reserve_pacing_slot(), Simulator::kNoPacingSlot);
}

}  // namespace
}  // namespace svcdisc::sim
