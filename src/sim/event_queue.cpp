#include "sim/event_queue.h"

#include <bit>
#include <utility>

namespace svcdisc::sim {

Event& EventQueue::emplace(util::TimePoint t) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Event& ev = slab_[slot];
  ev.time = t;
  ev.seq = next_seq_++;
  heap_.push_back(Key{t, ev.seq, slot});
  sift_up(heap_.size() - 1);
  note_pushed(t, kHeap);
  return ev;
}

void EventQueue::note_pushed(util::TimePoint t, std::size_t source) {
  // The new event has the largest seq, so it precedes the cached earliest
  // only with a strictly earlier time; then it precedes every event, and
  // is the top of the heap, the front of its (previously empty) lane or
  // the timer of its (previously empty) slot.
  if (size_++ == 0 || t < top().time) best_ = source;
}

void EventQueue::push(util::TimePoint t, util::SmallFn fn) {
  Event& ev = emplace(t);
  ev.kind = Event::Kind::kCallback;
  ev.fn = std::move(fn);
}

void EventQueue::push_timer(util::TimePoint t, TimerTarget* target,
                            std::uint64_t tag) {
  Event& ev = emplace(t);
  ev.kind = Event::Kind::kTimer;
  ev.pod.timer = {target, tag};
}

std::size_t EventQueue::reserve_slot() {
  const std::uint32_t free = ~slots_reserved_ & ((1u << kSlots) - 1);
  if (free == 0) return kSlots;
  const auto slot = static_cast<std::size_t>(std::countr_zero(free));
  slots_reserved_ |= 1u << slot;
  return slot;
}

void EventQueue::release_slot(std::size_t slot) {
  // A timer still pending in the slot fires from it; a later holder's
  // push finds the slot busy and takes the heap until then.
  if (slot < kSlots) slots_reserved_ &= ~(1u << slot);
}

void EventQueue::push_slot_timer(std::size_t slot, util::TimePoint t,
                                 TimerTarget* target, std::uint64_t tag) {
  if (slot >= kSlots || (slots_pending_ & (1u << slot)) != 0) {
    push_timer(t, target, tag);
    return;
  }
  // A slot holds one event, trivially sorted, so the merge in
  // select_best keeps the (time, seq) order.
  Event& ev = slots_[slot];
  ev.time = t;
  ev.seq = next_seq_++;
  ev.kind = Event::Kind::kTimer;
  ev.pod.timer = {target, tag};
  slots_pending_ |= 1u << slot;
  note_pushed(t, kSlot0 + slot);
}

Event& EventQueue::Lane::push_back() {
  if (count == ring.size()) {
    // Unroll the full ring into a twice-larger one, front at index 0.
    std::vector<Event> grown(ring.empty() ? 16 : 2 * ring.size());
    for (std::size_t i = 0; i < count; ++i) {
      grown[i] = std::move(ring[(head + i) & (ring.size() - 1)]);
    }
    ring = std::move(grown);
    head = 0;
  }
  return ring[(head + count++) & (ring.size() - 1)];
}

EventQueue::Lane* EventQueue::lane_for(util::TimePoint t,
                                       util::Duration delay) {
  Lane* empty = nullptr;
  for (Lane& lane : lanes_) {
    if (lane.delay == delay) {
      return lane.count == 0 || lane.back().time <= t ? &lane : nullptr;
    }
    if (empty == nullptr && lane.count == 0) empty = &lane;
  }
  if (empty != nullptr) empty->delay = delay;
  return empty;
}

void EventQueue::push_packet(util::TimePoint t, util::Duration delay,
                             PacketEventTarget* target, const net::Packet& p,
                             net::Ipv4 external, bool crossed) {
  Event* ev;
  if (Lane* lane = lane_for(t, delay)) {
    ev = &lane->push_back();
    ev->time = t;
    ev->seq = next_seq_++;
    note_pushed(t, static_cast<std::size_t>(lane - lanes_.data()));
  } else {
    ev = &emplace(t);
  }
  ev->kind = Event::Kind::kPacket;
  ev->crossed = crossed;
  ev->external = external;
  ev->pod.packet = {target, p};
}

void EventQueue::select_best() {
  best_ = kHeap;
  const Event* best = heap_.empty() ? nullptr : &slab_[heap_[0].slot];
  for (std::size_t i = 0; i < kLanes; ++i) {
    if (lanes_[i].count == 0) continue;
    const Event& front = lanes_[i].front();
    if (best == nullptr || front.time < best->time ||
        (front.time == best->time && front.seq < best->seq)) {
      best = &front;
      best_ = i;
    }
  }
  for (std::uint32_t pending = slots_pending_; pending != 0;
       pending &= pending - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(pending));
    const Event& ev = slots_[i];
    if (best == nullptr || ev.time < best->time ||
        (ev.time == best->time && ev.seq < best->seq)) {
      best = &ev;
      best_ = kSlot0 + i;
    }
  }
}

Event EventQueue::pop() {
  Event& first = best_ == kHeap  ? slab_[heap_[0].slot]
                 : best_ < kLanes ? lanes_[best_].front()
                                  : slots_[best_ - kSlot0];
  Event out = std::move(first);
  drop_top();  // also releases any non-inline callback remnant
  return out;
}

void EventQueue::drop_top() {
  if (best_ == kHeap) {
    const std::uint32_t slot = heap_[0].slot;
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    if (slab_[slot].kind == Event::Kind::kCallback) slab_[slot].fn.reset();
    free_slots_.push_back(slot);
  } else if (best_ < kLanes) {
    lanes_[best_].pop_front();
  } else {
    slots_pending_ &= ~(1u << (best_ - kSlot0));
  }
  --size_;
  select_best();
}

// 4-ary layout: the parent of i is (i - 1) / 4, its children are
// 4i + 1 .. 4i + 4. A shallower tree halves the levels a sift walks, and
// the four sibling keys share one or two cache lines.
void EventQueue::sift_up(std::size_t i) {
  Key key = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void EventQueue::sift_down(std::size_t i) {
  Key key = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], key)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = key;
}

}  // namespace svcdisc::sim
