#include "sim/event_queue.h"

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
  return ev;
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

void EventQueue::push_packet(util::TimePoint t, PacketEventTarget* target,
                             const net::Packet& p, net::Ipv4 external,
                             bool crossed) {
  Event& ev = emplace(t);
  ev.kind = Event::Kind::kPacket;
  ev.crossed = crossed;
  ev.external = external;
  ev.pod.packet = {target, p};
}

std::uint32_t EventQueue::remove_top_key() {
  const std::uint32_t slot = heap_[0].slot;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return slot;
}

Event EventQueue::pop() {
  const std::uint32_t slot = remove_top_key();
  Event out = std::move(slab_[slot]);
  slab_[slot].fn.reset();  // release any non-inline callback remnant
  free_slots_.push_back(slot);
  return out;
}

void EventQueue::drop_top() {
  const std::uint32_t slot = remove_top_key();
  if (slab_[slot].kind == Event::Kind::kCallback) slab_[slot].fn.reset();
  free_slots_.push_back(slot);
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
