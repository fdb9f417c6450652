// The per-service client table of exact-mode service records (DESIGN.md
// §15): each client address that sent the service a flow, mapped to the
// time of its latest flow.
//
// Three things read it: size() (the unique-client tally behind weighted
// completeness, §4.1.2), contains(), and the order-free maximum in
// ServiceRecord::last_flow_excluding (retroactive scanner cleaning,
// §4.3). None needs insertion order, so the table keeps none. Most
// services see a handful of clients: up to kInline of them sit inline in
// the 64-byte object; past that, one heap block holds a power-of-two
// array of times followed by one of keys, probed linearly. Clients are
// never removed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/ipv4.h"
#include "util/sim_time.h"

namespace svcdisc::passive {

class ClientTimes {
 public:
  static constexpr std::uint32_t kInline = 4;

  ClientTimes() = default;
  ClientTimes(const ClientTimes& o);
  ClientTimes& operator=(const ClientTimes& o);
  ClientTimes(ClientTimes&& o) noexcept;
  ClientTimes& operator=(ClientTimes&& o) noexcept;
  ~ClientTimes();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool contains(net::Ipv4 client) const;

  /// A flow from `client` at `t`: adds the client, or raises its time to
  /// `t` when that is later.
  void note(net::Ipv4 client, util::TimePoint t) {
    bool added = false;
    std::int64_t& time = find_or_add(client.value(), t.usec, added);
    if (!added && time < t.usec) time = t.usec;
  }
  /// Adds `client` at `t` unless present (its time then stays). True
  /// when added.
  bool insert(net::Ipv4 client, util::TimePoint t) {
    bool added = false;
    find_or_add(client.value(), t.usec, added);
    return added;
  }

  /// Calls fn(client, latest flow time) once per client, in no
  /// particular order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!spilled()) {
      for (std::uint32_t i = 0; i < size_; ++i) {
        fn(net::Ipv4(inline_.keys[i]), util::TimePoint{inline_.times[i]});
      }
      return;
    }
    const std::int64_t* times = block_times();
    const std::uint32_t* keys = block_keys();
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (keys[i] != kFree) fn(net::Ipv4(keys[i]), util::TimePoint{times[i]});
    }
    if (holds_free_key_) {
      fn(net::Ipv4(kFree), util::TimePoint{free_key_time_});
    }
  }

  /// Bytes of the heap block (0 while the clients fit inline).
  std::size_t heap_bytes() const {
    return spilled() ? capacity() * kSlotBytes : 0;
  }

 private:
  /// Key of a free block slot. The client with this address
  /// (255.255.255.255) lives beside the block, in free_key_time_.
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};
  static constexpr std::size_t kSlotBytes =
      sizeof(std::int64_t) + sizeof(std::uint32_t);
  static constexpr std::uint8_t kFirstLog2 = 3;  // 8 slots at the spill

  bool spilled() const { return log2_capacity_ != 0; }
  std::size_t capacity() const { return std::size_t{1} << log2_capacity_; }
  std::int64_t* block_times() const { return block_; }
  std::uint32_t* block_keys() const {
    return reinterpret_cast<std::uint32_t*>(block_ + capacity());
  }
  /// Block clients, the out-of-block one excluded.
  std::size_t block_size() const { return size_ - (holds_free_key_ ? 1 : 0); }
  /// Home slot of `key` in a block of 2^log2 slots (Fibonacci hashing).
  static std::size_t home(std::uint32_t key, std::uint8_t log2) {
    return static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9E3779B97F4A7C15ULL) >> (64 - log2));
  }

  /// The time cell of `key`, adding it at `t` (and setting `added`) when
  /// absent.
  std::int64_t& find_or_add(std::uint32_t key, std::int64_t t, bool& added);
  /// Moves the clients into a fresh block of 2^log2 slots.
  void rebuild(std::uint8_t log2);
  /// Places `key` (absent, not kFree) in a free slot of the block.
  std::int64_t& place(std::uint32_t key, std::int64_t t);
  void release();

  struct Inline {
    std::uint32_t keys[kInline];
    std::int64_t times[kInline];
  };
  union {
    Inline inline_{};
    std::int64_t* block_;  ///< 2^log2_capacity_ times, then as many keys
  };
  std::uint32_t size_{0};
  std::uint8_t log2_capacity_{0};  ///< 0 while inline
  bool holds_free_key_{false};
  std::int64_t free_key_time_{0};
};

static_assert(sizeof(ClientTimes) == 64);

}  // namespace svcdisc::passive
