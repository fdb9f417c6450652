// The packet plane: address registration, routing, and border crossing.
//
// Network::send() models one-way delivery with a fixed latency per path
// class (intra-campus vs across the border). On delivery the packet is
// stamped with the arrival time, offered to the border taps if it crossed
// the border, and handed to the sink registered for the destination
// address (if any; otherwise it is dropped silently, like a packet to an
// unused address).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/ipv4.h"
#include "net/packet.h"
#include "sim/border_router.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace svcdisc::sim {

class Network final : public PacketEventTarget {
 public:
  /// `internal` lists the campus prefixes; everything else is "the
  /// Internet".
  Network(Simulator& sim, std::vector<net::Prefix> internal);

  /// Registers `sink` as the owner of `addr`. A later attach for the same
  /// address replaces the earlier one (address reuse in dynamic pools).
  /// `sink` must be non-null. Inside an internal prefix of length >= /16
  /// the owner goes into that prefix's dense table, allocated on the
  /// first attach into it.
  void attach(net::Ipv4 addr, PacketSink* sink);
  /// Unregisters `addr` if owned by `sink` (no-op otherwise, so a host
  /// releasing a reassigned lease cannot evict the new owner).
  void detach(net::Ipv4 addr, const PacketSink* sink);
  /// Registers `sink` as the owner of every address in `prefix` that has
  /// no per-address owner. One entry routes an arbitrarily large block —
  /// the scale universes use this so a /8 of probe-able addresses costs
  /// one vector slot instead of 16M map entries. Per-address attach()
  /// always wins (checked first), so individual hosts can still be
  /// carved out of an owned block.
  void attach_prefix(net::Prefix prefix, PacketSink* sink);
  /// Current owner of `addr`, or nullptr.
  PacketSink* owner(net::Ipv4 addr) const;

  /// True when `addr` is inside a campus prefix.
  bool is_internal(net::Ipv4 addr) const;

  /// Sends `p`, scheduling delivery after the appropriate latency.
  /// Border-crossing packets are observed by the chosen peering's taps at
  /// delivery time.
  void send(net::Packet p);

  // PacketEventTarget — invoked by the simulator at delivery time, with
  // same-timestamp deliveries coalesced into one span.
  void deliver_packets(std::span<net::Packet> packets, net::Ipv4 external,
                       bool crossed) override;

  BorderRouter& border() { return border_; }
  const BorderRouter& border() const { return border_; }
  Simulator& simulator() { return sim_; }

  /// One-way latencies (defaults: 1 ms on campus, 20 ms across the
  /// border).
  void set_internal_latency(util::Duration d) { internal_latency_ = d; }
  void set_external_latency(util::Duration d) { external_latency_ = d; }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t packets_dropped() const { return packets_dropped_; }

 private:
  /// Per-address owners of one internal prefix of length >= /16
  /// (kDenseMaxHostBits host bits at most), indexed by offset from the
  /// prefix base. `owners` stays empty until the first attach() into the
  /// prefix, so a block routed only through attach_prefix() costs nothing.
  struct DenseBlock {
    net::Prefix prefix;
    std::vector<PacketSink*> owners;
  };
  static constexpr int kDenseMaxHostBits = 16;

  /// The first dense block containing `addr`, or nullptr.
  const DenseBlock* dense_block(net::Ipv4 addr) const;
  DenseBlock* dense_block(net::Ipv4 addr) {
    return const_cast<DenseBlock*>(std::as_const(*this).dense_block(addr));
  }

  Simulator& sim_;
  std::vector<net::Prefix> internal_;
  BorderRouter border_;
  std::vector<DenseBlock> dense_;
  /// Per-address owners outside every dense block.
  std::unordered_map<net::Ipv4, PacketSink*> owners_;
  /// Block owners, consulted after the per-address owners miss. A handful of
  /// entries at most (one per scale block), so a linear scan beats any
  /// trie here.
  std::vector<std::pair<net::Prefix, PacketSink*>> prefix_owners_;
  util::Duration internal_latency_{util::msec(1)};
  util::Duration external_latency_{util::msec(20)};
  std::uint64_t packets_sent_{0};
  std::uint64_t packets_delivered_{0};
  std::uint64_t packets_dropped_{0};
};

}  // namespace svcdisc::sim
