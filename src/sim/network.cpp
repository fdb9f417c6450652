#include "sim/network.h"

#include <utility>

namespace svcdisc::sim {

Network::Network(Simulator& sim, std::vector<net::Prefix> internal)
    : sim_(sim), internal_(std::move(internal)) {
  for (const net::Prefix& prefix : internal_) {
    if (32 - prefix.bits() <= kDenseMaxHostBits) {
      dense_.push_back(DenseBlock{prefix, {}});
    }
  }
}

const Network::DenseBlock* Network::dense_block(net::Ipv4 addr) const {
  for (const DenseBlock& block : dense_) {
    if (block.prefix.contains(addr)) return &block;
  }
  return nullptr;
}

void Network::attach(net::Ipv4 addr, PacketSink* sink) {
  DenseBlock* block = dense_block(addr);
  if (block == nullptr) {
    owners_[addr] = sink;
    return;
  }
  if (block->owners.empty()) block->owners.resize(block->prefix.size());
  block->owners[addr - block->prefix.base()] = sink;
}

void Network::detach(net::Ipv4 addr, const PacketSink* sink) {
  if (DenseBlock* block = dense_block(addr)) {
    if (block->owners.empty()) return;
    PacketSink*& slot = block->owners[addr - block->prefix.base()];
    if (slot == sink) slot = nullptr;
    return;
  }
  const auto it = owners_.find(addr);
  if (it != owners_.end() && it->second == sink) owners_.erase(it);
}

void Network::attach_prefix(net::Prefix prefix, PacketSink* sink) {
  prefix_owners_.emplace_back(prefix, sink);
}

PacketSink* Network::owner(net::Ipv4 addr) const {
  if (const DenseBlock* block = dense_block(addr)) {
    if (!block->owners.empty()) {
      if (PacketSink* sink = block->owners[addr - block->prefix.base()]) {
        return sink;
      }
    }
  } else {
    const auto it = owners_.find(addr);
    if (it != owners_.end()) return it->second;
  }
  for (const auto& [prefix, sink] : prefix_owners_) {
    if (prefix.contains(addr)) return sink;
  }
  return nullptr;
}

bool Network::is_internal(net::Ipv4 addr) const {
  for (const auto& prefix : internal_) {
    if (prefix.contains(addr)) return true;
  }
  return false;
}

void Network::send(net::Packet p) {
  ++packets_sent_;
  const bool src_internal = is_internal(p.src);
  const bool dst_internal = is_internal(p.dst);
  const bool crossed = src_internal != dst_internal;
  const net::Ipv4 external = src_internal ? p.dst : p.src;
  const util::Duration latency =
      crossed ? external_latency_ : internal_latency_;
  sim_.after_packet(latency, this, p, external, crossed);
}

void Network::deliver_packets(std::span<net::Packet> packets,
                              net::Ipv4 external, bool crossed) {
  const util::TimePoint now = sim_.now();
  for (net::Packet& p : packets) p.time = now;
  // All packets share one external endpoint, hence one peering: the
  // border router amortizes the policy lookup and tap dispatch across
  // the whole batch (taps never schedule events or touch sinks, so
  // observing the batch before delivering it is order-equivalent to the
  // per-packet interleave).
  if (crossed && border_.peering_count() > 0) {
    border_.carry_batch(packets, external);
  }
  for (const net::Packet& p : packets) {
    if (PacketSink* sink = owner(p.dst)) {
      ++packets_delivered_;
      sink->on_packet(p);
    } else {
      ++packets_dropped_;
    }
  }
}

}  // namespace svcdisc::sim
