// Learned probe priors for the adaptive prober (DESIGN.md §16).
//
// GPS ("Predicting IPv4 Services Across All Ports") shows most of a
// fixed sweep's budget is wasted on (address, port) pairs whose prior
// probability of being open is tiny, and that three cheap online
// estimates recover nearly all services at a fraction of the probes:
//   * global port popularity   p(open | port)           — Laplace-smoothed;
//   * per-subnet port affinity p(open | port, /24)      — empirical-Bayes
//     shrinkage toward the global popularity, so unprobed subnets score
//     the global prior (exploration) and probed-cold subnets fall below
//     it (exploitation);
//   * cross-port conditionals  p(open on b | a open on same addr) — the
//     "a host running one service runs others" signal.
// All tallies update online from every resolved probe outcome, on the
// simulator thread, in simulated-time order — the priors (and
// everything scored from them) are deterministic.
#pragma once

#include <cstdint>

#include "net/ipv4.h"
#include "net/packet.h"
#include "util/flat_hash.h"

namespace svcdisc::active {

class ScanPriors {
 public:
  /// `subnet_shrinkage` is the empirical-Bayes pseudo-count: a subnet's
  /// affinity estimate behaves as if `shrinkage` extra probes at the
  /// global open rate had been observed there. Throws
  /// std::invalid_argument unless it is finite and >= 0: a negative one
  /// can zero the affinity's denominator.
  explicit ScanPriors(double subnet_shrinkage = 8.0);

  /// Records one resolved probe outcome.
  void record(net::Ipv4 addr, net::Port port, net::Proto proto, bool open);

  /// Laplace-smoothed global open rate of (port, proto): (open+1)/(probed+2).
  /// 0.5 before any evidence, so an untrained prior drains in sweep order.
  double port_popularity(net::Port port, net::Proto proto) const;

  /// Subnet (/24) open rate of (port, proto), shrunk toward the global
  /// popularity by `subnet_shrinkage` pseudo-probes.
  double subnet_affinity(net::Ipv4 addr, net::Port port,
                         net::Proto proto) const;

  /// Best cross-port conditional: max over this address's known-open
  /// services a of the Laplace-smoothed p(port open | a open). 0 when
  /// the address has no confirmed open service yet.
  double conditional(net::Ipv4 addr, net::Port port, net::Proto proto) const;

  /// Whether `addr` has a confirmed open service: until it has,
  /// conditional() is 0 and score() is the subnet affinity.
  bool has_open(net::Ipv4 addr) const { return open_ports_.contains(addr); }

  /// Expected-yield score of probing (addr, port, proto):
  /// max(subnet_affinity, conditional). Always finite and in [0, 1], as
  /// the adaptive prober's score queue requires.
  double score(net::Ipv4 addr, net::Port port, net::Proto proto) const;

  /// Shannon entropy (nats) of the global open-port distribution — low
  /// entropy means the budget concentrates on few ports. 0 until two
  /// distinct ports have confirmed opens.
  double entropy() const;

  std::uint64_t probes_recorded() const { return probes_; }
  std::uint64_t opens_recorded() const { return opens_; }

 private:
  struct PortKey {
    net::Port port{0};
    net::Proto proto{net::Proto::kTcp};
    bool operator==(const PortKey&) const = default;
  };
  struct PortKeyHash {
    std::size_t operator()(const PortKey& k) const noexcept {
      return util::hash_mix((std::uint64_t{k.port} << 8) ^
                            static_cast<std::uint8_t>(k.proto));
    }
  };
  /// (subnet | port | proto) packed: /24 index in the high bits.
  struct SubnetPortKey {
    std::uint32_t subnet{0};
    PortKey pk{};
    bool operator==(const SubnetPortKey&) const = default;
  };
  struct SubnetPortKeyHash {
    std::size_t operator()(const SubnetPortKey& k) const noexcept {
      return util::hash_mix((std::uint64_t{k.subnet} << 24) ^
                            (std::uint64_t{k.pk.port} << 8) ^
                            static_cast<std::uint8_t>(k.pk.proto));
    }
  };
  /// Ordered pair (a open on the address, b probed there).
  struct PairKey {
    PortKey a{};
    PortKey b{};
    bool operator==(const PairKey&) const = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const noexcept {
      return util::hash_mix(
          (std::uint64_t{k.a.port} << 40) ^ (std::uint64_t{k.b.port} << 16) ^
          (std::uint64_t{static_cast<std::uint8_t>(k.a.proto)} << 8) ^
          static_cast<std::uint8_t>(k.b.proto));
    }
  };
  struct Tally {
    std::uint64_t probed{0};
    std::uint64_t open{0};
  };

  static std::uint32_t subnet_of(net::Ipv4 addr) { return addr.value() >> 8; }
  static double laplace(const Tally& t) {
    return (static_cast<double>(t.open) + 1.0) /
           (static_cast<double>(t.probed) + 2.0);
  }

  double shrinkage_;
  std::uint64_t probes_{0};
  std::uint64_t opens_{0};
  util::FlatMap<PortKey, Tally, PortKeyHash> global_;
  util::FlatMap<SubnetPortKey, Tally, SubnetPortKeyHash> subnet_;
  util::FlatMap<PairKey, Tally, PairKeyHash> pairs_;
  /// Per-address confirmed-open services, insertion-ordered.
  util::FlatMap<net::Ipv4, std::vector<PortKey>> open_ports_;
};

}  // namespace svcdisc::active
