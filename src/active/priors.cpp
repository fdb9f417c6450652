#include "active/priors.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace svcdisc::active {

ScanPriors::ScanPriors(double subnet_shrinkage)
    : shrinkage_(subnet_shrinkage) {
  if (!std::isfinite(subnet_shrinkage) || subnet_shrinkage < 0.0) {
    throw std::invalid_argument(
        "ScanPriors: subnet_shrinkage must be finite and >= 0");
  }
}

void ScanPriors::record(net::Ipv4 addr, net::Port port, net::Proto proto,
                        bool open) {
  const PortKey pk{port, proto};
  ++probes_;
  if (open) ++opens_;

  Tally& g = global_[pk];
  ++g.probed;
  if (open) ++g.open;

  Tally& s = subnet_[{subnet_of(addr), pk}];
  ++s.probed;
  if (open) ++s.open;

  // Cross-port conditionals: this outcome is evidence for every service
  // already confirmed open on the same address. Per-address open lists
  // run a handful of entries, so the update stays O(opens-on-addr).
  auto known = open_ports_.find(addr);
  if (known != open_ports_.end()) {
    for (const PortKey& a : known->second) {
      if (a == pk) continue;
      Tally& t = pairs_[{a, pk}];
      ++t.probed;
      if (open) ++t.open;
    }
  }
  if (open) {
    std::vector<PortKey>& opens = open_ports_[addr];
    if (std::find(opens.begin(), opens.end(), pk) == opens.end()) {
      opens.push_back(pk);
    }
  }
}

double ScanPriors::port_popularity(net::Port port, net::Proto proto) const {
  const auto it = global_.find(PortKey{port, proto});
  return it == global_.end() ? 0.5 : laplace(it->second);
}

double ScanPriors::subnet_affinity(net::Ipv4 addr, net::Port port,
                                   net::Proto proto) const {
  const double pg = port_popularity(port, proto);
  const auto it = subnet_.find({subnet_of(addr), PortKey{port, proto}});
  if (it == subnet_.end()) return pg;
  const Tally& t = it->second;
  return (static_cast<double>(t.open) + pg * shrinkage_) /
         (static_cast<double>(t.probed) + shrinkage_);
}

double ScanPriors::conditional(net::Ipv4 addr, net::Port port,
                               net::Proto proto) const {
  const auto known = open_ports_.find(addr);
  if (known == open_ports_.end()) return 0.0;
  const PortKey pk{port, proto};
  double best = 0.0;
  for (const PortKey& a : known->second) {
    if (a == pk) continue;
    const auto it = pairs_.find(PairKey{a, pk});
    // An unobserved pair still carries the "this host runs something"
    // signal at the Laplace prior (0.5); observed pairs sharpen it.
    const double p = it == pairs_.end() ? 0.5 : laplace(it->second);
    best = std::max(best, p);
  }
  return best;
}

double ScanPriors::score(net::Ipv4 addr, net::Port port,
                         net::Proto proto) const {
  return std::max(subnet_affinity(addr, port, proto),
                  conditional(addr, port, proto));
}

double ScanPriors::entropy() const {
  std::uint64_t total = 0;
  for (const auto& [pk, t] : global_) total += t.open;
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const auto& [pk, t] : global_) {
    if (t.open == 0) continue;
    const double p =
        static_cast<double>(t.open) / static_cast<double>(total);
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace svcdisc::active
