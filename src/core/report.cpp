#include "core/report.h"

namespace svcdisc::core {

std::unordered_map<net::Ipv4, util::TimePoint> address_discovery_times(
    const passive::ServiceTable& table, util::TimePoint cutoff,
    const ServiceFilter& filter) {
  std::unordered_map<net::Ipv4, util::TimePoint> times;
  table.for_each([&](const passive::ServiceKey& key,
                     const passive::ServiceRecord& record) {
    if (record.first_seen > cutoff || !filter.accepts(key)) return;
    const auto [it, inserted] = times.emplace(key.addr, record.first_seen);
    if (!inserted && record.first_seen < it->second) {
      it->second = record.first_seen;
    }
  });
  return times;
}

std::unordered_set<net::Ipv4> addresses_found(
    const passive::ServiceTable& table, util::TimePoint cutoff,
    const ServiceFilter& filter) {
  std::unordered_set<net::Ipv4> found;
  table.for_each([&](const passive::ServiceKey& key,
                     const passive::ServiceRecord& record) {
    if (record.first_seen > cutoff || !filter.accepts(key)) return;
    found.insert(key.addr);
  });
  return found;
}

std::unordered_map<net::Ipv4, util::TimePoint> address_times_from_scans(
    std::span<const active::ScanRecord> scans,
    const std::function<bool(const active::ScanRecord&)>& scan_pred,
    const ServiceFilter& filter) {
  std::unordered_map<net::Ipv4, util::TimePoint> times;
  for (const active::ScanRecord& scan : scans) {
    if (scan_pred && !scan_pred(scan)) continue;
    for (const active::ProbeOutcome& outcome : scan.outcomes) {
      if (outcome.status != active::ProbeStatus::kOpen &&
          outcome.status != active::ProbeStatus::kOpenUdp) {
        continue;
      }
      if (!filter.accepts(outcome.key())) continue;
      const auto [it, inserted] = times.emplace(outcome.addr, outcome.when);
      if (!inserted && outcome.when < it->second) it->second = outcome.when;
    }
  }
  return times;
}

AddressWeights address_weights(const passive::ServiceTable& table,
                               const ServiceFilter& filter) {
  AddressWeights weights;
  table.for_each([&](const passive::ServiceKey& key,
                     const passive::ServiceRecord& record) {
    if (!filter.accepts(key)) return;
    weights.flows[key.addr] += static_cast<double>(record.flows);
    weights.clients[key.addr] += static_cast<double>(record.client_count());
  });
  return weights;
}

}  // namespace svcdisc::core
