#include "core/firewall_confirm.h"

#include <unordered_map>

namespace svcdisc::core {

std::unordered_set<net::Ipv4> FirewallConfirmation::confirmed() const {
  std::unordered_set<net::Ipv4> all;
  for (const net::Ipv4 addr : candidates) {
    if (by_mixed_response.contains(addr) || by_activity.contains(addr)) {
      all.insert(addr);
    }
  }
  return all;
}

FirewallConfirmation confirm_firewalls(
    const std::unordered_set<net::Ipv4>& passive_only_addresses,
    const passive::ServiceTable& passive_table,
    std::span<const active::ScanRecord> scans) {
  FirewallConfirmation result;
  result.candidates = passive_only_addresses;

  for (const active::ScanRecord& scan : scans) {
    // Per candidate, per scan: did we see both a RST and silence?
    std::unordered_map<net::Ipv4, std::uint8_t> seen;  // bit0 RST, bit1 drop
    for (const active::ProbeOutcome& outcome : scan.outcomes) {
      if (!result.candidates.contains(outcome.addr)) continue;
      if (outcome.proto != net::Proto::kTcp) continue;
      auto& bits = seen[outcome.addr];
      if (outcome.status == active::ProbeStatus::kClosed) bits |= 1;
      if (outcome.status == active::ProbeStatus::kFiltered) {
        bits |= 2;
        // Method 2: activity on this exact service observed while the
        // scan was running.
        const passive::ServiceKey key = outcome.key();
        if (const passive::ServiceRecord* record = passive_table.find(key)) {
          if (record->last_activity >= scan.started &&
              record->first_seen <= scan.finished) {
            result.by_activity.insert(key.addr);
          }
        }
      }
    }
    for (const auto& [addr, bits] : seen) {
      if (bits == 3) result.by_mixed_response.insert(addr);
    }
  }
  return result;
}

}  // namespace svcdisc::core
