#include "passive/service_table.h"

#include <algorithm>

namespace svcdisc::passive {

bool ServiceTable::discover(const ServiceKey& key, util::TimePoint t) {
  Entry& e = services_[key];
  if (e.discovered) return false;
  e.discovered = true;
  e.record.first_seen = t;
  if (e.record.last_activity < t) e.record.last_activity = t;
  ++discovered_count_;
  return true;
}

void ServiceTable::count_flow(const ServiceKey& key, net::Ipv4 client,
                              util::TimePoint t) {
  Entry& e = services_[key];
  ++e.record.flows;
  if (accounting_ == ClientAccounting::kSketch) {
    if (!e.record.client_sketch.enabled()) {
      e.record.client_sketch.init(kClientSketchPrecision);
    }
    e.record.client_sketch.add(util::hash_mix(client.value()));
  } else {
    e.record.clients.note(client, t);
  }
  if (e.record.last_activity < t) e.record.last_activity = t;
  if (e.record.last_flow <= t) {
    e.record.last_flow = t;
    e.record.last_flow_client = client;
  }
}

std::uint64_t ServiceTable::restore(const ServiceKey& key,
                                    util::TimePoint first_seen,
                                    util::TimePoint last_activity,
                                    std::uint64_t flows,
                                    std::uint64_t client_count,
                                    std::uint64_t max_clients) {
  discover(key, first_seen);
  Entry& e = services_[key];
  e.record.flows += flows;
  const std::uint64_t placeholders = std::min(client_count, max_clients);
  for (std::uint64_t i = 0; i < placeholders; ++i) {
    const net::Ipv4 placeholder(static_cast<std::uint32_t>(i));
    if (accounting_ == ClientAccounting::kSketch) {
      if (!e.record.client_sketch.enabled()) {
        e.record.client_sketch.init(kClientSketchPrecision);
      }
      e.record.client_sketch.add(util::hash_mix(placeholder.value()));
    } else {
      e.record.clients.insert(placeholder, first_seen);
    }
  }
  // Flow recency: persisted rows carry no per-flow timestamps, so the
  // best reconstruction is "some flow happened by first_seen" when any
  // flows existed at all.
  if (flows > 0 && e.record.last_flow <= first_seen) {
    e.record.last_flow = first_seen;
    e.record.last_flow_client =
        placeholders > 0 ? net::Ipv4(0) : e.record.last_flow_client;
  }
  if (e.record.last_activity < last_activity) {
    e.record.last_activity = last_activity;
  }
  return placeholders;
}

void ServiceTable::touch(const ServiceKey& key, util::TimePoint t) {
  const auto it = services_.find(key);
  if (it == services_.end()) return;
  if (it->second.record.last_activity < t) it->second.record.last_activity = t;
}

const ServiceRecord* ServiceTable::find(const ServiceKey& key) const {
  const auto it = services_.find(key);
  if (it == services_.end() || !it->second.discovered) return nullptr;
  return &it->second.record;
}

std::size_t ServiceTable::memory_bytes() const {
  std::size_t side_bytes = 0;
  for (const auto& [key, entry] : services_) {
    side_bytes += entry.record.clients.heap_bytes() +
                  entry.record.client_sketch.memory_bytes();
  }
  // Entry storage plus the open-addressing slot array at its ~50% max
  // load factor (an estimate), plus the bytes each record holds beside
  // its entry: a client block past ClientTimes::kInline clients in kExact
  // mode, a fixed sketch in kSketch mode — so a kSketch total is
  // O(services) however many distinct clients contacted the campus.
  constexpr std::size_t kSlotOverhead = 2 * sizeof(std::uint32_t);
  return services_.size() *
             (sizeof(std::pair<ServiceKey, Entry>) + kSlotOverhead) +
         side_bytes;
}

std::size_t ServiceTable::address_count() const {
  util::FlatSet<net::Ipv4> addrs;
  addrs.reserve(services_.size());
  for (const auto& [key, entry] : services_) {
    if (entry.discovered) addrs.insert(key.addr);
  }
  return addrs.size();
}

void ServiceTable::for_each(
    const std::function<void(const ServiceKey&, const ServiceRecord&)>& fn)
    const {
  for (const auto& [key, entry] : services_) {
    if (entry.discovered) fn(key, entry.record);
  }
}

std::vector<std::pair<ServiceKey, util::TimePoint>>
ServiceTable::chronological() const {
  std::vector<std::pair<ServiceKey, util::TimePoint>> out;
  out.reserve(discovered_count_);
  for (const auto& [key, entry] : services_) {
    if (entry.discovered) out.emplace_back(key, entry.record.first_seen);
  }
  // Full-key tiebreak: without the proto term, two services differing
  // only in protocol sort unstably, and save→load→save of a table is not
  // byte-identical.
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    if (a.first.addr != b.first.addr) return a.first.addr < b.first.addr;
    if (a.first.port != b.first.port) return a.first.port < b.first.port;
    return a.first.proto < b.first.proto;
  });
  return out;
}

}  // namespace svcdisc::passive
