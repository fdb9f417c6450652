#include "core/provenance.h"

#include <algorithm>
#include <utility>

#include "util/sim_time.h"

namespace svcdisc::core {
namespace {

using passive::ServiceKey;

/// Sort order for exports: (addr, proto, port).
bool key_less(const ServiceKey& a, const ServiceKey& b) {
  if (a.addr.value() != b.addr.value()) {
    return a.addr.value() < b.addr.value();
  }
  if (a.proto != b.proto) {
    return static_cast<int>(a.proto) < static_cast<int>(b.proto);
  }
  return a.port < b.port;
}

void append_evidence_json(std::string& out, const Evidence& e,
                          const std::vector<std::string>& tap_names) {
  out += "{\"t_us\":";
  out += std::to_string(e.when.usec);
  out += ",\"kind\":\"";
  out += evidence_kind_name(e.kind);
  out += "\",\"via\":\"";
  out += discoverer_name(e.via);
  out += '"';
  if (e.tap != Evidence::kNoTap) {
    out += ",\"tap\":\"";
    if (e.tap < tap_names.size()) {
      out += tap_names[e.tap];
    } else {
      out += "tap";
      out += std::to_string(e.tap);
    }
    out += '"';
  }
  out += '}';
}

}  // namespace

const char* evidence_kind_name(EvidenceKind kind) {
  switch (kind) {
    case EvidenceKind::kSynAck: return "syn_ack";
    case EvidenceKind::kUdp: return "udp";
    case EvidenceKind::kProbeReplyTcp: return "probe_reply_tcp";
    case EvidenceKind::kProbeReplyUdp: return "probe_reply_udp";
  }
  return "?";
}

const char* discoverer_name(Discoverer via) {
  switch (via) {
    case Discoverer::kPassive: return "passive";
    case Discoverer::kActive: return "active";
  }
  return "?";
}

const Evidence* ServiceProvenance::first_via(Discoverer via) const {
  // Arrival order, not min-by-time: ServiceTable::discover is
  // first-call-wins, so under tap clock skew (stamped times out of
  // delivery order) only the first *arrival* matches the table's
  // first_seen. The chain preserves arrival order, and the first
  // arrival via `via` always created a fresh (kind, via, tap)
  // combination, so it is in the chain.
  for (const Evidence& e : chain) {
    if (e.via == via) return &e;
  }
  return nullptr;
}

void ProvenanceLedger::record(const ServiceKey& key, util::TimePoint when,
                              EvidenceKind kind, Discoverer via,
                              std::uint16_t tap) {
  const Evidence e{when, kind, via, tap};
  auto [it, inserted] = services_.emplace(key);
  ServiceProvenance& p = it->second;
  if (inserted) {
    p.first = e;
    p.last = e;
  } else {
    if (e.when < p.first.when) p.first = e;
    if (e.when >= p.last.when) p.last = e;
  }
  ++p.sightings;
  // The chain keeps the first *arrival* of each combination untouched —
  // first_via relies on arrival order matching the table's
  // first-call-wins semantics.
  const auto seen = std::find_if(
      p.chain.begin(), p.chain.end(), [&](const Evidence& c) {
        return c.kind == e.kind && c.via == e.via && c.tap == e.tap;
      });
  if (seen == p.chain.end()) p.chain.push_back(e);
}

const ServiceProvenance* ProvenanceLedger::find(const ServiceKey& key) const {
  const auto it = services_.find(key);
  return it == services_.end() ? nullptr : &it->second;
}

std::string ProvenanceLedger::to_jsonl(const std::string& label) const {
  std::vector<const std::pair<ServiceKey, ServiceProvenance>*> rows;
  rows.reserve(services_.size());
  for (const auto& entry : services_) rows.push_back(&entry);
  std::sort(rows.begin(), rows.end(),
            [](const auto* a, const auto* b) {
              return key_less(a->first, b->first);
            });

  std::string out;
  out.reserve(rows.size() * 160);
  for (const auto* row : rows) {
    const ServiceKey& key = row->first;
    const ServiceProvenance& p = row->second;
    out += '{';
    if (!label.empty()) {
      out += "\"label\":\"";
      out += label;
      out += "\",";
    }
    out += "\"addr\":\"";
    out += key.addr.to_string();
    out += "\",\"proto\":\"";
    out += net::proto_name(key.proto);
    out += "\",\"port\":";
    out += std::to_string(key.port);
    out += ",\"sightings\":";
    out += std::to_string(p.sightings);
    out += ",\"first\":";
    append_evidence_json(out, p.first, tap_names_);
    out += ",\"last\":";
    append_evidence_json(out, p.last, tap_names_);
    out += ",\"chain\":[";
    for (std::size_t i = 0; i < p.chain.size(); ++i) {
      if (i != 0) out += ',';
      append_evidence_json(out, p.chain[i], tap_names_);
    }
    out += "]}\n";
  }
  return out;
}

std::string ProvenanceLedger::explain(const ServiceKey& key,
                                      const util::Calendar& calendar) const {
  const ServiceProvenance* p = find(key);
  if (p == nullptr) return {};

  const auto describe = [&](const Evidence& e) {
    std::string line = calendar.month_day_time(e.when);
    line += "  ";
    line += discoverer_name(e.via);
    line += '/';
    line += evidence_kind_name(e.kind);
    if (e.tap != Evidence::kNoTap) {
      line += "  via ";
      if (e.tap < tap_names_.size()) {
        line += tap_names_[e.tap];
      } else {
        line += "tap";
        line += std::to_string(e.tap);
      }
    }
    return line;
  };

  std::string out;
  out += key.addr.to_string();
  out += ':';
  out += std::to_string(key.port);
  out += '/';
  out += net::proto_name(key.proto);
  out += " — ";
  out += std::to_string(p->sightings);
  out += p->sightings == 1 ? " sighting\n" : " sightings\n";
  out += "  first : ";
  out += describe(p->first);
  out += '\n';
  out += "  last  : ";
  out += describe(p->last);
  out += '\n';
  out += "  evidence chain (earliest of each kind):\n";
  // Present the chain in time order regardless of arrival order.
  std::vector<const Evidence*> ordered;
  ordered.reserve(p->chain.size());
  for (const Evidence& e : p->chain) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Evidence* a, const Evidence* b) {
                     return a->when < b->when;
                   });
  for (const Evidence* e : ordered) {
    out += "    ";
    out += describe(*e);
    out += '\n';
  }
  return out;
}

ProvenanceAudit ProvenanceLedger::audit(
    const passive::ServiceTable& passive_table,
    const passive::ServiceTable& active_table) const {
  ProvenanceAudit audit;
  util::FlatSet<ServiceKey, passive::ServiceKeyHash> in_tables;

  const auto check = [&](const passive::ServiceTable& table, Discoverer via) {
    table.for_each([&](const ServiceKey& key,
                       const passive::ServiceRecord& rec) {
      in_tables.insert(key);
      const ServiceProvenance* p = find(key);
      const Evidence* e = p ? p->first_via(via) : nullptr;
      if (e == nullptr) {
        ++audit.missing_in_ledger;
      } else if (e->when != rec.first_seen) {
        ++audit.time_mismatch;
      } else {
        ++audit.matched;
      }
    });
  };
  check(passive_table, Discoverer::kPassive);
  check(active_table, Discoverer::kActive);

  for (const auto& [key, p] : services_) {
    if (!in_tables.contains(key)) ++audit.extra_in_ledger;
  }
  return audit;
}

}  // namespace svcdisc::core
