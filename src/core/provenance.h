// core::ProvenanceLedger — the per-service evidence audit trail.
//
// The paper's central claims are about *when* and *via which evidence*
// each service is first discovered (passive SYN-ACK vs active probe
// reply, Table 2 / Fig. 2-3). Aggregate counters cannot answer "why did
// the monitor learn 10.1.2.3:80 at t=432000, and from which tap?", so
// the ledger records, for every (addr, proto, port), the evidence chain
// behind it:
//
//   * the first and most recent sighting, each carrying the simulated
//     time, the discoverer (passive monitor vs active prober), the
//     packet kind (SYN-ACK, server-port UDP, TCP/UDP probe reply — the
//     kind implies the observation direction: passive evidence is
//     outbound traffic crossing a border tap, probe replies are
//     internal), and the source tap for passive evidence;
//   * a bounded chain holding the first occurrence of every distinct
//     (kind, discoverer, tap) combination — the qualitative "how do we
//     know" summary — plus a total sighting count.
//
// Determinism: the ledger stores simulated time only (never wall
// clock), entries are keyed and exported in sorted (addr, proto, port)
// order, and evidence arrives in simulator order, so two identical
// campaigns produce byte-identical JSONL exports.
//
// Wiring: DiscoveryEngine feeds it when EngineConfig::provenance is
// set — per-tap TapContextObserver shims stamp the current tap before
// the monitor runs, and monitor/prober evidence callbacks do the rest.
// audit() cross-checks the ledger 1:1 against the final service tables.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/packet.h"
#include "passive/service_table.h"
#include "sim/node.h"
#include "util/flat_hash.h"
#include "util/sim_time.h"

namespace svcdisc::util {
class Calendar;
}  // namespace svcdisc::util

namespace svcdisc::core {

enum class EvidenceKind : std::uint8_t {
  kSynAck,         ///< passive: outbound SYN-ACK from an internal server
  kUdp,            ///< passive: outbound UDP from a well-known server port
  kProbeReplyTcp,  ///< active: SYN-ACK answering an internal SYN probe
  kProbeReplyUdp,  ///< active: UDP reply answering an internal probe
};

enum class Discoverer : std::uint8_t { kPassive, kActive };

const char* evidence_kind_name(EvidenceKind kind);
const char* discoverer_name(Discoverer via);

/// One sighting of a service.
struct Evidence {
  /// Tap slot for evidence that did not cross a border tap (probe
  /// replies travel inside the campus).
  static constexpr std::uint16_t kNoTap = 0xffff;

  util::TimePoint when{};
  EvidenceKind kind{EvidenceKind::kSynAck};
  Discoverer via{Discoverer::kPassive};
  std::uint16_t tap{kNoTap};
};

/// Everything the ledger knows about one service.
struct ServiceProvenance {
  Evidence first;
  Evidence last;
  std::uint64_t sightings{0};
  /// First occurrence of each distinct (kind, via, tap) combination, in
  /// order of appearance — bounded by the handful of combinations a
  /// campaign can produce, not by traffic volume.
  std::vector<Evidence> chain;

  /// Earliest sighting via `via`, or nullptr when that discoverer never
  /// saw the service.
  const Evidence* first_via(Discoverer via) const;
};

/// Result of cross-checking the ledger against the final service
/// tables (see ProvenanceLedger::audit).
struct ProvenanceAudit {
  std::uint64_t matched{0};
  std::uint64_t missing_in_ledger{0};  ///< table entries without evidence
  std::uint64_t extra_in_ledger{0};    ///< ledger entries not in a table
  std::uint64_t time_mismatch{0};      ///< first sighting != first_seen

  bool ok() const {
    return missing_in_ledger == 0 && extra_in_ledger == 0 &&
           time_mismatch == 0;
  }
};

class ProvenanceLedger {
 public:
  /// Names for tap indices in exports (engine: one per border peering).
  void set_tap_names(std::vector<std::string> names) {
    tap_names_ = std::move(names);
  }
  const std::vector<std::string>& tap_names() const { return tap_names_; }

  /// The tap about to deliver packets (stamped by TapContextObserver
  /// just before the monitor ingests each packet).
  void set_current_tap(std::uint16_t tap) { current_tap_ = tap; }
  std::uint16_t current_tap() const { return current_tap_; }

  /// Records one sighting. First call for a key creates its entry.
  void record(const passive::ServiceKey& key, util::TimePoint when,
              EvidenceKind kind, Discoverer via,
              std::uint16_t tap = Evidence::kNoTap);

  std::size_t size() const { return services_.size(); }
  const ServiceProvenance* find(const passive::ServiceKey& key) const;

  /// The whole ledger as JSONL, one service per line, sorted by
  /// (addr, proto, port). A non-empty `label` becomes the first field
  /// of every line (campaign sweeps concatenate several ledgers).
  /// Byte-identical across identical campaigns.
  std::string to_jsonl(const std::string& label = {}) const;

  /// Human-readable evidence timeline for one service (the CLI
  /// `explain` subcommand). Empty string when the key is unknown.
  std::string explain(const passive::ServiceKey& key,
                      const util::Calendar& calendar) const;

  /// 1:1 agreement with the final tables: every service the passive
  /// monitor discovered must have passive evidence whose first sighting
  /// matches the table's first_seen (same for the prober's table and
  /// active evidence), and the ledger must contain nothing else.
  ProvenanceAudit audit(const passive::ServiceTable& passive_table,
                        const passive::ServiceTable& active_table) const;

 private:
  util::FlatMap<passive::ServiceKey, ServiceProvenance,
                passive::ServiceKeyHash>
      services_;
  std::vector<std::string> tap_names_;
  std::uint16_t current_tap_{Evidence::kNoTap};
};

/// A pass-through tap consumer that stamps the ledger's current-tap
/// context. DiscoveryEngine registers one per tap, ahead of the
/// monitor, so passive evidence records which peering produced it.
class TapContextObserver final : public sim::PacketObserver {
 public:
  TapContextObserver(ProvenanceLedger* ledger, std::uint16_t tap)
      : ledger_(ledger), tap_(tap) {}

  void observe(const net::Packet&) override {
    ledger_->set_current_tap(tap_);
  }
  void observe_batch(std::span<const net::Packet>) override {
    ledger_->set_current_tap(tap_);
  }

 private:
  ProvenanceLedger* ledger_;
  std::uint16_t tap_;
};

}  // namespace svcdisc::core
