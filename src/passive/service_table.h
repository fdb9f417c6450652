// The discovered-service table shared by both discovery methods.
//
// Keys are (address, proto, port) — the paper counts *server IP
// addresses* (an address offering several studied ports appears once per
// service, and "servers found" aggregates by address). The table records
// first-discovery timestamps plus the per-service flow and unique-client
// tallies that drive the weighted completeness metrics (§4.1.2).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/ipv4.h"
#include "net/packet.h"
#include "passive/client_times.h"
#include "util/flat_hash.h"
#include "util/sim_time.h"
#include "util/sketch.h"

namespace svcdisc::passive {

/// How a table tracks the per-service unique-client set (DESIGN.md §15).
///   kExact:  a ClientTimes table per service — exact counts and
///            per-client recency, memory O(total client entries). The
///            default; every historical artifact is produced in this mode.
///   kSketch: a fixed-size HyperLogLog per service — estimated counts,
///            memory O(services). The constant-memory backend behind
///            --streaming; client *identities* and per-client recency are
///            not retained (last_flow_excluding degrades to last_flow).
enum class ClientAccounting : std::uint8_t { kExact, kSketch };

/// Registers of the per-service client HLL in kSketch mode: 2^14 = 16 KiB
/// per service. Per-service client sets run tens to a few thousand, which
/// keeps a p=14 sketch in its near-exact linear-counting regime — the
/// ±2% bound the streaming test suite enforces needs that margin. Still a
/// bargain: an exact client table crosses 16 KiB at ~900 clients and
/// keeps growing, while the sketch never does.
inline constexpr int kClientSketchPrecision = 14;

/// Identity of one service instance.
struct ServiceKey {
  net::Ipv4 addr{};
  net::Proto proto{net::Proto::kTcp};
  net::Port port{0};

  bool operator==(const ServiceKey&) const = default;
};

struct ServiceKeyHash {
  std::size_t operator()(const ServiceKey& k) const noexcept {
    // Pack the full identity into distinct bit ranges, then avalanche:
    // campus addresses and well-known ports are both near-sequential, so
    // a multiply alone leaves the low bits (the ones open addressing
    // uses) correlated.
    return util::hash_mix((std::uint64_t{k.addr.value()} << 24) ^
                          (std::uint64_t{k.port} << 8) ^
                          static_cast<std::uint8_t>(k.proto));
  }
};

/// What is known about one discovered service.
struct ServiceRecord {
  util::TimePoint first_seen{};
  /// Most recent observed activity (discovery or inbound flow); drives
  /// the firewall-confirmation check "activity observed during a scan
  /// that got no probe response" (§4.2.4).
  util::TimePoint last_activity{};
  /// Most recent inbound client flow (sources already flagged as
  /// scanners are never counted; sources flagged *later* can be cleaned
  /// retroactively via `clients`, as the paper does in §4.3).
  util::TimePoint last_flow{};
  /// The client that produced `last_flow`; lets last_flow_excluding skip
  /// the full client scan when that client is not excluded.
  net::Ipv4 last_flow_client{};
  std::uint64_t flows{0};
  /// Client address -> time of its most recent flow, in no order.
  /// Empty (never populated) in ClientAccounting::kSketch tables.
  ClientTimes clients;
  /// Unique-client HLL; disabled (zero memory) in kExact tables.
  util::HyperLogLog client_sketch;

  /// Unique clients: exact map size, or the sketch estimate in kSketch
  /// tables. The one accessor reporting/serialization paths should use.
  std::uint64_t client_count() const {
    return client_sketch.enabled() ? client_sketch.count() : clients.size();
  }

  /// Latest flow from a client not in `exclude` (kEpoch when none) —
  /// retroactive scanner cleaning for re-observation analyses.
  /// `exclude` is any set with contains(Ipv4). O(1) unless the most
  /// recent client is itself excluded; only then scans all clients.
  template <typename ExcludeSet>
  util::TimePoint last_flow_excluding(const ExcludeSet& exclude) const {
    if (flows == 0) return {};
    if (!exclude.contains(last_flow_client)) return last_flow;
    util::TimePoint latest{};
    clients.for_each([&](net::Ipv4 client, util::TimePoint t) {
      if (t > latest && !exclude.contains(client)) latest = t;
    });
    return latest;
  }
};
// stream.table_bytes multiplies this size into a benchmark digest.
static_assert(sizeof(ServiceRecord) == 136);

/// Timestamped registry of discovered services with activity tallies.
class ServiceTable {
 public:
  ServiceTable() = default;
  /// Selects the client-accounting backend; kExact reproduces historical
  /// behaviour byte-for-byte, kSketch bounds memory at O(services).
  explicit ServiceTable(ClientAccounting accounting)
      : accounting_(accounting) {}

  ClientAccounting accounting() const { return accounting_; }

  /// Marks `key` discovered at `t` (first call wins). Returns true when
  /// this was a new discovery.
  bool discover(const ServiceKey& key, util::TimePoint t);

  /// Attributes one inbound flow from `client` at time `t` to `key`
  /// (independent of discovery state — activity seen before discovery
  /// still weighs).
  void count_flow(const ServiceKey& key, net::Ipv4 client, util::TimePoint t);

  /// Marks renewed evidence of `key` at `t` (e.g. another SYN-ACK after
  /// discovery). Advances last_activity only.
  void touch(const ServiceKey& key, util::TimePoint t);

  /// Reinstates a persisted record in one step (the table_io load path).
  /// Unlike replaying count_flow per tally — which is O(flows) work an
  /// attacker-controlled row can drive to ~2^64 iterations — this sets
  /// `flows` directly and materializes at most
  /// min(client_count, max_clients) synthetic placeholder clients
  /// (identities are not persisted, only the count matters). Placeholder
  /// addresses are Ipv4(0..n-1) stamped at `first_seen`; last_activity is
  /// advanced to `last_activity`. First discover() wins as usual: if
  /// `key` was already discovered, tallies are still added on top.
  /// Returns the number of placeholder clients actually inserted.
  std::uint64_t restore(const ServiceKey& key, util::TimePoint first_seen,
                        util::TimePoint last_activity, std::uint64_t flows,
                        std::uint64_t client_count,
                        std::uint64_t max_clients);

  /// True when `key` has been *discovered* (flow-only entries don't
  /// count).
  bool contains(const ServiceKey& key) const { return find(key) != nullptr; }
  const ServiceRecord* find(const ServiceKey& key) const;

  /// Number of discovered services.
  std::size_t size() const { return discovered_count_; }
  /// Number of distinct server addresses discovered.
  std::size_t address_count() const;
  /// Estimated bytes held by the table: entries, per-service client
  /// blocks and sketches. O(entries); feeds the stream.table_bytes gauge.
  std::size_t memory_bytes() const;

  /// Visits every discovered service (key, record).
  void for_each(
      const std::function<void(const ServiceKey&, const ServiceRecord&)>& fn)
      const;

  /// All discoveries sorted by first_seen (for time-series plots).
  std::vector<std::pair<ServiceKey, util::TimePoint>> chronological() const;

 private:
  struct Entry {
    ServiceRecord record;
    bool discovered{false};
  };
  util::FlatMap<ServiceKey, Entry, ServiceKeyHash> services_;
  std::size_t discovered_count_{0};
  ClientAccounting accounting_{ClientAccounting::kExact};
};

}  // namespace svcdisc::passive
