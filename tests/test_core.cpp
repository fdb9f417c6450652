// Unit tests for core: completeness math, weighted curves, the Table 3/4
// categorizations, report shaping, firewall confirmation.
#include <gtest/gtest.h>

#include "core/categorize.h"
#include "core/completeness.h"
#include "core/firewall_confirm.h"
#include "core/report.h"
#include "core/weighted.h"

namespace svcdisc::core {
namespace {

using net::Ipv4;
using passive::ServiceKey;
using passive::ServiceTable;
using util::hours;
using util::kEpoch;
using util::minutes;

Ipv4 addr(int i) {
  return Ipv4::from_octets(128, 125, static_cast<std::uint8_t>(i / 256),
                           static_cast<std::uint8_t>(i % 256));
}

// ---------------------------------------------------------- Completeness --

TEST(Completeness, PaperTable2FirstColumnShape) {
  // 286 both, 1,421 active-only, 41 passive-only (Table 2, 12 h column).
  std::unordered_set<Ipv4> passive, active;
  for (int i = 0; i < 286 + 41; ++i) passive.insert(addr(i));
  for (int i = 0; i < 286; ++i) active.insert(addr(i));
  for (int i = 1000; i < 1000 + 1421; ++i) active.insert(addr(i));
  const Completeness c = completeness(passive, active);
  EXPECT_EQ(c.union_count, 1748u);
  EXPECT_EQ(c.both, 286u);
  EXPECT_EQ(c.active_only, 1421u);
  EXPECT_EQ(c.passive_only, 41u);
  EXPECT_EQ(c.active_total, 1707u);
  EXPECT_EQ(c.passive_total, 327u);
  EXPECT_NEAR(c.active_pct(), 97.7, 0.1);
  EXPECT_NEAR(c.passive_pct(), 18.7, 0.1);
}

TEST(Completeness, EmptySets) {
  const Completeness c = completeness({}, {});
  EXPECT_EQ(c.union_count, 0u);
  EXPECT_DOUBLE_EQ(c.active_pct(), 0.0);
}

TEST(Completeness, IdenticalSets) {
  std::unordered_set<Ipv4> s{addr(1), addr(2)};
  const Completeness c = completeness(s, s);
  EXPECT_EQ(c.union_count, 2u);
  EXPECT_EQ(c.both, 2u);
  EXPECT_EQ(c.active_only, 0u);
  EXPECT_EQ(c.passive_only, 0u);
}

// ---------------------------------------------------------------- Report --

TEST(Report, AddressTimesTakeEarliestService) {
  ServiceTable table;
  table.discover({addr(1), net::Proto::kTcp, 80}, kEpoch + hours(5));
  table.discover({addr(1), net::Proto::kTcp, 22}, kEpoch + hours(2));
  table.discover({addr(2), net::Proto::kTcp, 80}, kEpoch + hours(9));
  const auto times = address_discovery_times(table, kEpoch + hours(100));
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times.at(addr(1)), kEpoch + hours(2));
  EXPECT_EQ(times.at(addr(2)), kEpoch + hours(9));
}

TEST(Report, CutoffExcludesLaterDiscoveries) {
  ServiceTable table;
  table.discover({addr(1), net::Proto::kTcp, 80}, kEpoch + hours(5));
  table.discover({addr(2), net::Proto::kTcp, 80}, kEpoch + hours(50));
  EXPECT_EQ(addresses_found(table, kEpoch + hours(10)).size(), 1u);
  EXPECT_EQ(addresses_found(table, kEpoch + hours(100)).size(), 2u);
}

TEST(Report, PortFilter) {
  ServiceTable table;
  table.discover({addr(1), net::Proto::kTcp, 80}, kEpoch);
  table.discover({addr(2), net::Proto::kTcp, 22}, kEpoch);
  ServiceFilter web;
  web.port = 80;
  EXPECT_EQ(addresses_found(table, kEpoch + hours(1), web).size(), 1u);
}

TEST(Report, AddressPredicateFilter) {
  ServiceTable table;
  table.discover({addr(1), net::Proto::kTcp, 80}, kEpoch);
  table.discover({addr(300), net::Proto::kTcp, 80}, kEpoch);
  ServiceFilter low;
  low.address_pred = [](Ipv4 a) { return (a.value() & 0xff00) == 0; };
  EXPECT_EQ(addresses_found(table, kEpoch + hours(1), low).size(), 1u);
}

TEST(Report, ScanTimesRespectPredicate) {
  using active::ProbeOutcome;
  using active::ProbeStatus;
  using active::ScanRecord;
  std::vector<ScanRecord> scans(2);
  scans[0].index = 0;
  scans[0].started = kEpoch + hours(1);
  scans[0].outcomes = {ProbeOutcome{addr(1), net::Proto::kTcp,
                                    ProbeStatus::kOpen, 80,
                                    kEpoch + hours(1)}};
  scans[1].index = 1;
  scans[1].started = kEpoch + hours(13);
  scans[1].outcomes = {
      ProbeOutcome{addr(2), net::Proto::kTcp, ProbeStatus::kOpen, 80,
                   kEpoch + hours(13)},
      ProbeOutcome{addr(3), net::Proto::kTcp, ProbeStatus::kClosed, 80,
                   kEpoch + hours(13)},
  };

  const auto all = address_times_from_scans(scans, nullptr);
  EXPECT_EQ(all.size(), 2u);  // closed outcome is not a discovery
  const auto odd_only = address_times_from_scans(
      scans, [](const ScanRecord& s) { return s.index % 2 == 1; });
  EXPECT_EQ(odd_only.size(), 1u);
  EXPECT_TRUE(odd_only.contains(addr(2)));
}

TEST(Report, WeightsAggregateAcrossServices) {
  ServiceTable table;
  const ServiceKey web{addr(1), net::Proto::kTcp, 80};
  const ServiceKey ssh{addr(1), net::Proto::kTcp, 22};
  table.discover(web, kEpoch);
  table.discover(ssh, kEpoch);
  table.count_flow(web, addr(900), kEpoch);
  table.count_flow(web, addr(901), kEpoch);
  table.count_flow(ssh, addr(900), kEpoch);
  const AddressWeights w = address_weights(table);
  EXPECT_DOUBLE_EQ(w.flows.at(addr(1)), 3.0);
  // Client sets are per service; the same client on two services counts
  // twice at the address level (paper aggregates per-service tallies).
  EXPECT_DOUBLE_EQ(w.clients.at(addr(1)), 3.0);
}

// -------------------------------------------------------------- Weighted --

TEST(Weighted, NinetyPercentExample) {
  // The paper's example: servers A (9 clients) and B (1 client);
  // discovering A alone reaches 90% of client-weighted completeness.
  std::unordered_map<Ipv4, util::TimePoint> times{
      {addr(1), kEpoch + minutes(1)}, {addr(2), kEpoch + hours(10)}};
  AddressWeights w;
  w.clients[addr(1)] = 9;
  w.clients[addr(2)] = 1;
  w.flows[addr(1)] = 100;
  w.flows[addr(2)] = 1;
  const WeightedCurves curves = weighted_curves(times, w);
  const double at_five = curves.client_weighted.at(kEpoch + minutes(5));
  EXPECT_DOUBLE_EQ(at_five / curves.client_weighted.total(), 0.9);
  EXPECT_DOUBLE_EQ(curves.unweighted.at(kEpoch + minutes(5)), 1.0);
  EXPECT_NEAR(curves.flow_weighted.at(kEpoch + minutes(5)) /
                  curves.flow_weighted.total(),
              100.0 / 101.0, 1e-9);
}

TEST(Weighted, ZeroWeightAddressesDropFromWeightedCurve) {
  std::unordered_map<Ipv4, util::TimePoint> times{{addr(1), kEpoch}};
  AddressWeights w;  // no weights at all
  const WeightedCurves curves = weighted_curves(times, w);
  EXPECT_DOUBLE_EQ(curves.unweighted.total(), 1.0);
  EXPECT_DOUBLE_EQ(curves.flow_weighted.total(), 0.0);
}

// ------------------------------------------------------------ Categorize --

TEST(Categorize, ShortCategories) {
  EXPECT_EQ(short_category(true, true), ShortCategory::kActiveServer);
  EXPECT_EQ(short_category(false, true), ShortCategory::kIdleServer);
  EXPECT_EQ(short_category(true, false), ShortCategory::kFirewallOrBirth);
  EXPECT_EQ(short_category(false, false), ShortCategory::kNonServer);
  EXPECT_EQ(short_category_label(ShortCategory::kIdleServer),
            "idle server address");
}

TEST(Categorize, PaperRowsReproduced) {
  // Spot-check the classifier against rows of Table 4.
  EXPECT_EQ(extended_category_label({true, true, true, true, false}),
            "active server address");
  EXPECT_EQ(extended_category_label({true, true, false, false, true}),
            "server death");
  EXPECT_EQ(extended_category_label({true, true, false, true, false}),
            "mostly idle");
  EXPECT_EQ(extended_category_label({false, true, true, false, false}),
            "semi-idle");
  EXPECT_EQ(extended_category_label({false, true, false, false, false}),
            "idle");
  EXPECT_EQ(extended_category_label({false, true, false, true, true}),
            "idle/intermittent");
  EXPECT_EQ(extended_category_label({true, false, true, false, false}),
            "possible firewall");
  EXPECT_EQ(extended_category_label({false, false, false, false, false}),
            "non-server address");
  EXPECT_EQ(extended_category_label({false, false, true, true, true}),
            "intermittent/active");
  EXPECT_EQ(extended_category_label({false, false, true, false, false}),
            "possible firewall/birth");
  EXPECT_EQ(extended_category_label({false, false, false, true, false}),
            "birth/idle");
}

TEST(Categorize, AllCombinationsClassified) {
  // Every one of the 32 observation vectors must map to a paper row.
  for (int bits = 0; bits < 32; ++bits) {
    const ObservationVector v{(bits & 1) != 0, (bits & 2) != 0,
                              (bits & 4) != 0, (bits & 8) != 0,
                              (bits & 16) != 0};
    EXPECT_NE(extended_category_label(v), "unclassified") << "bits " << bits;
  }
}

TEST(Categorize, AggregationCountsAndOrder) {
  ExtendedCategorization agg;
  for (int i = 0; i < 5; ++i) agg.add({false, false, false, false, false});
  agg.add({true, true, true, true, false});
  EXPECT_EQ(agg.total(), 6u);
  const auto rows = agg.rows();
  ASSERT_EQ(rows.size(), 19u);  // the paper's 19 rows, fixed order
  EXPECT_EQ(rows[0].label, "active server address");
  EXPECT_EQ(rows[0].count, 1u);
  std::uint64_t sum = 0;
  for (const auto& row : rows) sum += row.count;
  EXPECT_EQ(sum, 6u);
}

// ----------------------------------------------------- FirewallConfirm --

TEST(FirewallConfirm, MixedResponseMethod) {
  using active::ProbeOutcome;
  using active::ProbeStatus;
  using active::ScanRecord;
  ServiceTable passive_table;
  std::unordered_set<Ipv4> candidates{addr(1)};

  std::vector<ScanRecord> scans(1);
  scans[0].started = kEpoch + hours(1);
  scans[0].finished = kEpoch + hours(3);
  // addr(1): RST on port 22, silence on 80 -> selective dropping.
  scans[0].outcomes = {
      {addr(1), net::Proto::kTcp, ProbeStatus::kClosed, 22, kEpoch + hours(1)},
      {addr(1), net::Proto::kTcp, ProbeStatus::kFiltered, 80,
       kEpoch + hours(1)},
  };
  const auto result = confirm_firewalls(candidates, passive_table, scans);
  EXPECT_TRUE(result.by_mixed_response.contains(addr(1)));
  EXPECT_EQ(result.confirmed().size(), 1u);
}

TEST(FirewallConfirm, ActivityDuringScanMethod) {
  using active::ProbeOutcome;
  using active::ProbeStatus;
  using active::ScanRecord;
  ServiceTable passive_table;
  const ServiceKey key{addr(2), net::Proto::kTcp, 80};
  passive_table.discover(key, kEpoch + minutes(30));
  passive_table.count_flow(key, addr(900), kEpoch + hours(2));  // during scan

  std::vector<ScanRecord> scans(1);
  scans[0].started = kEpoch + hours(1);
  scans[0].finished = kEpoch + hours(3);
  scans[0].outcomes = {
      {addr(2), net::Proto::kTcp, ProbeStatus::kFiltered, 80,
       kEpoch + hours(1)},
  };
  const auto result =
      confirm_firewalls({addr(2)}, passive_table, scans);
  EXPECT_TRUE(result.by_activity.contains(addr(2)));
}

TEST(FirewallConfirm, QuietCandidateUnconfirmed) {
  using active::ProbeStatus;
  using active::ScanRecord;
  ServiceTable passive_table;
  std::vector<ScanRecord> scans(1);
  scans[0].started = kEpoch + hours(1);
  scans[0].finished = kEpoch + hours(3);
  // All probes silent, no RST anywhere, no passive activity during scan.
  scans[0].outcomes = {
      {addr(3), net::Proto::kTcp, ProbeStatus::kFiltered, 80,
       kEpoch + hours(1)},
      {addr(3), net::Proto::kTcp, ProbeStatus::kFiltered, 22,
       kEpoch + hours(1)},
  };
  const auto result = confirm_firewalls({addr(3)}, passive_table, scans);
  EXPECT_TRUE(result.confirmed().empty());
  EXPECT_EQ(result.candidates.size(), 1u);
}

}  // namespace
}  // namespace svcdisc::core
