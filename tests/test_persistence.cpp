// Tests for ServiceTable persistence (passive/table_io) and the scan
// report formatter (active/scan_report).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "active/scan_report.h"
#include "passive/table_io.h"

namespace svcdisc {
namespace {

using net::Ipv4;
using passive::ServiceKey;
using passive::ServiceTable;
using util::hours;
using util::kEpoch;

ServiceKey key(int i, net::Port port = 80,
               net::Proto proto = net::Proto::kTcp) {
  return {Ipv4::from_octets(128, 125, static_cast<std::uint8_t>(i / 256),
                            static_cast<std::uint8_t>(i % 256)),
          proto, port};
}

TEST(TableIo, RoundTripPreservesEverythingObservable) {
  ServiceTable table;
  table.discover(key(1), kEpoch + hours(2));
  table.count_flow(key(1), Ipv4::from_octets(66, 1, 1, 1), kEpoch + hours(3));
  table.count_flow(key(1), Ipv4::from_octets(66, 1, 1, 2), kEpoch + hours(9));
  table.discover(key(2, 53, net::Proto::kUdp), kEpoch + hours(5));
  table.discover(key(3, 22), kEpoch + hours(1));

  const std::string path = ::testing::TempDir() + "/svcdisc_table.tsv";
  ASSERT_TRUE(passive::save_table(table, path));
  const auto loaded = passive::load_table(path);
  ASSERT_TRUE(loaded.ok);
  EXPECT_EQ(loaded.rows, 3u);
  EXPECT_EQ(loaded.malformed, 0u);
  EXPECT_EQ(loaded.table.size(), 3u);

  const auto* record = loaded.table.find(key(1));
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->first_seen, kEpoch + hours(2));
  EXPECT_EQ(record->last_activity, kEpoch + hours(9));
  EXPECT_EQ(record->flows, 2u);
  EXPECT_EQ(record->clients.size(), 2u);
  EXPECT_TRUE(loaded.table.contains(key(2, 53, net::Proto::kUdp)));
  std::remove(path.c_str());
}

TEST(TableIo, ChronologicalOrderStable) {
  ServiceTable table;
  table.discover(key(5), kEpoch + hours(5));
  table.discover(key(4), kEpoch + hours(1));
  const std::string path = ::testing::TempDir() + "/svcdisc_order.tsv";
  ASSERT_TRUE(passive::save_table(table, path));
  std::ifstream in(path);
  std::string header, first;
  std::getline(in, header);
  std::getline(in, first);
  EXPECT_NE(first.find("128.125.0.4"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TableIo, MalformedRowsCountedNotFatal) {
  const std::string path = ::testing::TempDir() + "/svcdisc_bad.tsv";
  {
    std::ofstream out(path);
    out << "# header\n";
    out << "128.125.0.1\ttcp\t80\t100\t200\t3\t2\n";
    out << "not-an-addr\ttcp\t80\t100\t200\t3\t2\n";
    out << "128.125.0.2\ttcp\t99999\t100\t200\t3\t2\n";  // bad port
    out << "128.125.0.3\ttcp\t80\t100\n";                // short row
    out << "128.125.0.4\ticmp\t0\t100\t200\t3\t2\n";     // valid: icmp rows
                                                         // reload since the
                                                         // save/load asymmetry
                                                         // fix
    out << "128.125.0.5\tsctp\t80\t100\t200\t3\t2\n";    // unknown proto
    out << "128.125.0.6\ttcp\t80\t300\t200\t3\t2\n";     // first_seen after
                                                         // last_activity
  }
  const auto loaded = passive::load_table(path);
  ASSERT_TRUE(loaded.ok);
  EXPECT_EQ(loaded.rows, 2u);
  EXPECT_EQ(loaded.malformed, 5u);
  EXPECT_EQ(loaded.clamped, 0u);
  EXPECT_TRUE(loaded.table.contains(
      {Ipv4::from_octets(128, 125, 0, 4), net::Proto::kIcmp, 0}));
  std::remove(path.c_str());
}

TEST(TableIo, MissingFileReportsFailure) {
  const auto loaded = passive::load_table("/nonexistent/table.tsv");
  EXPECT_FALSE(loaded.ok);
}

// ------------------------------------------------------------- diff --

TEST(TableDiff, DetectsAppearedAndDisappeared) {
  ServiceTable before, after;
  before.discover(key(1), kEpoch);            // survives
  before.discover(key(2), kEpoch);            // disappears
  after.discover(key(1), kEpoch + hours(1));
  after.discover(key(3), kEpoch + hours(2));  // appears
  after.discover(key(3, 22), kEpoch + hours(2));

  const auto diff = passive::diff_tables(before, after);
  EXPECT_EQ(diff.unchanged, 1u);
  ASSERT_EQ(diff.appeared.size(), 2u);
  EXPECT_EQ(diff.appeared[0].port, 22);  // sorted by addr then port
  EXPECT_EQ(diff.appeared[1].port, 80);
  ASSERT_EQ(diff.disappeared.size(), 1u);
  EXPECT_EQ(diff.disappeared[0].addr, key(2).addr);
}

TEST(TableDiff, IdenticalTablesEmptyDiff) {
  ServiceTable t;
  t.discover(key(1), kEpoch);
  const auto diff = passive::diff_tables(t, t);
  EXPECT_TRUE(diff.appeared.empty());
  EXPECT_TRUE(diff.disappeared.empty());
  EXPECT_EQ(diff.unchanged, 1u);
}

TEST(TableDiff, PortGranularity) {
  // Same address, new port: appears, does not count as unchanged.
  ServiceTable before, after;
  before.discover(key(1, 80), kEpoch);
  after.discover(key(1, 80), kEpoch);
  after.discover(key(1, 443), kEpoch);
  const auto diff = passive::diff_tables(before, after);
  EXPECT_EQ(diff.unchanged, 1u);
  ASSERT_EQ(diff.appeared.size(), 1u);
  EXPECT_EQ(diff.appeared[0].port, 443);
}

// -------------------------------------------------------- scan report --

active::ScanRecord sample_record() {
  using active::ProbeOutcome;
  using active::ProbeStatus;
  active::ScanRecord record;
  record.index = 3;
  record.started = kEpoch + hours(1);
  record.finished = kEpoch + hours(2);
  record.outcomes = {
      {Ipv4::from_octets(128, 125, 1, 1), net::Proto::kTcp,
       ProbeStatus::kOpen, 22, kEpoch + hours(1)},
      {Ipv4::from_octets(128, 125, 1, 1), net::Proto::kTcp,
       ProbeStatus::kClosed, 80, kEpoch + hours(1)},
      {Ipv4::from_octets(128, 125, 1, 2), net::Proto::kTcp,
       ProbeStatus::kFiltered, 22, kEpoch + hours(1)},
      {Ipv4::from_octets(128, 125, 1, 3), net::Proto::kUdp,
       ProbeStatus::kOpenUdp, 53, kEpoch + hours(1)},
  };
  return record;
}

TEST(ScanReport, ListsOpenPortsPerHost) {
  const util::Calendar cal;
  const std::string report =
      active::format_scan_report(sample_record(), cal);
  EXPECT_NE(report.find("scan #3"), std::string::npos);
  EXPECT_NE(report.find("host 128.125.1.1"), std::string::npos);
  EXPECT_NE(report.find("22/tcp open ssh"), std::string::npos);
  EXPECT_NE(report.find("53/udp open dns"), std::string::npos);
  // Closed ports summarized, not listed, by default.
  EXPECT_EQ(report.find("80/tcp closed"), std::string::npos);
  // Host with only filtered ports is not an open host.
  EXPECT_EQ(report.find("host 128.125.1.2"), std::string::npos);
  EXPECT_NE(report.find("2 hosts with open services"), std::string::npos);
}

TEST(ScanReport, ShowClosedOption) {
  const util::Calendar cal;
  active::ReportOptions options;
  options.show_closed = true;
  const std::string report =
      active::format_scan_report(sample_record(), cal, options);
  EXPECT_NE(report.find("80/tcp closed"), std::string::npos);
}

TEST(ScanReport, MaxHostsTruncates) {
  const util::Calendar cal;
  active::ReportOptions options;
  options.max_hosts = 1;
  const std::string report =
      active::format_scan_report(sample_record(), cal, options);
  EXPECT_NE(report.find("(1 more hosts with open ports)"),
            std::string::npos);
}

}  // namespace
}  // namespace svcdisc
