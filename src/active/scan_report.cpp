#include "active/scan_report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>

#include "analysis/table.h"
#include "net/ports.h"

namespace svcdisc::active {
namespace {

const char* status_name(ProbeStatus status) {
  switch (status) {
    case ProbeStatus::kOpen: return "open";
    case ProbeStatus::kClosed: return "closed";
    case ProbeStatus::kFiltered: return "filtered";
    case ProbeStatus::kOpenUdp: return "open";
    case ProbeStatus::kMaybeOpen: return "open|filtered";
    case ProbeStatus::kNoHost: return "no-host";
    case ProbeStatus::kUnverified: return "unverified";
    case ProbeStatus::kPending: return "pending";
  }
  return "?";
}

}  // namespace

std::string format_scan_report(const ScanRecord& record,
                               const util::Calendar& calendar,
                               const ReportOptions& options) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "scan #%d: %s -> %s, %s probes\n",
                record.index,
                calendar.month_day_time(record.started).c_str(),
                calendar.month_day_time(record.finished).c_str(),
                analysis::fmt_count(record.outcomes.size()).c_str());
  out += line;
  if (record.hosts_pinged > 0) {
    std::snprintf(line, sizeof line,
                  "host discovery: %s pinged, %s responded\n",
                  analysis::fmt_count(record.hosts_pinged).c_str(),
                  analysis::fmt_count(record.hosts_alive).c_str());
    out += line;
  }

  // Group outcomes per host, ordered by address.
  std::map<std::uint32_t, std::vector<ProbeOutcome>> by_host;
  for (const ProbeOutcome& outcome : record.outcomes) {
    by_host[outcome.addr.value()].push_back(outcome);
  }

  std::size_t open_hosts = 0, responding = 0, silent = 0, printed = 0;
  for (const auto& [addr_value, outcomes] : by_host) {
    std::size_t open = 0, closed = 0, filtered = 0;
    for (const ProbeOutcome& o : outcomes) {
      open += o.status == ProbeStatus::kOpen ||
              o.status == ProbeStatus::kOpenUdp;
      closed += o.status == ProbeStatus::kClosed;
      filtered += o.status == ProbeStatus::kFiltered ||
                  o.status == ProbeStatus::kMaybeOpen;
    }
    if (open + closed > 0) {
      ++responding;
    } else {
      ++silent;
    }
    if (open == 0) continue;
    ++open_hosts;
    if (options.max_hosts != 0 && printed >= options.max_hosts) continue;
    ++printed;
    std::snprintf(line, sizeof line, "host %s: %zu open, %zu closed, %zu"
                  " filtered\n",
                  net::Ipv4(addr_value).to_string().c_str(), open, closed,
                  filtered);
    out += line;
    for (const ProbeOutcome& o : outcomes) {
      const bool is_open = o.status == ProbeStatus::kOpen ||
                           o.status == ProbeStatus::kOpenUdp;
      if (!is_open && !(options.show_closed &&
                        o.status == ProbeStatus::kClosed)) {
        continue;
      }
      const std::string_view known = net::port_name(o.port);
      const std::string name(known.empty() ? std::string_view("-") : known);
      std::snprintf(line, sizeof line, "  %u/%s %s %s\n", o.port,
                    o.proto == net::Proto::kTcp ? "tcp" : "udp",
                    status_name(o.status), name.c_str());
      out += line;
    }
  }
  if (options.max_hosts != 0 && open_hosts > printed) {
    std::snprintf(line, sizeof line, "... (%zu more hosts with open ports)\n",
                  open_hosts - printed);
    out += line;
  }
  std::snprintf(line, sizeof line,
                "%s hosts with open services; %s responding, %s silent\n",
                analysis::fmt_count(open_hosts).c_str(),
                analysis::fmt_count(responding).c_str(),
                analysis::fmt_count(silent).c_str());
  out += line;
  return out;
}

}  // namespace svcdisc::active
