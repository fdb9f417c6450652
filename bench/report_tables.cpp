// Tables 1-8 of the paper as reports (DESIGN.md §3, EXPERIMENTS.md).
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/table.h"
#include "core/categorize.h"
#include "core/completeness.h"
#include "core/report.h"
#include "figures.h"
#include "webcat/categorizer.h"
#include "webcat/fetcher.h"

namespace svcdisc::bench {
namespace {

using analysis::fmt_count;
using analysis::fmt_count_pct;

// ---- Table 1: the dataset inventory, from the scenario presets ----------

std::string start_date(const workload::CampusConfig& cfg) {
  const util::Calendar cal(cfg.cal_year, cfg.cal_month, cfg.cal_day,
                           cfg.cal_hour);
  return cal.month_day(util::kEpoch) + "-" + std::to_string(cfg.cal_year);
}

std::size_t address_count(const workload::CampusConfig& cfg) {
  std::size_t n = cfg.static_addresses;
  if (cfg.transient_blocks) {
    n += 256 + 1024 + 512;  // VPN + DHCP + PPP
    if (cfg.include_wireless_in_scan) n += 512;
  }
  return n;
}

int table1(Results) {
  struct DatasetRow {
    const char* name;
    workload::CampusConfig cfg;
    const char* scans;
    const char* services;
  };
  std::printf("== Table 1: list of datasets ==\n\n");
  const DatasetRow rows[] = {
      {"DTCP1-12h", workload::CampusConfig::dtcp1_18d(), "once",
       "TCP/selected"},
      {"DTCP1-18d", workload::CampusConfig::dtcp1_18d(), "every 12 hrs",
       "TCP/selected"},
      {"DTCP1-90d", workload::CampusConfig::dtcp1_90d(), "-", "TCP/selected"},
      {"DTCPbreak", workload::CampusConfig::dtcp_break(), "every 12 hrs",
       "TCP/selected"},
      {"DTCPall", workload::CampusConfig::dtcp_all(), "once", "TCP/all"},
      {"DUDP", workload::CampusConfig::dudp(), "once", "UDP/selected"},
  };

  analysis::TextTable table({"Dataset", "Start", "Duration", "Scans",
                             "Services", "Addresses"});
  for (const DatasetRow& row : rows) {
    char duration[32];
    const double days = row.cfg.duration.days();
    if (days >= 1.0) {
      std::snprintf(duration, sizeof duration, "%.0f days", days);
    } else {
      std::snprintf(duration, sizeof duration, "%.0f hours",
                    row.cfg.duration.hours());
    }
    // DTCP1-12h reuses the 18-d scenario, truncated.
    if (std::string(row.name) == "DTCP1-12h") {
      std::snprintf(duration, sizeof duration, "12 hours");
    }
    table.add_row({row.name, start_date(row.cfg), duration, row.scans,
                   row.services, fmt_count(address_count(row.cfg))});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\npaper reference: DTCP1 family covers 16,130 addresses (13,826\n"
      "static + VPN /24 + DHCP /22 + PPP /23 + wireless /23; wireless is\n"
      "in the address space but was not probeable); DTCPall covers one\n"
      "/24 (256); DUDP covers the /16 for one day.\n");
  return 0;
}

// ---- Table 2: completeness at 12 h / 25 h / 205 h / 410 h (1 / 2 / 17 /
// 35 scans) of DTCP1-18d -------------------------------------------------

int table2(Results runs) {
  struct Cut {
    const char* share;
    double hours;
    // Paper values for the reference row (union, both, active-only,
    // passive-only).
    int p_union, p_both, p_aonly, p_ponly;
  };
  static constexpr Cut kCuts[] = {
      {"3%", 12, 1748, 286, 1421, 41},
      {"6%", 25, 1848, 1074, 716, 58},
      {"50%", 205, 2551, 1738, 683, 130},
      {"100%", 410, 2960, 1925, 848, 186},
  };
  core::CampaignResult& run = *runs[0];
  print_header(
      "Table 2: completeness of active and passive methods (DTCP1-18d)", run);

  analysis::TextTable table({"Measure", "12h/1scan", "25h/2", "205h/17",
                             "410h/35"});
  std::vector<core::Completeness> cols;
  for (const Cut& cut : kCuts) {
    const auto cutoff = util::kEpoch + util::seconds_f(cut.hours * 3600.0);
    cols.push_back(core::completeness(
        core::addresses_found(run.e().monitor().table(), cutoff),
        core::addresses_found(run.e().prober().table(), cutoff)));
  }

  const auto row = [&](const char* name, auto getter) {
    std::vector<std::string> cells{name};
    for (const auto& c : cols) {
      cells.push_back(fmt_count_pct(getter(c), c.union_count));
    }
    table.add_row(std::move(cells));
  };
  row("Total servers found (union)",
      [](const core::Completeness& c) { return c.union_count; });
  row("Passive AND Active",
      [](const core::Completeness& c) { return c.both; });
  row("Active only",
      [](const core::Completeness& c) { return c.active_only; });
  row("Passive only",
      [](const core::Completeness& c) { return c.passive_only; });
  table.add_rule();
  row("Active", [](const core::Completeness& c) { return c.active_total; });
  row("Passive", [](const core::Completeness& c) { return c.passive_total; });
  std::fputs(table.render().c_str(), stdout);

  std::printf("\npaper reference (union / both / active-only / passive-only):\n");
  for (const Cut& cut : kCuts) {
    std::printf("  %-5s %s / %s / %s / %s\n", cut.share,
                fmt_count(static_cast<std::uint64_t>(cut.p_union)).c_str(),
                fmt_count(static_cast<std::uint64_t>(cut.p_both)).c_str(),
                fmt_count(static_cast<std::uint64_t>(cut.p_aonly)).c_str(),
                fmt_count(static_cast<std::uint64_t>(cut.p_ponly)).c_str());
  }
  std::printf(
      "\nshape checks: one scan finds ~98%% of the 12-h union; 12-h passive"
      " ~19%%;\n18-d passive ~71%% vs 35-scan active ~94%%.\n");
  return 0;
}

// ---- Table 3: 12-hour categorization (DTCP1-12h) -------------------------

// DTCP1-12h is literally the first 12 hours of DTCP1-18d plus its first
// scan: the full 18-day scenario (identical sweep/traffic schedules) with
// one scan, simulated for 14 hours.
Run dtcp1_12h() {
  return {"dtcp1_18d", R"({"engine": {"scans": 1}})", nullptr,
          [](workload::Campus& campus, core::DiscoveryEngine&) {
            campus.start();
            campus.simulator().run_until(util::kEpoch + util::hours(14));
          }};
}

int table3(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Table 3: address categorization (DTCP1-12h)", run);

  const auto cutoff = util::kEpoch + util::hours(12);
  const auto passive =
      core::addresses_found(run.e().monitor().table(), cutoff);
  const auto active = core::addresses_found(run.e().prober().table(), cutoff);

  std::uint64_t counts[4] = {0, 0, 0, 0};
  for (const net::Ipv4 addr : run.c().scan_targets()) {
    const auto cat = core::short_category(passive.contains(addr),
                                          active.contains(addr));
    ++counts[static_cast<int>(cat)];
  }

  analysis::TextTable table({"Passive", "Active", "categorization", "count",
                             "paper"});
  const auto row = [&](const char* p, const char* a, core::ShortCategory cat,
                       const char* paper) {
    table.add_row({p, a, std::string(core::short_category_label(cat)),
                   fmt_count(counts[static_cast<int>(cat)]), paper});
  };
  row("yes", "yes", core::ShortCategory::kActiveServer, "286");
  row("no", "yes", core::ShortCategory::kIdleServer, "1,421");
  row("yes", "no", core::ShortCategory::kFirewallOrBirth, "41");
  row("no", "no", core::ShortCategory::kNonServer, "14,553");
  std::fputs(table.render().c_str(), stdout);
  std::printf("\n(total %s addresses; paper total 16,130 including the\n"
              "unprobeable wireless block)\n",
              fmt_count(run.c().scan_targets().size()).c_str());
  return 0;
}

// ---- Table 4: the 12-hour observations refined by the rest of the 18
// days and by address transience -----------------------------------------

int table4(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Table 4: extended address categorization (DTCP1-18d)", run);

  const auto boundary = util::kEpoch + util::hours(12);
  const auto end = util::kEpoch + run.c().config().duration;

  // 12-hour view.
  const auto passive_12h =
      core::addresses_found(run.e().monitor().table(), boundary);
  const auto active_12h = core::address_times_from_scans(
      run.e().prober().scans(),
      [](const active::ScanRecord& s) { return s.index == 0; });

  // Subsequent view. For addresses not yet known, any later passive
  // discovery counts (including sweep-elicited ones). For addresses
  // already found in the first 12 hours, "seen again" means renewed
  // genuine client traffic — a sweep answer proves reachability, not
  // continued use, and the paper's 242 "mostly idle" early finds are
  // precisely the ones that never attract another client.
  std::unordered_set<net::Ipv4> passive_later;
  const auto& scanners = run.e().scan_detector().scanners();
  run.e().monitor().table().for_each(
      [&](const passive::ServiceKey& key,
          const passive::ServiceRecord& record) {
        const bool known_early = passive_12h.contains(key.addr);
        if (known_early ? record.last_flow_excluding(scanners) > boundary
                        : record.first_seen > boundary) {
          passive_later.insert(key.addr);
        }
      });
  const auto active_later = core::address_times_from_scans(
      run.e().prober().scans(),
      [](const active::ScanRecord& s) { return s.index >= 1; });

  core::ExtendedCategorization categorization;
  for (const net::Ipv4 addr : run.c().scan_targets()) {
    core::ObservationVector v;
    v.passive_12h = passive_12h.contains(addr);
    v.active_12h = active_12h.contains(addr);
    v.passive_full = passive_later.contains(addr);
    v.active_full = active_later.contains(addr);
    v.transient = host::is_transient(run.c().class_of(addr));
    categorization.add(v);
  }

  // Paper counts, in the same row order as core::categorize's table.
  const char* paper[] = {"37",    "6",   "1",   "242", "99",  "1,247", "75",
                         "26",    "1",   "4",   "3",   "7",   "13,341",
                         "188",   "125", "655", "73",  "140", "31"};

  analysis::TextTable table({"12h: P A | later: P A | transient",
                             "categorization", "count", "paper"});
  const auto rows = categorization.rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.add_row({rows[i].pattern, rows[i].label, fmt_count(rows[i].count),
                   i < std::size(paper) ? paper[i] : ""});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\ntotal addresses categorized: %s (window to %s)\n",
              fmt_count(categorization.total()).c_str(),
              run.c().calendar().month_day(end).c_str());
  return 0;
}

// ---- Table 5: content served by detected web servers ---------------------

// Each discovered web server's root page is fetched a day after its
// first discovery (transient hosts are often gone by then -> "no
// response") and categorized by the signature engine. The fetches run
// two days past the campaign end, so this campaign never shares a job.
Report table5() {
  struct State {
    webcat::Categorizer categorizer;
    std::unordered_map<net::Ipv4, host::WebContent> category;
    std::unordered_set<net::Ipv4> fetch_scheduled;
  };
  auto state = std::make_shared<State>();
  const auto setup = [state](workload::Campus& campus,
                             core::DiscoveryEngine& engine) {
    auto& sim = campus.simulator();
    on_each_discovery(engine, [state, &campus, &sim](
                                  const passive::ServiceKey& key,
                                  util::TimePoint when) {
      if (key.proto != net::Proto::kTcp || key.port != net::kPortHttp) return;
      if (!state->fetch_scheduled.insert(key.addr).second) return;
      sim.at(when + util::days(1), [state, &campus, &sim, addr = key.addr] {
        state->category[addr] = state->categorizer.categorize(
            webcat::fetch_root_page(campus.host_at(addr), sim.now()));
      });
    });
  };
  const auto drive = [](workload::Campus& campus,
                        core::DiscoveryEngine& engine) {
    engine.run();
    // Let fetches scheduled near the end of the campaign fire.
    campus.simulator().run_until(util::kEpoch + campus.config().duration +
                                 util::days(2));
  };
  const auto render = [state](Results runs) {
    using host::WebContent;
    core::CampaignResult& run = *runs[0];
    print_header("Table 5: web server root-page content (DTCP1-18d)", run);

    const auto end = util::kEpoch + util::days(30);
    core::ServiceFilter web;
    web.port = net::kPortHttp;
    const auto passive =
        core::addresses_found(run.e().monitor().table(), end, web);
    const auto active =
        core::addresses_found(run.e().prober().table(), end, web);

    struct Row {
      WebContent content;
      const char* paper_union;
    };
    const Row rows[] = {
        {WebContent::kCustom, "170"},    {WebContent::kDefault, "493"},
        {WebContent::kMinimal, "11"},    {WebContent::kConfigStatus, "683"},
        {WebContent::kDatabase, "61"},   {WebContent::kRestricted, "17"},
        {WebContent::kNoResponse, "685"},
    };

    analysis::TextTable table({"Page type", "Total", "P&A", "Active only",
                               "Passive only", "Active", "Passive", "paper"});
    for (const Row& row : rows) {
      std::uint64_t total = 0, both = 0, a_only = 0, p_only = 0;
      for (const auto& [addr, content] : state->category) {
        if (content != row.content) continue;
        const bool p = passive.contains(addr);
        const bool a = active.contains(addr);
        if (!p && !a) continue;
        ++total;
        both += p && a;
        a_only += a && !p;
        p_only += p && !a;
      }
      table.add_row({std::string(webcat::web_content_name(row.content)),
                     fmt_count(total), fmt_count(both), fmt_count(a_only),
                     fmt_count(p_only), fmt_count(both + a_only),
                     fmt_count(both + p_only), row.paper_union});
    }
    std::fputs(table.render().c_str(), stdout);

    std::printf(
        "\nshape checks: passive finds ~all custom-content servers; most\n"
        "'no response' fetches are transient hosts gone by fetch time.\n");
    return 0;
  };
  return {"table5", {{"dtcp1_18d", "", setup, drive}}, render};
}

// ---- Table 6: discovery by service type (Web, FTP, SSH, MySQL) -----------

int table6(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Table 6: discovery by service type (DTCP1-18d)", run);

  struct Row {
    const char* name;
    net::Port port;
    const char* paper;  // union / P&A / A-only / P-only / A% / P%
  };
  const Row rows[] = {
      {"Web", net::kPortHttp, "2,120 / 1,428 / 497 / 195 / 91% / 77%"},
      {"FTP", net::kPortFtp, "815 / 566 / 241 / 8 / 99% / 70%"},
      {"SSH", net::kPortSsh, "925 / 701 / 221 / 3 / 100% / 76%"},
      {"MySQL", net::kPortMysql, "164 / 78 / 79 / 7 / 96% / 52%"},
  };

  const auto end = util::kEpoch + run.c().config().duration;
  analysis::TextTable table({"Service", "Total", "P&A", "Active only",
                             "Passive only", "Active", "Passive"});
  for (const Row& row : rows) {
    core::ServiceFilter filter;
    filter.port = row.port;
    const auto c = core::completeness(
        core::addresses_found(run.e().monitor().table(), end, filter),
        core::addresses_found(run.e().prober().table(), end, filter));
    table.add_row({row.name, fmt_count_pct(c.union_count, c.union_count),
                   fmt_count_pct(c.both, c.union_count),
                   fmt_count_pct(c.active_only, c.union_count),
                   fmt_count_pct(c.passive_only, c.union_count),
                   fmt_count_pct(c.active_total, c.union_count),
                   fmt_count_pct(c.passive_total, c.union_count)});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\npaper (union / P&A / A-only / P-only / A / P):\n");
  for (const Row& row : rows) {
    std::printf("  %-6s %s\n", row.name, row.paper);
  }
  std::printf(
      "\nshape checks: MySQL has the worst passive completeness (~52%%,\n"
      "blocked-external servers hide from the border even during the\n"
      "MySQL sweep); active finds ~all FTP and SSH.\n");
  return 0;
}

// ---- Table 7: UDP service discovery (DUDP) -------------------------------

// 24 hours of passive monitoring plus one generic UDP scan of ports
// 80/53/137/27015. The scan of 4 ports x ~15.6k addresses outlasts the
// 24-h passive window slightly at the configured rate; let it finish.
Run dudp_full_scan() {
  return {"dudp", "", nullptr,
          [](workload::Campus& campus, core::DiscoveryEngine& engine) {
            engine.run();
            while (engine.prober().scan_in_progress()) {
              campus.simulator().step();
            }
          }};
}

int table7(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Table 7: UDP services discovered (DUDP)", run);

  if (run.e().prober().scans().empty()) {
    std::fprintf(stderr, "no scan completed\n");
    return 1;
  }
  const auto& scan = run.e().prober().scans().front();

  const auto& ports = run.c().udp_ports();
  std::unordered_map<net::Port, std::uint64_t> open, possible, closed,
      passive_counts;

  // Host-level: addresses that answered nothing at all.
  std::unordered_set<net::Ipv4> responded;
  std::unordered_set<net::Ipv4> all_addrs;
  for (const auto& outcome : scan.outcomes) {
    all_addrs.insert(outcome.addr);
    switch (outcome.status) {
      case active::ProbeStatus::kOpenUdp:
        ++open[outcome.port];
        responded.insert(outcome.addr);
        break;
      case active::ProbeStatus::kClosed:
        ++closed[outcome.port];
        responded.insert(outcome.addr);
        break;
      case active::ProbeStatus::kMaybeOpen:
        ++possible[outcome.port];
        break;
      default:
        break;
    }
  }
  std::uint64_t silent_hosts = 0;
  for (const net::Ipv4 addr : all_addrs) {
    silent_hosts += !responded.contains(addr);
  }

  const auto cutoff = util::kEpoch + util::days(1);
  run.e().monitor().table().for_each(
      [&](const passive::ServiceKey& key, const passive::ServiceRecord& r) {
        if (key.proto == net::Proto::kUdp && r.first_seen <= cutoff) {
          ++passive_counts[key.port];
        }
      });

  analysis::TextTable table({"service", "All", "Web 80", "DNS 53",
                             "NetBIOS 137", "Gaming 27015"});
  const auto row = [&](const char* name,
                       std::unordered_map<net::Port, std::uint64_t>& m) {
    std::uint64_t total = 0;
    for (const auto& [port, count] : m) total += count;
    std::vector<std::string> cells{name, fmt_count(total)};
    for (const net::Port p : ports) cells.push_back(fmt_count(m[p]));
    table.add_row(std::move(cells));
  };
  row("Passive", passive_counts);
  table.add_rule();
  row("Active: definitely open (UDP response)", open);
  row("Active: possibly open", possible);
  table.add_row({"Active: no response from any probed port",
                 fmt_count(silent_hosts), "-", "-", "-", "-"});
  row("Active: definitely closed (ICMP response)", closed);
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\npaper: passive 37 (0/32/4/1); definitely open 116 (0/52/64/0);\n"
      "possibly open 4,862 (137/376/4,238/111); silent hosts 6,359;\n"
      "definitely closed 9,826 (9,687/9,449/5,572/9,713).\n"
      "shape checks: NetBIOS dominates 'possibly open' (silent Windows\n"
      "hosts); passive UDP finds only the handful of genuinely used\n"
      "services.\n");
  return 0;
}

// ---- Table 8: servers found per monitored peering, duplicative and
// exclusive: DTCP1-18d (two commercial links) and DTCPbreak (plus
// Internet2) ---------------------------------------------------------------

void print_peerings(const char* title, core::CampaignResult& run) {
  const auto end = util::kEpoch + run.c().config().duration;
  std::vector<std::unordered_set<net::Ipv4>> per_link;
  for (std::size_t i = 0; i < run.e().link_monitor_count(); ++i) {
    per_link.push_back(
        core::addresses_found(run.e().link_monitor(i).table(), end));
  }
  const std::uint64_t all =
      core::addresses_found(run.e().monitor().table(), end).size();

  std::printf("%s\n", title);
  analysis::TextTable table({"link", "duplicative", "exclusive"});
  for (std::size_t i = 0; i < per_link.size(); ++i) {
    std::uint64_t exclusive = 0;
    for (const net::Ipv4 addr : per_link[i]) {
      bool elsewhere = false;
      for (std::size_t j = 0; j < per_link.size(); ++j) {
        if (j != i && per_link[j].contains(addr)) elsewhere = true;
      }
      exclusive += !elsewhere;
    }
    table.add_row({run.e().tap(i).name(),
                   fmt_count_pct(per_link[i].size(), all),
                   fmt_count_pct(exclusive, all)});
  }
  table.add_rule();
  table.add_row({"all", fmt_count(all), "-"});
  std::fputs(table.render().c_str(), stdout);
  std::printf("\n");
}

int table8(Results runs) {
  std::printf("== Table 8: servers found per monitored peering ==\n\n");
  print_peerings("DTCP1-18d (two commercial peerings):", *runs[0]);
  print_peerings("DTCPbreak (commercial + Internet2):", *runs[1]);
  std::printf(
      "paper: DTCP1-18d commercial1 1,874 (89%%)/201 (9.5%%), commercial2\n"
      "1,874 (89%%)/39 (1.8%%), all 2,111; DTCPbreak commercial1 1,770\n"
      "(96%%)/59, commercial2 1,711 (93%%)/1, Internet2 669 (36%%)/3,\n"
      "all 1,835.\n"
      "shape checks: any single commercial link sees ~90%% of servers;\n"
      "Internet2's AUP-limited clients see far fewer; exclusive servers\n"
      "are the rarely-contacted ones.\n");
  return 0;
}

}  // namespace

std::vector<Report> table_reports() {
  const Run dtcp1_18d{"dtcp1_18d"};
  return {
      {"table1", {}, table1},
      {"table2", {dtcp1_18d}, table2},
      {"table3", {dtcp1_12h()}, table3},
      {"table4", {dtcp1_18d}, table4},
      table5(),
      {"table6", {dtcp1_18d}, table6},
      {"table7", {dudp_full_scan()}, table7},
      {"table8", {dtcp1_18d, {"dtcp_break"}}, table8},
  };
}

}  // namespace svcdisc::bench
