// Figures 1-12 of the paper as reports (DESIGN.md §3, EXPERIMENTS.md).
// Each prints its table to stdout and writes its series as
// <name>.tsv + <name>.gp (Figure 11: a .tsv scatter) in the working
// directory.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "analysis/export.h"
#include "analysis/table.h"
#include "capture/sampler.h"
#include "core/completeness.h"
#include "core/report.h"
#include "core/weighted.h"
#include "figures.h"

namespace svcdisc::bench {
namespace {

using analysis::fmt_count;

std::string fmt_curve(const analysis::StepCurve& curve, util::TimePoint t) {
  return fmt_count(static_cast<std::uint64_t>(curve.at(t)));
}

// Writes <base>.tsv + <base>.gp and says so on stdout.
void write_series(const std::string& base, const std::string& title,
                  const std::vector<analysis::NamedCurve>& curves,
                  util::TimePoint end, std::size_t samples,
                  const util::Calendar& cal) {
  analysis::export_figure(base, title, curves, util::kEpoch, end, samples,
                          cal);
  std::printf("series written to %s.tsv (+ %s.gp)\n", base.c_str(),
              base.c_str());
}

core::ServiceFilter static_only(const workload::Campus& campus) {
  core::ServiceFilter filter;
  filter.address_pred = [&campus](net::Ipv4 addr) {
    return campus.class_of(addr) == host::AddressClass::kStatic;
  };
  return filter;
}

// The ground truth of a campaign: every address either method found.
std::unordered_set<net::Ipv4> union_addresses(core::CampaignResult& run,
                                              util::TimePoint end) {
  std::unordered_set<net::Ipv4> found;
  for (const auto& [addr, t] :
       core::address_discovery_times(run.e().monitor().table(), end)) {
    found.insert(addr);
  }
  for (const auto& [addr, t] :
       core::address_times_from_scans(run.e().prober().scans(), nullptr)) {
    found.insert(addr);
  }
  return found;
}

// Figures 2 and 12: cumulative discovery, passive and active, over all
// addresses and over static (non-transient) ones.
struct AllVsStatic {
  analysis::StepCurve p_all, a_all, p_static, a_static;

  AllVsStatic(core::CampaignResult& run, util::TimePoint end) {
    const auto statics = static_only(run.c());
    const auto& table = run.e().monitor().table();
    const auto& scans = run.e().prober().scans();
    p_all = core::discovery_curve(core::address_discovery_times(table, end));
    a_all =
        core::discovery_curve(core::address_times_from_scans(scans, nullptr));
    p_static = core::discovery_curve(
        core::address_discovery_times(table, end, statics));
    a_static = core::discovery_curve(
        core::address_times_from_scans(scans, nullptr, statics));
  }

  void print_days(const util::Calendar& cal, int last_day, int step) const {
    analysis::TextTable table({"date", "Passive(all)", "Active(all)",
                               "Passive(static)", "Active(static)"});
    for (int d = 0; d <= last_day; d += step) {
      const auto t = util::kEpoch + util::days(d);
      table.add_row({cal.month_day(t), fmt_curve(p_all, t),
                     fmt_curve(a_all, t), fmt_curve(p_static, t),
                     fmt_curve(a_static, t)});
    }
    std::fputs(table.render().c_str(), stdout);
  }

  void export_series(const std::string& base, const std::string& title,
                     util::TimePoint end, std::size_t samples,
                     const util::Calendar& cal) const {
    write_series(base, title,
                 {{"passive_all", &p_all, 0},
                  {"active_all", &a_all, 0},
                  {"passive_static", &p_static, 0},
                  {"active_static", &a_static, 0}},
                 end, samples, cal);
  }
};

// Figures 1 and 9: weighted and unweighted discovery over the first
// hours of a campaign, for passive monitoring and the first active scan,
// as percent of the window's union. Weights (flows, unique clients per
// server) are accumulated over the whole campaign, as in the paper
// (§4.1.2).
struct WeightedWindow {
  core::WeightedCurves passive, active;
  double servers{0}, flows{0}, clients{0};

  WeightedWindow(core::CampaignResult& run, util::TimePoint cutoff) {
    const auto weights = core::address_weights(run.e().monitor().table());
    const auto passive_times =
        core::address_discovery_times(run.e().monitor().table(), cutoff);
    const auto active_times = core::address_times_from_scans(
        run.e().prober().scans(),
        [](const active::ScanRecord& s) { return s.index == 0; });
    passive = core::weighted_curves(passive_times, weights);
    active = core::weighted_curves(active_times, weights);

    std::unordered_set<net::Ipv4> union_addrs;
    for (const auto& [addr, t] : passive_times) union_addrs.insert(addr);
    for (const auto& [addr, t] : active_times) union_addrs.insert(addr);
    for (const net::Ipv4 addr : union_addrs) {
      if (const auto it = weights.flows.find(addr);
          it != weights.flows.end()) {
        flows += it->second;
      }
      if (const auto it = weights.clients.find(addr);
          it != weights.clients.end()) {
        clients += it->second;
      }
    }
    servers = static_cast<double>(union_addrs.size());
  }

  void add_row(analysis::TextTable& table, std::string label,
               util::TimePoint t) const {
    const auto pct = [](double v, double total) {
      return analysis::fmt_double(total > 0 ? 100.0 * v / total : 0.0, 1);
    };
    table.add_row({std::move(label), pct(passive.unweighted.at(t), servers),
                   pct(passive.flow_weighted.at(t), flows),
                   pct(passive.client_weighted.at(t), clients),
                   pct(active.unweighted.at(t), servers),
                   pct(active.flow_weighted.at(t), flows),
                   pct(active.client_weighted.at(t), clients)});
  }

  void export_series(const std::string& base, const std::string& title,
                     util::TimePoint cutoff, std::size_t samples,
                     const util::Calendar& cal) const {
    write_series(base, title,
                 {{"passive_unweighted", &passive.unweighted, servers},
                  {"passive_flow", &passive.flow_weighted, flows},
                  {"passive_client", &passive.client_weighted, clients},
                  {"active_unweighted", &active.unweighted, servers},
                  {"active_flow", &active.flow_weighted, flows},
                  {"active_client", &active.client_weighted, clients}},
                 cutoff, samples, cal);
  }
};

analysis::TextTable weighted_table() {
  return analysis::TextTable({"time", "P unw", "P flow", "P client", "A unw",
                              "A flow", "A client"});
}

// Figures 5 and 6: active and passive discovery of the addresses a
// filter admits, as curves and as completeness against their union.
struct Split {
  std::string name;
  analysis::StepCurve active, passive;
  core::Completeness c;

  Split(std::string split_name, core::CampaignResult& run, util::TimePoint end,
        const core::ServiceFilter& filter)
      : name(std::move(split_name)) {
    const auto p_times = core::address_discovery_times(
        run.e().monitor().table(), end, filter);
    const auto a_times = core::address_times_from_scans(
        run.e().prober().scans(), nullptr, filter);
    std::unordered_set<net::Ipv4> p_set, a_set;
    for (const auto& [addr, t] : p_times) p_set.insert(addr);
    for (const auto& [addr, t] : a_times) a_set.insert(addr);
    active = core::discovery_curve(a_times);
    passive = core::discovery_curve(p_times);
    c = core::completeness(p_set, a_set);
  }
};

// Each split's active and passive curve as a share of its union.
std::vector<analysis::NamedCurve> split_series(
    const std::vector<Split>& splits) {
  std::vector<analysis::NamedCurve> named;
  for (const Split& split : splits) {
    const auto u = static_cast<double>(split.c.union_count);
    named.push_back({"active_" + split.name, &split.active, u});
    named.push_back({"passive_" + split.name, &split.passive, u});
  }
  return named;
}

// ---- Figure 1: weighted vs unweighted 12-h discovery (DTCP1-12h) ---------

int fig1(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Figure 1: weighted vs unweighted 12-h discovery (DTCP1-12h)",
               run);
  const auto cutoff = util::kEpoch + util::hours(12);
  const WeightedWindow window(run, cutoff);

  auto table = weighted_table();
  const auto& cal = run.c().calendar();
  for (int m = 0; m <= 12 * 60; m += 45) {
    const auto t = util::kEpoch + util::minutes(m);
    window.add_row(table, cal.time_of_day(t), t);
  }
  std::fputs(table.render().c_str(), stdout);

  const auto to_min = [](util::TimePoint t) {
    return static_cast<double>(t.usec) / 6e7;
  };
  std::printf(
      "\npassive reaches 99%% of flow-weighted servers at t+%.0f min\n"
      "(paper: 5 min), 99%% of client-weighted at t+%.0f min (paper: 14\n"
      "min); active needs over an hour for either (rate-limited walk).\n",
      to_min(window.passive.flow_weighted.time_to_reach(0.99 * window.flows)),
      to_min(window.passive.client_weighted.time_to_reach(0.99 *
                                                          window.clients)));

  window.export_series("fig1_weighted12h",
                       "Figure 1: weighted vs unweighted 12-h discovery",
                       cutoff, 145, cal);
  return 0;
}

// ---- Figure 2: 18-day cumulative discovery, all vs static addresses -----

int fig2(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Figure 2: 18-day cumulative discovery (DTCP1-18d)", run);

  const auto end = util::kEpoch + run.c().config().duration;
  const auto& cal = run.c().calendar();
  const AllVsStatic curves(run, end);
  curves.print_days(cal, 18, 2);

  // Tail discovery rates (last five days), the paper's levelling-off
  // metric (§4.2.1).
  const auto tail_rate = [&](const analysis::StepCurve& curve) {
    const double n = curve.at(end) - curve.at(end - util::days(5));
    return n / (5.0 * 24.0);  // servers per hour
  };
  std::printf(
      "\ntail discovery rate (last 5 days): passive all %.2f/h (paper ~1/h),"
      "\npassive static %.2f/h (paper ~1 per 3 h); active keeps finding\n"
      "new transient addresses each scan.\n",
      tail_rate(curves.p_all), tail_rate(curves.p_static));

  curves.export_series("fig2_discovery18d",
                       "Figure 2: 18-day cumulative discovery", end, 18 * 8,
                       cal);
  return 0;
}

// ---- Figure 3: 90-day vs 18-day passive discovery (DTCP1-90d) ------------

// The paper's 35 scans all fall inside the first 18 days of the 90-day
// passive window.
int fig3(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Figure 3: 90-day vs 18-day passive discovery (DTCP1-90d)",
               run);

  const auto end = util::kEpoch + run.c().config().duration;
  const auto p_all = core::discovery_curve(
      core::address_discovery_times(run.e().monitor().table(), end));
  const auto p_static = core::discovery_curve(core::address_discovery_times(
      run.e().monitor().table(), end, static_only(run.c())));

  analysis::TextTable table({"date", "Passive 90d (all)",
                             "Passive 90d (static)"});
  const auto& cal = run.c().calendar();
  for (int d = 0; d <= 90; d += 9) {
    const auto t = util::kEpoch + util::days(d);
    table.add_row({cal.month_day(t), fmt_curve(p_all, t),
                   fmt_curve(p_static, t)});
  }
  std::fputs(table.render().c_str(), stdout);

  const auto tail_rate_per_12h = [&](const analysis::StepCurve& curve) {
    const double n = curve.at(end) - curve.at(end - util::days(5));
    return n / 10.0;  // per 12 hours
  };
  std::printf(
      "\ntail rates in the last 5 days: static %.2f per 12 h (paper ~1 per\n"
      "12 h), all %.2f per 12 h (paper ~8 per 12 h, one every ~1.5 h):\n"
      "transient churn keeps all-host discovery from levelling off while\n"
      "static-only flattens.\n",
      tail_rate_per_12h(p_static), tail_rate_per_12h(p_all));
  const auto day18 = util::kEpoch + util::days(18);
  std::printf("18-day marks: all %s vs 90-day %s; static %s vs %s.\n",
              fmt_curve(p_all, day18).c_str(), fmt_curve(p_all, end).c_str(),
              fmt_curve(p_static, day18).c_str(),
              fmt_curve(p_static, end).c_str());

  write_series("fig3_discovery90d", "Figure 3: 90-day passive discovery",
               {{"passive_all", &p_all, 0}, {"passive_static", &p_static, 0}},
               end, 180, cal);
  return 0;
}

// ---- Figure 4: passive discovery with and without external scans ---------

// The "without" monitor (the pack's scanner_excluded_monitor) suppresses
// discoveries whose triggering response answered a source flagged by
// the scan detector (the paper's 100-target/100-RST rule).
int fig4(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header(
      "Figure 4: passive discovery with/without external scans (DTCP1-18d)",
      run);

  const auto end = util::kEpoch + run.c().config().duration;
  const auto with_scans = core::discovery_curve(
      core::address_discovery_times(run.e().monitor().table(), end));
  const auto without_scans = core::discovery_curve(
      core::address_discovery_times(run.e().excluded_monitor()->table(), end));

  analysis::TextTable table({"date", "with external scans",
                             "scans mitigated"});
  const auto& cal = run.c().calendar();
  for (int d = 0; d <= 18; d += 1) {
    const auto t = util::kEpoch + util::days(d);
    table.add_row({cal.month_day(t), fmt_curve(with_scans, t),
                   fmt_curve(without_scans, t)});
  }
  std::fputs(table.render().c_str(), stdout);

  const double with_total = with_scans.at(end);
  const double without_total = without_scans.at(end);
  std::printf(
      "\nat 18 days: %0.f with scans vs %0.f without: removing %u flagged\n"
      "scanner sources costs %.0f%% of passive discoveries (paper: 36%%,\n"
      "2,111 vs 1,332, 65 scanners).\n",
      with_total, without_total,
      static_cast<unsigned>(run.e().scan_detector().scanner_count()),
      100.0 * (with_total - without_total) / with_total);

  // "Equivalent days of monitoring" the scans buy: when does the
  // no-scans curve reach the with-scans day-3 level?
  const double day3 = with_scans.at(util::kEpoch + util::days(3));
  const auto catch_up = without_scans.time_to_reach(day3);
  if (catch_up <= end) {
    std::printf(
        "the with-scans day-3 level (%.0f servers) takes the mitigated\n"
        "monitor %.1f days to reach: external scans bought ~%.0f days\n"
        "(paper: 9-15 days of equivalent observation).\n",
        day3, catch_up.days(), catch_up.days() - 3.0);
  } else {
    std::printf(
        "the mitigated monitor never reaches the with-scans day-3 level\n"
        "(%.0f servers) within 18 days (paper: equivalent to 9-15 days of\n"
        "extra observation).\n",
        day3);
  }

  write_series("fig4_external_scans",
               "Figure 4: passive discovery with/without external scans",
               {{"with_scans", &with_scans, 0},
                {"scans_mitigated", &without_scans, 0}},
               end, 18 * 8, cal);
  return 0;
}

// ---- Figure 5: discovery by address transience (DHCP, PPP, VPN), as
// percent of each block's union (DTCP1-18d-trans) -------------------------

int fig5(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Figure 5: discovery by address transience (DTCP1-18d-trans)",
               run);

  const auto end = util::kEpoch + run.c().config().duration;
  const workload::Campus& campus = run.c();
  std::vector<Split> blocks;
  for (const auto& [name, cls] :
       {std::pair{"DHCP", host::AddressClass::kDhcp},
        std::pair{"PPP", host::AddressClass::kPpp},
        std::pair{"VPN", host::AddressClass::kVpn}}) {
    core::ServiceFilter filter;
    filter.address_pred = [&campus, cls = cls](net::Ipv4 addr) {
      return campus.class_of(addr) == cls;
    };
    blocks.emplace_back(name, run, end, filter);
  }

  analysis::TextTable table({"block", "union", "Active", "Passive",
                             "Active %", "Passive %"});
  for (const Split& block : blocks) {
    const core::Completeness& c = block.c;
    table.add_row({block.name, fmt_count(c.union_count),
                   fmt_count(c.active_total), fmt_count(c.passive_total),
                   analysis::fmt_pct(c.active_pct()),
                   analysis::fmt_pct(c.passive_pct())});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\npaper shape checks: DHCP mirrors the overall result (sticky\n"
      "residence-hall leases); PPP is the inversion where passive finds\n"
      "~15%% more than active (short online windows between scans); VPN\n"
      "is found actively (~100 servers) but almost never passively (~10):\n"
      "tunnel addresses carry no client traffic past the tap.\n");

  write_series("fig5_transient", "Figure 5: discovery by address transience",
               split_series(blocks), end, 18 * 8, campus.calendar());
  return 0;
}

// ---- Figure 6: discovery over time by protocol, as percent of each
// service's union ---------------------------------------------------------

int fig6(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Figure 6: discovery by protocol (DTCP1-18d)", run);

  const auto end = util::kEpoch + run.c().config().duration;
  std::vector<Split> protos;
  for (const auto& [name, port] :
       {std::pair{"Web", net::kPortHttp}, std::pair{"FTP", net::kPortFtp},
        std::pair{"SSH", net::kPortSsh}, std::pair{"MySQL", net::kPortMysql}}) {
    core::ServiceFilter filter;
    filter.port = port;
    protos.emplace_back(name, run, end, filter);
  }

  analysis::TextTable table({"date", "A Web", "P Web", "A FTP", "P FTP",
                             "A SSH", "P SSH", "A MySQL", "P MySQL"});
  const auto& cal = run.c().calendar();
  for (int d = 0; d <= 18; d += 3) {
    const auto t = util::kEpoch + util::days(d);
    std::vector<std::string> cells{cal.month_day(t)};
    for (const Split& proto : protos) {
      const auto u = static_cast<double>(proto.c.union_count);
      for (const auto* curve : {&proto.active, &proto.passive}) {
        cells.push_back(
            analysis::fmt_pct(u > 0 ? 100.0 * curve->at(t) / u : 0));
      }
    }
    table.add_row(std::move(cells));
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\npaper shape checks: stepped jumps in passive MySQL discovery at\n"
      "external sweeps, but blocked-external servers keep passive MySQL\n"
      "lowest (~52%%); SSH/FTP reach ~100%% actively while passive trails\n"
      "(~70-76%%): idle workstation/legacy servers.\n");

  write_series("fig6_protocols", "Figure 6: discovery by protocol",
               split_series(protos), end, 18 * 8, cal);
  return 0;
}

// ---- Figure 7: scan time-of-day and frequency — subsets of the 35 scans
// (11:00 "day", 23:00 "night", alternating, all) against the
// full-campaign ground truth ----------------------------------------------

int fig7(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Figure 7: scan time-of-day and frequency (DTCP1-18d)", run);

  const auto end = util::kEpoch + run.c().config().duration;
  // Ground truth: full passive + all 35 scans (the paper's baseline).
  const double denom = static_cast<double>(union_addresses(run, end).size());

  // Scans alternate 11:00 (even index) / 23:00 (odd index).
  struct Subset {
    const char* name;
    std::function<bool(const active::ScanRecord&)> pred;
  };
  const Subset subsets[] = {
      {"every 24h day (11:00)",
       [](const active::ScanRecord& s) { return s.index % 2 == 0; }},
      {"every 24h night (23:00)",
       [](const active::ScanRecord& s) { return s.index % 2 == 1; }},
      {"alternating day/night",
       [](const active::ScanRecord& s) {
         return s.index % 4 < 2 ? s.index % 4 == 0 : s.index % 4 == 3;
       }},
      {"every 12h (all 35)", [](const active::ScanRecord&) { return true; }},
  };

  analysis::TextTable table({"schedule", "scans", "servers found",
                             "% of ground truth"});
  const auto& scans = run.e().prober().scans();
  std::vector<analysis::StepCurve> curves;
  std::vector<std::unordered_set<net::Ipv4>> found_sets;
  for (const Subset& subset : subsets) {
    const auto times = core::address_times_from_scans(scans, subset.pred);
    const auto scan_count =
        std::count_if(scans.begin(), scans.end(), subset.pred);
    std::unordered_set<net::Ipv4> found;
    for (const auto& [addr, t] : times) found.insert(addr);
    table.add_row({subset.name, std::to_string(scan_count),
                   fmt_count(found.size()),
                   analysis::fmt_pct(100.0 * static_cast<double>(found.size()) /
                                     denom)});
    found_sets.push_back(std::move(found));
    curves.push_back(core::discovery_curve(times));
  }
  std::fputs(table.render().c_str(), stdout);

  // Day-vs-night asymmetry (paper: night finds 232 servers day misses;
  // day finds 325 night misses).
  std::uint64_t day_only = 0, night_only = 0;
  for (const net::Ipv4 addr : found_sets[0]) {
    day_only += !found_sets[1].contains(addr);
  }
  for (const net::Ipv4 addr : found_sets[1]) {
    night_only += !found_sets[0].contains(addr);
  }
  std::printf(
      "\nday-only finds %s servers night misses; night-only finds %s day\n"
      "misses (paper: 325 and 232: diurnal availability favors daytime).\n"
      "halving frequency to 24 h costs %.0f%% of completeness (paper: 8%%).\n",
      fmt_count(day_only).c_str(), fmt_count(night_only).c_str(),
      100.0 * static_cast<double>(found_sets[3].size() -
                                  std::max(found_sets[0].size(),
                                           found_sets[2].size())) /
          denom);

  write_series("fig7_timeofday", "Figure 7: scan time-of-day and frequency",
               {{"day_24h", &curves[0], denom},
                {"night_24h", &curves[1], denom},
                {"alternating", &curves[2], denom},
                {"every_12h", &curves[3], denom}},
               end, 18 * 4, run.c().calendar());
  return 0;
}

// ---- Figure 8: fixed-period sampling (first 2/5/10/30 minutes of every
// hour) vs continuous monitoring, plus the count-based and probabilistic
// samplers the paper leaves as future work --------------------------------

Report fig8() {
  static constexpr int kMinutes[] = {2, 5, 10, 30};
  auto sampled = std::make_shared<std::vector<passive::PassiveMonitor*>>();
  const auto setup = [sampled](workload::Campus&,
                               core::DiscoveryEngine& engine) {
    for (const int m : kMinutes) {
      sampled->push_back(&engine.add_sampled_monitor(
          std::make_unique<capture::FixedPeriodSampler>(util::minutes(m),
                                                        util::hours(1))));
    }
    // Future-work samplers at ~16% coverage for comparison with 10 min/h.
    sampled->push_back(&engine.add_sampled_monitor(
        std::make_unique<capture::ProbabilisticSampler>(10.0 / 60.0, 7)));
    sampled->push_back(&engine.add_sampled_monitor(
        std::make_unique<capture::CountSampler>(1, 5)));
  };
  const auto render = [sampled](Results runs) {
    core::CampaignResult& run = *runs[0];
    print_header("Figure 8: fixed-period sampling (DTCP1-18d)", run);

    const auto end = util::kEpoch + run.c().config().duration;
    const auto full = core::addresses_found(run.e().monitor().table(), end);
    const double denom = static_cast<double>(full.size());

    analysis::TextTable table({"sampling", "capture share", "servers",
                               "% of continuous"});
    std::vector<analysis::StepCurve> curves;
    const auto add = [&](const std::string& name, double share,
                         const passive::PassiveMonitor& monitor) {
      const auto times = core::address_discovery_times(monitor.table(), end);
      char share_text[16];
      std::snprintf(share_text, sizeof share_text, "%.0f%%", 100 * share);
      table.add_row({name, share_text, fmt_count(times.size()),
                     analysis::fmt_pct(100.0 *
                                       static_cast<double>(times.size()) /
                                       denom)});
      curves.push_back(core::discovery_curve(times));
    };
    for (std::size_t i = 0; i < std::size(kMinutes); ++i) {
      add(std::to_string(kMinutes[i]) + " min/hour", kMinutes[i] / 60.0,
          *(*sampled)[i]);
    }
    add("probabilistic p=1/6", 1.0 / 6.0, *(*sampled)[4]);
    add("count-based 1-in-6", 1.0 / 6.0, *(*sampled)[5]);
    table.add_rule();
    table.add_row({"no sampling", "100%", fmt_count(full.size()), "100%"});
    std::fputs(table.render().c_str(), stdout);

    std::printf(
        "\npaper shape checks: 30 min/h loses only ~5%% of servers; 10 min/h\n"
        "~11%%: the relationship is far from linear because short wide scans\n"
        "either land inside a capture window (full credit) or miss it\n"
        "entirely. Per-packet samplers at the same share spread the loss:\n"
        "they thin every sweep instead of gambling on window alignment\n"
        "(see bench_ablation_sampling for the full strategy grid).\n");

    std::vector<analysis::NamedCurve> named;
    const char* names[] = {"min2", "min5", "min10", "min30", "prob", "count"};
    for (std::size_t i = 0; i < curves.size(); ++i) {
      named.push_back({names[i], &curves[i], denom});
    }
    write_series("fig8_sampling", "Figure 8: fixed-period sampling", named,
                 end, 18 * 8, run.c().calendar());
    return 0;
  };
  return {"fig8", {{"dtcp1_18d", "", setup}}, render};
}

// ---- Figure 9: all-port weighted discovery over the first 24 hours of
// DTCPall (a /24 of lab machines, services on any port, one ~24-hour
// full-port scan) ---------------------------------------------------------

int fig9(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Figure 9: all-port weighted discovery over 24 h (DTCPall)",
               run);
  const auto cutoff = util::kEpoch + util::days(1);
  const WeightedWindow window(run, cutoff);

  auto table = weighted_table();
  const auto& cal = run.c().calendar();
  for (int h = 0; h <= 24; h += 2) {
    const auto t = util::kEpoch + util::hours(h);
    window.add_row(table, cal.time_of_day(t), t);
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\npaper shape checks: one dominant server carries ~97%% of the\n"
      "subnet's connections; weighted active discovery jumps when the\n"
      "slow full-port walk reaches it (~12:30), while passive has it\n"
      "almost immediately; passive jumps again at the early external\n"
      "sweeps.\n");

  window.export_series("fig9_allports24h",
                       "Figure 9: all-port weighted discovery over 24 h",
                       cutoff, 97, cal);
  return 0;
}

// ---- Figure 10: all-port discovery over the ten days of DTCPall (one
// active scan, ten days of passive monitoring) ----------------------------

int fig10(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Figure 10: all-port discovery over 10 days (DTCPall)", run);

  const auto end = util::kEpoch + run.c().config().duration;
  const auto passive = core::discovery_curve(
      core::address_discovery_times(run.e().monitor().table(), end));
  const auto active = core::discovery_curve(
      core::address_times_from_scans(run.e().prober().scans(), nullptr));

  analysis::TextTable table({"date", "Passive", "Active"});
  const auto& cal = run.c().calendar();
  for (int d = 0; d <= 10; ++d) {
    const auto t = util::kEpoch + util::days(d);
    table.add_row({cal.month_day(t), fmt_curve(passive, t),
                   fmt_curve(active, t)});
  }
  std::fputs(table.render().c_str(), stdout);

  const double p_total = passive.at(end);
  const double a_total = active.at(end);
  const double union_estimate =
      static_cast<double>(union_addresses(run, end).size());
  std::printf(
      "\nat 10 days: passive %.0f, active(1 scan) %.0f, union %.0f servers:\n"
      "passive tops out around %.0f%% of the union (paper: 131 servers,\n"
      "slightly over 50%%), because all-port mode exposes many local-only\n"
      "NT/epmap services passive can never see at the border.\n",
      p_total, a_total, union_estimate, 100.0 * p_total / union_estimate);

  write_series("fig10_allports10d",
               "Figure 10: all-port discovery over 10 days",
               {{"passive", &passive, 0}, {"active", &active, 0}}, end, 120,
               cal);
  return 0;
}

// ---- Figure 11: open-port scatter of DTCPall — per host, which TCP ports
// were found open and by which method, as a TSV scatter (host index,
// port, method) plus a per-port summary table ----------------------------

int fig11(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Figure 11: open-port scatter (DTCPall)", run);

  // Collect (addr, port) -> method bitmask (1=active, 2=passive).
  std::map<std::pair<std::uint32_t, net::Port>, int> found;
  run.e().prober().table().for_each(
      [&](const passive::ServiceKey& key, const passive::ServiceRecord&) {
        found[{key.addr.value(), key.port}] |= 1;
      });
  run.e().monitor().table().for_each(
      [&](const passive::ServiceKey& key, const passive::ServiceRecord&) {
        found[{key.addr.value(), key.port}] |= 2;
      });

  // Host numbering: randomized order (the paper randomizes to preserve
  // privacy); we map by address offset scrambled with a fixed multiplier.
  const std::uint32_t base = run.c().config().campus_base.value();
  const auto host_number = [base](std::uint32_t addr) {
    return (addr - base) * 151 % 256;
  };

  std::ofstream tsv("fig11_portscatter.tsv");
  tsv << "# host\tport\tmethod\n";
  std::map<net::Port, std::array<int, 3>> per_port;  // active/passive/both
  for (const auto& [key, mask] : found) {
    const char* method = mask == 1 ? "active" : mask == 2 ? "passive" : "both";
    tsv << host_number(key.first) << '\t' << key.second << '\t' << method
        << '\n';
    auto& counts = per_port[key.second];
    counts[0] += (mask & 1) != 0;
    counts[1] += (mask & 2) != 0;
    counts[2] += mask == 3;
  }

  analysis::TextTable table({"port", "service", "active", "passive", "both"});
  for (const auto& [port, counts] : per_port) {
    if (counts[0] + counts[1] < 3) continue;  // summarize common ports only
    const std::string_view name = net::port_name(port);
    table.add_row({std::to_string(port),
                   name.empty() ? "-" : std::string(name),
                   std::to_string(counts[0]),
                   std::to_string(counts[1]), std::to_string(counts[2])});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\ntotal open (host,port) pairs: %zu; scatter written to\n"
      "fig11_portscatter.tsv\n"
      "paper shape checks: passive sees every SSH/FTP server (two external\n"
      "sweeps), misses the NT-only services (epmap & friends: local-only\n"
      "traffic never crosses the border) and catches a few web servers\n"
      "born after the scan finished.\n",
      found.size());
  return 0;
}

// ---- Figure 12: discovery over 11 days of winter break (DTCPbreak):
// reduced student population, collapsed transient blocks, Internet2
// monitored but excluded from ground truth as in §5.5 ---------------------

int fig12(Results runs) {
  core::CampaignResult& run = *runs[0];
  print_header("Figure 12: winter-break discovery (DTCPbreak)", run);

  const auto end = util::kEpoch + run.c().config().duration;
  const auto& cal = run.c().calendar();
  const AllVsStatic curves(run, end);
  curves.print_days(cal, 11, 1);

  // Completeness comparison against the in-semester scenario (§5.5).
  const double truth = static_cast<double>(union_addresses(run, end).size());
  std::printf(
      "\nat 11 days: passive %.0f%% of the union (paper: 82%% during break\n"
      "vs 73%% in-semester), active %.0f%% — both curves level off because\n"
      "the transient population (VPN/PPP/dorm DHCP) is largely gone.\n",
      100.0 * curves.p_all.at(end) / truth,
      100.0 * curves.a_all.at(end) / truth);

  curves.export_series("fig12_break", "Figure 12: winter-break discovery", end,
                       11 * 8, cal);
  return 0;
}

}  // namespace

std::vector<Report> figure_reports() {
  const Run dtcp1_18d{"dtcp1_18d"};
  const Run dtcp_all{"dtcp_all"};
  return {
      {"fig1", {dtcp1_18d}, fig1},
      {"fig2", {dtcp1_18d}, fig2},
      {"fig3", {{"dtcp1_90d"}}, fig3},
      {"fig4", {dtcp1_18d}, fig4},
      {"fig5", {dtcp1_18d}, fig5},
      {"fig6", {dtcp1_18d}, fig6},
      {"fig7", {dtcp1_18d}, fig7},
      fig8(),
      {"fig9", {dtcp_all}, fig9},
      {"fig10", {dtcp_all}, fig10},
      {"fig11", {dtcp_all}, fig11},
      {"fig12", {{"dtcp_break"}}, fig12},
  };
}

}  // namespace svcdisc::bench
