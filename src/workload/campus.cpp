#include "workload/campus.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/logging.h"

namespace svcdisc::workload {
namespace {

using host::AddressClass;
using host::Firewall;
using host::FirewallMode;
using host::Host;
using host::LifecycleConfig;
using host::LifecycleKind;
using host::Service;
using host::WebContent;

// Block offsets inside the campus /16 (see campus.h).
constexpr std::uint32_t kVpnOffset = 14080;      // /24
constexpr std::uint32_t kDhcpOffset = 14336;     // /22
constexpr std::uint32_t kPppOffset = 15360;      // /23
constexpr std::uint32_t kWirelessOffset = 15872; // /23

Service tcp_service(net::Port port, WebContent web = WebContent::kUnspecified) {
  Service s;
  s.proto = net::Proto::kTcp;
  s.port = port;
  s.web = web;
  return s;
}

Service udp_service(net::Port port, bool replies_to_probe) {
  Service s;
  s.proto = net::Proto::kUdp;
  s.port = port;
  s.udp_replies_to_generic_probe = replies_to_probe;
  return s;
}

std::uint32_t round_up_pow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

bool CampusConfig::zoo_enabled() const {
  return middlebox_hosts > 0 || tarpit_hosts > 0 || cgnat_hosts > 0 ||
         iot_burst_hosts > 0 || outage_hosts > 0;
}

// ---------------------------------------------------------------------------
// Presets
// ---------------------------------------------------------------------------

CampusConfig CampusConfig::dtcp1_18d() {
  CampusConfig cfg;  // defaults are tuned for DTCP1-18d
  return cfg;
}

CampusConfig CampusConfig::dtcp1_90d() {
  CampusConfig cfg;
  cfg.duration = util::days(90);
  cfg.cal_month = 8;
  cfg.cal_day = 10;
  cfg.small_sweeps = 290;  // same sweep density over the longer window
  cfg.births = 300;
  return cfg;
}

CampusConfig CampusConfig::dtcp_break() {
  CampusConfig cfg;
  cfg.duration = util::days(11);
  cfg.cal_month = 12;
  cfg.cal_day = 16;
  // Students are gone: transient populations collapse (§5.5).
  cfg.dhcp_hosts = 300;
  cfg.ppp_hosts = 80;
  cfg.vpn_hosts = 40;
  cfg.wireless_hosts = 60;
  cfg.traffic_scale = 0.6;
  cfg.births = 60;
  cfg.small_sweeps = 36;
  cfg.internet2 = true;
  cfg.peerings = {{"commercial1", 0.55}, {"commercial2", 0.45}};
  return cfg;
}

CampusConfig CampusConfig::dtcp_all() {
  CampusConfig cfg;
  cfg.duration = util::days(10);
  cfg.cal_month = 8;
  cfg.cal_day = 26;
  cfg.all_ports_mode = true;
  cfg.transient_blocks = false;
  cfg.static_addresses = 256;
  // Populations are built by build_allports_population(); zero the
  // default static plan.
  cfg.static_plain = 0;
  cfg.web_custom = cfg.web_default = cfg.web_minimal = cfg.web_config = 0;
  cfg.web_database = cfg.web_restricted = 0;
  cfg.ssh_only = cfg.ftp_only = cfg.mysql_only = 0;
  cfg.births = 0;
  cfg.deaths = 0;
  cfg.firewalled = 0;
  cfg.hot_services = 0;
  cfg.steady_services = 0;
  cfg.oneshot_services = 0;
  cfg.dhcp_hosts = cfg.ppp_hosts = cfg.vpn_hosts = cfg.wireless_hosts = 0;
  cfg.small_sweeps = 8;
  cfg.prober_machines = 1;
  // ~256 addresses x ~1,100 ports at 3.3 probes/s ~ 24 h, matching the
  // paper's observation that the all-port scan took nearly a day.
  cfg.probe_rate_per_sec = 3.3;
  return cfg;
}

CampusConfig CampusConfig::dudp() {
  CampusConfig cfg;
  cfg.duration = util::days(1);
  cfg.cal_month = 10;
  cfg.cal_day = 18;
  cfg.udp_mode = true;
  cfg.small_sweeps = 4;
  cfg.external_scans = false;  // the UDP study is traffic + one scan
  return cfg;
}

CampusConfig CampusConfig::tiny() {
  CampusConfig cfg;
  cfg.duration = util::days(2);
  cfg.static_addresses = 600;
  cfg.static_plain = 120;
  cfg.web_custom = 10;
  cfg.web_default = 24;
  cfg.web_minimal = 2;
  cfg.web_config = 30;
  cfg.web_database = 4;
  cfg.web_restricted = 2;
  cfg.ssh_only = 25;
  cfg.ftp_only = 6;
  cfg.mysql_only = 4;
  cfg.births = 10;
  cfg.deaths = 2;
  cfg.firewalled = 3;
  cfg.hot_services = 5;
  cfg.hot_rate_max = 300.0;
  cfg.steady_services = 8;
  cfg.oneshot_services = 80;
  cfg.dhcp_hosts = 60;
  cfg.ppp_hosts = 40;
  cfg.vpn_hosts = 20;
  cfg.wireless_hosts = 20;
  cfg.small_sweeps = 6;
  cfg.probe_rate_per_sec = 60.0;
  return cfg;
}

CampusConfig CampusConfig::scale1m() {
  CampusConfig cfg = tiny();
  cfg.duration = util::days(1);
  // 16 x /16 = 1,048,576 universe addresses on top of the tiny campus.
  cfg.scale_blocks = 16;
  cfg.scale_block_bits = 16;
  cfg.scale_oneshot_contacts = 160;
  // Probe the whole space within the (single-day) campaign: ~2.6M probes
  // per machine per scan finish in a few simulated minutes at this rate.
  cfg.probe_rate_per_sec = 16000.0;
  // External scanners stay on: sweeps are rate-limited cursors (small
  // sweeps slice 600-2400 targets; the one big partial sweep that fits
  // a single day sends ~280k probes in its last two hours), so over 12M
  // simulated events they cost a few percent — and that late wide sweep
  // is the scripted scan burst the streaming change-point detector must
  // flag at scale.
  return cfg;
}

namespace {

constexpr Preset kPresets[] = {
    {"tiny", &CampusConfig::tiny,
     "small test campus (~600 static addrs, 2 days)"},
    {"dtcp1_18d", &CampusConfig::dtcp1_18d,
     "the paper's main dataset: 18 days, ~15.6k addrs, scans every 12h"},
    {"dtcp1_90d", &CampusConfig::dtcp1_90d,
     "90 days of passive monitoring"},
    {"dtcp_break", &CampusConfig::dtcp_break,
     "11 days over winter break (reduced population, Internet2)"},
    {"dtcp_all", &CampusConfig::dtcp_all,
     "one /24 of lab machines, services on any port, 10 days"},
    {"dudp", &CampusConfig::dudp, "UDP service discovery, 24 hours"},
    {"scale1m", &CampusConfig::scale1m,
     "tiny campus + 1,048,576-address scale universe, 1 day"},
};

}  // namespace

std::span<const Preset> presets() { return kPresets; }

const Preset* find_preset(std::string_view name) {
  for (const Preset& p : kPresets) {
    if (name == p.name) return &p;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Campus::Campus(CampusConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      calendar_(config_.cal_year, config_.cal_month, config_.cal_day,
                config_.cal_hour) {
  build_address_plan();
  network_ = std::make_unique<sim::Network>(sim_, internal_prefixes_);
  build_border();
  flows_ = std::make_unique<FlowGenerator>(
      *network_, DiurnalCurve(0.6, 14.0, calendar_), rng_.fork(0xF70F));

  if (config_.all_ports_mode) {
    build_allports_population();
  } else {
    build_static_population();
    build_transient_population();
    build_traffic();
    if (config_.udp_mode) build_udp_population();
  }
  // After the regular populations so their rng_ draw sequence — and with
  // it every existing golden — is untouched when the zoo is off.
  build_zoo_population();
  // Last of the builders, same rng-neutral-when-off contract.
  build_scale_universe();

  scanners_ = std::make_unique<ExternalScannerFleet>(*network_, scan_targets_);
  build_scanners();
}

Campus::~Campus() = default;

void Campus::build_address_plan() {
  const net::Prefix campus(config_.campus_base, 16);
  internal_prefixes_.push_back(campus);
  // Prober management subnet: internal, outside the monitored /16, so
  // probes never cross the border (paper §3.1).
  const net::Prefix mgmt(net::Ipv4::from_octets(10, 1, 0, 0), 24);
  internal_prefixes_.push_back(mgmt);
  for (std::uint32_t m = 0; m < config_.prober_machines; ++m) {
    prober_sources_.push_back(mgmt.at(m + 1));
  }

  scan_targets_->reserve(config_.static_addresses + 2304);
  for (std::uint32_t i = 0; i < config_.static_addresses; ++i) {
    scan_targets_->push_back(campus.at(i));
  }
  if (config_.transient_blocks) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      scan_targets_->push_back(campus.at(kVpnOffset + i));
    }
    for (std::uint32_t i = 0; i < 1024; ++i) {
      scan_targets_->push_back(campus.at(kDhcpOffset + i));
    }
    for (std::uint32_t i = 0; i < 512; ++i) {
      scan_targets_->push_back(campus.at(kPppOffset + i));
    }
    if (config_.include_wireless_in_scan) {
      for (std::uint32_t i = 0; i < 512; ++i) {
        scan_targets_->push_back(campus.at(kWirelessOffset + i));
      }
    }
  }

  if (config_.zoo_enabled()) {
    if (config_.static_addresses > kMiddleboxBlockOffset) {
      throw std::invalid_argument(
          "campus: zoo blocks need static_addresses <= 12288");
    }
    if (config_.middlebox_hosts > 256 || config_.tarpit_hosts > 256 ||
        config_.cgnat_addresses > 256 || config_.iot_burst_hosts > 256 ||
        config_.outage_hosts > 256) {
      throw std::invalid_argument("campus: zoo blocks hold at most 256");
    }
    config_.cgnat_addresses =
        round_up_pow2(std::max<std::uint32_t>(config_.cgnat_addresses, 1));
    for (std::uint32_t i = 0; i < config_.middlebox_hosts; ++i) {
      scan_targets_->push_back(campus.at(kMiddleboxBlockOffset + i));
    }
    for (std::uint32_t i = 0; i < config_.tarpit_hosts; ++i) {
      scan_targets_->push_back(campus.at(kTarpitBlockOffset + i));
    }
    if (config_.cgnat_hosts > 0) {
      for (std::uint32_t i = 0; i < config_.cgnat_addresses; ++i) {
        scan_targets_->push_back(campus.at(kCgnatBlockOffset + i));
      }
    }
    for (std::uint32_t i = 0; i < config_.iot_burst_hosts; ++i) {
      scan_targets_->push_back(campus.at(kIotBlockOffset + i));
    }
    if (config_.outage_renumber) {
      for (std::uint32_t i = 0; i < config_.outage_hosts; ++i) {
        scan_targets_->push_back(campus.at(kRenumberBlockOffset + i));
      }
    }
  }

  if (config_.scale_enabled()) {
    if (config_.scale_block_bits < 8 || config_.scale_block_bits > 30) {
      throw std::invalid_argument("campus: scale_block_bits must be 8..30");
    }
    const std::uint64_t per_block =
        std::uint64_t{1} << (32 - config_.scale_block_bits);
    if (config_.scale_blocks * per_block > (std::uint64_t{1} << 28)) {
      throw std::invalid_argument("campus: scale universe capped at 2^28");
    }
    if (config_.scale_scan) {
      scan_targets_->reserve(scan_targets_->size() +
                             config_.scale_blocks * per_block);
    }
    for (std::uint32_t b = 0; b < config_.scale_blocks; ++b) {
      const net::Prefix block(
          net::Ipv4(config_.scale_base.value() +
                    static_cast<std::uint32_t>(b * per_block)),
          config_.scale_block_bits);
      // Universe blocks are campus space: probes stay internal and
      // inbound contacts cross the border once, like any other target.
      internal_prefixes_.push_back(block);
      if (config_.scale_scan) {
        for (const net::Ipv4 addr : block) scan_targets_->push_back(addr);
      }
    }
  }

  if (config_.udp_mode) {
    udp_ports_ = net::selected_udp_ports();
  } else {
    tcp_ports_ = net::selected_tcp_ports();
  }
}

void Campus::build_border() {
  auto& border = network_->border();
  for (const auto& [name, weight] : config_.peerings) {
    border.add_peering(name, weight);
  }
  if (config_.internet2) {
    const std::size_t i2 = border.add_peering("internet2", 0.001);
    // Academic clients use Internet2; everyone else hashes across the
    // commercial peerings (AUP routing, §5.2).
    const double academic = config_.academic_client_frac;
    auto* border_ptr = &border;
    border.set_policy([border_ptr, i2, academic](net::Ipv4 external) {
      std::uint64_t state = external.value() ^ 0xACADULL;
      const double u =
          static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53;
      if (u < academic) return i2;
      // Weighted walk over the commercial links only.
      double total = 0;
      for (std::size_t i = 0; i < border_ptr->peering_count(); ++i) {
        if (i != i2) total += border_ptr->peering(i).weight;
      }
      std::uint64_t state2 = external.value();
      double v = static_cast<double>(util::splitmix64(state2) >> 11) *
                 0x1.0p-53 * total;
      for (std::size_t i = 0; i < border_ptr->peering_count(); ++i) {
        if (i == i2) continue;
        v -= border_ptr->peering(i).weight;
        if (v < 0) return i;
      }
      return border_ptr->peering_count() - 1 - (i2 == border_ptr->peering_count() - 1 ? 1 : 0);
    });
  }
}

net::Ipv4 Campus::external_address(std::uint64_t salt) {
  util::Rng gen = rng_.fork(salt);
  while (true) {
    const auto v = static_cast<std::uint32_t>(gen());
    const std::uint32_t first_octet = v >> 24;
    if (first_octet == 0 || first_octet == 10 || first_octet == 127 ||
        first_octet >= 224) {
      continue;
    }
    const net::Ipv4 addr(v);
    bool internal = false;
    for (const auto& prefix : internal_prefixes_) {
      if (prefix.contains(addr)) internal = true;
    }
    if (!internal) return addr;
  }
}

std::vector<net::Ipv4> Campus::make_client_pool(std::size_t count,
                                                std::uint64_t salt) {
  std::vector<net::Ipv4> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pool.push_back(external_address(salt * 0x10001ULL + i));
  }
  return pool;
}

Host* Campus::new_static_host(net::Ipv4 addr, LifecycleConfig lc) {
  const std::uint32_t id = next_host_id_++;
  auto h = std::make_unique<Host>(id, *network_, nullptr, addr, lc,
                                  rng_.fork(id));
  Host* raw = h.get();
  hosts_.push_back(std::move(h));
  return raw;
}

Host* Campus::new_pool_host(host::AddressPool& pool, LifecycleConfig lc) {
  const std::uint32_t id = next_host_id_++;
  auto h = std::make_unique<Host>(id, *network_, &pool, std::nullopt, lc,
                                  rng_.fork(id));
  Host* raw = h.get();
  hosts_.push_back(std::move(h));
  return raw;
}

void Campus::track(Host* h, AddressClass cls) {
  host_infos_.push_back({h, cls, !h->services().empty()});
  h->on_state_change = [this](Host& host, bool online) {
    if (online) {
      if (const auto addr = host.address()) host_by_addr_[*addr] = &host;
    } else if (const auto addr = host.address()) {
      const auto it = host_by_addr_.find(*addr);
      if (it != host_by_addr_.end() && it->second == &host) {
        host_by_addr_.erase(it);
      }
    }
  };
}

AddressClass Campus::class_of(net::Ipv4 addr) const {
  const net::Prefix campus(config_.campus_base, 16);
  if (!campus.contains(addr)) return AddressClass::kStatic;
  const std::uint32_t offset = addr - campus.base();
  if (!config_.transient_blocks) return AddressClass::kStatic;
  if (offset >= kVpnOffset && offset < kVpnOffset + 256) {
    return AddressClass::kVpn;
  }
  if (offset >= kDhcpOffset && offset < kDhcpOffset + 1024) {
    return AddressClass::kDhcp;
  }
  if (offset >= kPppOffset && offset < kPppOffset + 512) {
    return AddressClass::kPpp;
  }
  if (offset >= kWirelessOffset && offset < kWirelessOffset + 512) {
    return AddressClass::kWireless;
  }
  return AddressClass::kStatic;
}

Host* Campus::host_at(net::Ipv4 addr) const {
  const auto it = host_by_addr_.find(addr);
  return it == host_by_addr_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// Static population
// ---------------------------------------------------------------------------

void Campus::build_static_population() {
  // Shuffle the static address offsets so server placement is unrelated
  // to scan order (the paper's probes walk the space sequentially).
  std::vector<std::uint32_t> offsets(config_.static_addresses);
  for (std::uint32_t i = 0; i < config_.static_addresses; ++i) offsets[i] = i;
  for (std::size_t i = offsets.size(); i > 1; --i) {
    std::swap(offsets[i - 1], offsets[rng_.below(i)]);
  }
  std::size_t next_offset = 0;
  const net::Prefix campus(config_.campus_base, 16);
  const auto take_addr = [&]() {
    if (next_offset >= offsets.size()) {
      throw std::logic_error("campus: static address space exhausted");
    }
    return campus.at(offsets[next_offset++]);
  };

  const LifecycleConfig always_on{LifecycleKind::kAlwaysOn, {}, {}, false};

  struct WebClassPlan {
    std::uint32_t count;
    WebContent content;
    double ssh_frac, ftp_frac, mysql_frac, https_frac;
  };
  const WebClassPlan web_plan[] = {
      {config_.web_custom, WebContent::kCustom, 0.60, 0.35, 0.12, 0.60},
      {config_.web_default, WebContent::kDefault, 0.45, 0.21, 0.04, 0.05},
      {config_.web_minimal, WebContent::kMinimal, 0.20, 0.0, 0.0, 0.0},
      {config_.web_config, WebContent::kConfigStatus, 0.0, 0.62, 0.0, 0.0},
      {config_.web_database, WebContent::kDatabase, 0.30, 0.0, 1.0, 0.10},
      {config_.web_restricted, WebContent::kRestricted, 0.40, 0.0, 0.0, 1.0},
  };

  std::vector<Host*> static_servers;
  std::vector<Host*> mysql_hosts;

  for (const auto& plan : web_plan) {
    for (std::uint32_t i = 0; i < plan.count; ++i) {
      Host* h = new_static_host(take_addr(), always_on);
      h->add_service(tcp_service(net::kPortHttp, plan.content));
      if (rng_.chance(plan.ssh_frac)) h->add_service(tcp_service(net::kPortSsh));
      if (rng_.chance(plan.ftp_frac)) h->add_service(tcp_service(net::kPortFtp));
      if (rng_.chance(plan.https_frac)) {
        h->add_service(tcp_service(net::kPortHttps, plan.content));
      }
      if (rng_.chance(plan.mysql_frac)) {
        h->add_service(tcp_service(net::kPortMysql));
        mysql_hosts.push_back(h);
      }
      if (rng_.chance(config_.ping_silent_frac)) h->set_icmp_echo(false);
      track(h, AddressClass::kStatic);
      static_servers.push_back(h);
    }
  }
  for (std::uint32_t i = 0; i < config_.ssh_only; ++i) {
    Host* h = new_static_host(take_addr(), always_on);
    h->add_service(tcp_service(net::kPortSsh));
    if (rng_.chance(0.15)) h->add_service(tcp_service(net::kPortFtp));
    track(h, AddressClass::kStatic);
    static_servers.push_back(h);
  }
  for (std::uint32_t i = 0; i < config_.ftp_only; ++i) {
    Host* h = new_static_host(take_addr(), always_on);
    h->add_service(tcp_service(net::kPortFtp));
    track(h, AddressClass::kStatic);
    static_servers.push_back(h);
  }
  for (std::uint32_t i = 0; i < config_.mysql_only; ++i) {
    Host* h = new_static_host(take_addr(), always_on);
    h->add_service(tcp_service(net::kPortMysql));
    mysql_hosts.push_back(h);
    track(h, AddressClass::kStatic);
    static_servers.push_back(h);
  }

  // MySQL servers used only locally block the port from external sources
  // (they still answer internal campus probes, §4.4.3).
  for (Host* h : mysql_hosts) {
    if (rng_.chance(config_.mysql_block_external)) {
      h->firewall().set_port_mode(net::kPortMysql,
                                  FirewallMode::kBlockExternal);
    }
  }

  // Service births and deaths: pick distinct hosts from the back of the
  // shuffled server list (the front hosts the hot set, built later).
  std::size_t pick = static_servers.size();
  const auto pick_host = [&]() -> Host* {
    if (pick == 0) return nullptr;
    return static_servers[--pick];
  };
  for (std::uint32_t i = 0; i < config_.births; ++i) {
    Host* h = pick_host();
    if (!h) break;
    const util::TimePoint birth{
        static_cast<std::int64_t>(rng_.below(
            static_cast<std::uint64_t>(config_.duration.usec)))};
    for (Service& s : h->services()) s.birth = birth;
  }
  for (std::uint32_t i = 0; i < config_.deaths; ++i) {
    Host* h = pick_host();
    if (!h) break;
    const std::int64_t span = config_.duration.usec / 2;
    const util::TimePoint death{
        util::hours(6).usec +
        static_cast<std::int64_t>(rng_.below(static_cast<std::uint64_t>(span)))};
    for (Service& s : h->services()) s.death = death;
  }

  // Firewalled hosts: drop campus prober probes on every port. Chosen
  // away from the hot/steady front (those are popular, loud servers);
  // external sweeps and occasional one-shot contacts reveal these hosts
  // passively over the campaign, never actively — the paper finds 4 of
  // its 35 in the first 12 hours and the rest over the full window.
  const std::size_t fw_base =
      std::min<std::size_t>(120, static_servers.empty()
                                     ? 0
                                     : static_servers.size() - 1);
  for (std::uint32_t i = 0;
       i < config_.firewalled && !static_servers.empty(); ++i) {
    Host* h = static_servers[(fw_base + i * 29) % static_servers.size()];
    // Only the service ports are protected; probes to other ports still
    // draw RSTs from the TCP stack — the mixed-response signature the
    // paper's first confirmation method keys on (§4.2.4: 32 of 35
    // firewalls confirmed by "RSTs from some ports, no responses from
    // other ports").
    for (const Service& s : h->services()) {
      h->firewall().set_port_mode(s.port, FirewallMode::kBlockProbers);
    }
    for (const net::Ipv4 prober : prober_sources_) {
      h->firewall().add_prober(prober);
    }
  }

  // Plain live hosts: respond with RSTs (they make up the >60% of the
  // space that is live but serverless).
  for (std::uint32_t i = 0; i < config_.static_plain; ++i) {
    Host* h = new_static_host(take_addr(), always_on);
    if (rng_.chance(config_.ping_silent_frac)) h->set_icmp_echo(false);
    track(h, AddressClass::kStatic);
  }

  // Record traffic-eligible slots for build_traffic(): one slot per
  // static server (its primary TCP service), so hot/steady/one-shot
  // populations count distinct server addresses like the paper does.
  for (Host* h : static_servers) {
    for (const Service& s : h->services()) {
      if (s.proto == net::Proto::kTcp) {
        traffic_slots_.push_back({h, s.proto, s.port});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Transient population
// ---------------------------------------------------------------------------

void Campus::build_transient_population() {
  if (!config_.transient_blocks) return;
  const net::Prefix campus(config_.campus_base, 16);
  vpn_pool_ = std::make_unique<host::AddressPool>(
      AddressClass::kVpn, net::Prefix(campus.at(kVpnOffset), 24), false,
      config_.seed ^ 0x1111);
  dhcp_pool_ = std::make_unique<host::AddressPool>(
      AddressClass::kDhcp, net::Prefix(campus.at(kDhcpOffset), 22), true,
      config_.seed ^ 0x2222);
  ppp_pool_ = std::make_unique<host::AddressPool>(
      AddressClass::kPpp, net::Prefix(campus.at(kPppOffset), 23), false,
      config_.seed ^ 0x3333);
  wireless_pool_ = std::make_unique<host::AddressPool>(
      AddressClass::kWireless, net::Prefix(campus.at(kWirelessOffset), 23),
      false, config_.seed ^ 0x4444);

  // Residence-hall DHCP: long sessions, sticky leases.
  for (std::uint32_t i = 0; i < config_.dhcp_hosts; ++i) {
    // Residence-hall machines are on most of the day (and keep one IP),
    // which is why the paper's DHCP block behaves like the static space.
    LifecycleConfig lc{LifecycleKind::kTransient, util::hours(18),
                       util::hours(8), true};
    Host* h = new_pool_host(*dhcp_pool_, lc);
    if (rng_.chance(config_.dhcp_service_frac)) {
      if (rng_.chance(0.85)) {
        h->add_service(tcp_service(net::kPortHttp, WebContent::kDefault));
      } else {
        h->add_service(tcp_service(net::kPortSsh));
      }
    }
    track(h, AddressClass::kDhcp);
  }

  // PPP dial-up: short sessions, fresh address every connect.
  for (std::uint32_t i = 0; i < config_.ppp_hosts; ++i) {
    // Dial-up: brief sessions with long gaps; 12-hourly scans usually
    // miss them, while their active clients do not (paper Figure 5's
    // inversion where passive beats active on PPP).
    LifecycleConfig lc{LifecycleKind::kTransient, util::minutes(90),
                       util::hours(30), true};
    Host* h = new_pool_host(*ppp_pool_, lc);
    if (rng_.chance(config_.ppp_service_frac)) {
      h->add_service(tcp_service(
          net::kPortHttp,
          rng_.chance(0.7) ? WebContent::kDefault : WebContent::kMinimal));
      if (rng_.chance(0.2)) h->add_service(tcp_service(net::kPortFtp));
    }
    track(h, AddressClass::kPpp);
  }

  // VPN: services live on the VPN interface but clients use the direct
  // address, and the tunnel block drops outside traffic — so most VPN
  // services are invisible passively (§4.4.2).
  for (std::uint32_t i = 0; i < config_.vpn_hosts; ++i) {
    LifecycleConfig lc{LifecycleKind::kTransient, util::hours(6),
                       util::hours(18), true};
    Host* h = new_pool_host(*vpn_pool_, lc);
    if (rng_.chance(config_.vpn_service_frac)) {
      if (rng_.chance(0.6)) h->add_service(tcp_service(net::kPortSsh));
      if (rng_.chance(0.5)) {
        h->add_service(tcp_service(net::kPortHttp, WebContent::kDefault));
      }
      if (h->services().empty()) {
        h->add_service(tcp_service(net::kPortSsh));
      }
      if (rng_.chance(config_.vpn_blocked_frac)) {
        h->firewall().set_mode(FirewallMode::kBlockExternal);
      }
    }
    track(h, AddressClass::kVpn);
  }

  // Wireless: clients only; the paper found no services there.
  for (std::uint32_t i = 0; i < config_.wireless_hosts; ++i) {
    LifecycleConfig lc{LifecycleKind::kTransient, util::hours(3),
                       util::hours(8), true};
    Host* h = new_pool_host(*wireless_pool_, lc);
    track(h, AddressClass::kWireless);
  }
}

// ---------------------------------------------------------------------------
// Traffic
// ---------------------------------------------------------------------------

void Campus::build_traffic() {
  if (traffic_slots_.empty()) return;
  const double scale = config_.traffic_scale;

  // Hot set: the handful of servers responsible for nearly all flows
  // (the paper's 37 most active servers). Placed on the first slots,
  // which the static builder fills with custom-content web servers.
  const std::uint32_t hot =
      std::min<std::uint32_t>(config_.hot_services,
                              static_cast<std::uint32_t>(traffic_slots_.size()));
  for (std::uint32_t r = 0; r < hot; ++r) {
    const TrafficSlot& slot = traffic_slots_[r];
    TrafficTarget t;
    t.target = slot.host;
    t.proto = slot.proto;
    t.port = slot.port;
    // Zipf-spread rates between hot_rate_max (rank 1) and hot_rate_min.
    t.flows_per_hour =
        std::max(config_.hot_rate_min,
                 config_.hot_rate_max / std::pow(r + 1.0, 1.2)) *
        scale;
    const std::size_t pool_size = 3000 + rng_.below(9000);
    t.clients = make_client_pool(pool_size, 0xC11E0000ULL + r);
    flows_->add_target(std::move(t));
  }

  // Steady set: light recurring traffic (rediscovered throughout —
  // Table 4's continuing "active server address" population).
  const std::uint32_t steady = std::min<std::uint32_t>(
      config_.steady_services,
      static_cast<std::uint32_t>(traffic_slots_.size()) - hot);
  for (std::uint32_t r = 0; r < steady; ++r) {
    const TrafficSlot& slot = traffic_slots_[hot + r];
    TrafficTarget t;
    t.target = slot.host;
    t.proto = slot.proto;
    t.port = slot.port;
    t.flows_per_hour =
        (config_.steady_rate_min +
         rng_.uniform() * (config_.steady_rate_max - config_.steady_rate_min)) *
        scale;
    t.clients = make_client_pool(2 + rng_.below(10), 0x3A300000ULL + r);
    flows_->add_target(std::move(t));
  }

  // One-shot "overheard" population: each chosen idle server gets a
  // single 1-3 flow contact at time duration * u^exponent — the
  // decreasing contact density reproduces the paper's ever-slowing but
  // never-stopping passive discovery, and the lack of repeats is why
  // most early passive finds are never seen again. Candidates are
  // shuffled so every service class (web, ssh, ftp, mysql) attracts its
  // share of one-off visitors.
  const std::size_t first_oneshot = hot + steady;
  std::vector<std::size_t> candidates;
  candidates.reserve(traffic_slots_.size() - first_oneshot);
  for (std::size_t i = first_oneshot; i < traffic_slots_.size(); ++i) {
    candidates.push_back(i);
  }
  for (std::size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng_.below(i)]);
  }
  const std::uint32_t oneshot = std::min<std::uint32_t>(
      config_.oneshot_services, static_cast<std::uint32_t>(candidates.size()));
  for (std::uint32_t i = 0; i < oneshot; ++i) {
    const TrafficSlot& slot = traffic_slots_[candidates[i]];
    const double u = rng_.uniform();
    const util::TimePoint when =
        util::kEpoch +
        util::seconds_f(config_.duration.usec / 1e6 *
                        std::pow(u, config_.oneshot_exponent));
    const int flows = 1 + static_cast<int>(rng_.below(3));
    const net::Ipv4 client = external_address(0x3B300000ULL + i);
    host::Host* target = slot.host;
    const net::Port port = slot.port;
    for (int f = 0; f < flows; ++f) {
      // Repeat contacts land within the same hour (one client session).
      const util::TimePoint at =
          when + util::seconds_f(rng_.uniform() * 3600.0 * f);
      sim_.at(at, [this, target, port, client, f] {
        if (!target->online()) return;
        const auto addr = target->address();
        if (!addr) return;
        net::Packet syn = net::make_tcp(
            client, static_cast<net::Port>(30000 + f), *addr, port,
            net::flags_syn());
        network_->send(syn);
      });
    }
  }

  // Light traffic to some transient-host services: this is what lets
  // passive monitoring beat active probing on PPP hosts (§4.4.2).
  for (const HostInfo& info : host_infos_) {
    if (!info.has_service) continue;
    double rate = 0;
    if (info.cls == AddressClass::kPpp &&
        rng_.chance(config_.ppp_traffic_frac)) {
      rate = 0.15;
    } else if (info.cls == AddressClass::kDhcp && rng_.chance(0.3)) {
      rate = 0.05;
    } else if (info.cls == AddressClass::kVpn &&
               info.host->firewall().mode() == FirewallMode::kOpen &&
               rng_.chance(0.5)) {
      rate = 0.05;
    }
    if (rate <= 0) continue;
    const Service& s = info.host->services().front();
    TrafficTarget t;
    t.target = info.host;
    t.proto = s.proto;
    t.port = s.port;
    t.flows_per_hour = rate * scale;
    t.clients = make_client_pool(1 + rng_.below(4),
                                 0x77AA0000ULL + info.host->id());
    flows_->add_target(std::move(t));
  }
}

// ---------------------------------------------------------------------------
// External scanners
// ---------------------------------------------------------------------------

void Campus::build_scanners() {
  if (!config_.external_scans) return;
  const std::size_t n = scan_targets_->size();
  const double dur_days = config_.duration.days();
  std::uint64_t salt = 0x5CA40000ULL;

  // Scanner sources come in over commercial transit: Internet2's
  // acceptable-use policy keeps opportunistic scanners off it (which is
  // why the paper's Internet2 tap sees only 36% of servers). Resample a
  // candidate source until it is neither "academic" (would route via
  // Internet2) nor on the commercial peering `avoid` (so a split sweep's
  // halves land on different links).
  auto* border = &network_->border();
  const double academic = config_.internet2 ? config_.academic_client_frac : 0;
  const auto is_academic = [academic](net::Ipv4 addr) {
    std::uint64_t state = addr.value() ^ 0xACADULL;
    const double u =
        static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53;
    return u < academic;
  };
  const auto scanner_source = [&](std::size_t avoid) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const net::Ipv4 addr = external_address(salt++);
      if (is_academic(addr)) continue;
      if (avoid != static_cast<std::size_t>(-1) &&
          border->default_peering_for(addr) == avoid) {
        continue;
      }
      return addr;
    }
    return external_address(salt++);
  };

  struct BigSweep {
    double day;
    net::Port port;
    double coverage;  // fraction of the space
  };
  std::vector<BigSweep> big;
  if (config_.all_ports_mode) {
    // The paper's passive jump lands "just after 12:30" on day one
    // (campaign starts 10:00, so day fraction ~0.107).
    big = {{0.105, net::kPortHttp, 1.0},
           {0.112, net::kPortSsh, 1.0},
           {3.0, net::kPortFtp, 1.0},
           {5.5, net::kPortSsh, 1.0}};
  } else if (!config_.udp_mode) {
    // Big sweeps are mostly partial (real-world scanners rarely walk a
    // whole /16); coverages are tuned so 18-day passive completeness
    // lands near the paper's 71%.
    big = {{0.92, net::kPortHttp, 0.55},  {2.2, net::kPortSsh, 0.55},
           {4.4, net::kPortHttp, 0.35},   {5.1, net::kPortFtp, 0.40},
           {8.0, net::kPortSsh, 0.35},    {10.3, net::kPortMysql, 1.0},
           {13.2, net::kPortHttps, 0.35}};
  }
  for (const BigSweep& b : big) {
    if (b.day >= dur_days) continue;
    const auto len = static_cast<std::size_t>(b.coverage * n);
    // Partial sweeps start at a random offset so successive sweeps of
    // the same port cover different (overlapping) slices of the space.
    const std::size_t first = len >= n ? 0 : rng_.below(n - len);
    // Wide scans come from several coordinated sources (botnet-style);
    // splitting each across two scanner addresses also spreads the
    // elicited responses over both commercial peerings, which is what
    // lets any single monitored link see ~90% of servers (Table 8).
    const std::size_t mid = first + len / 2;
    std::size_t first_half_peering = static_cast<std::size_t>(-1);
    for (int half = 0; half < 2; ++half) {
      SweepSpec sweep;
      sweep.source = scanner_source(half == 0 ? static_cast<std::size_t>(-1)
                                              : first_half_peering);
      if (half == 0) {
        first_half_peering = border->default_peering_for(sweep.source);
      }
      sweep.start = util::kEpoch + util::seconds_f(b.day * 86400.0);
      sweep.port = b.port;
      // Slow enough that a wide sweep spans tens of minutes, as the
      // paper's observed scans do — fast bursts would make fixed-window
      // sampling (Figure 8) miss entire scans.
      sweep.probes_per_sec = 20.0;
      sweep.first_target = half == 0 ? first : mid;
      sweep.last_target = half == 0 ? mid : first + len;
      scanners_->add_sweep(sweep);
    }
  }

  // Small opportunistic sweeps: random port, random slice, random time.
  // In all-ports mode, scanners still sweep common service ports (the
  // campus border filters NetBIOS/SMB/epmap inbound, as most university
  // borders did after Blaster — which is why the paper's passive view
  // never sees the NT-only services).
  static const std::vector<net::Port> kCommonSweepPorts{
      net::kPortHttp, net::kPortSsh, net::kPortFtp, net::kPortSmtp};
  const auto& ports = config_.udp_mode        ? udp_ports_
                      : config_.all_ports_mode ? kCommonSweepPorts
                                               : tcp_ports_;
  if (ports.empty()) return;
  for (std::uint32_t i = 0; i < config_.small_sweeps; ++i) {
    SweepSpec sweep;
    // Alternate commercial peerings so repeated rescans of the popular
    // front region are visible on both monitored links (Table 8).
    sweep.source = scanner_source(border->peering_count() < 2
                                      ? static_cast<std::size_t>(-1)
                                      : i % 2);
    const double day = 0.2 + rng_.uniform() * std::max(dur_days - 0.4, 0.1);
    sweep.start = util::kEpoch + util::seconds_f(day * 86400.0);
    sweep.port = ports[rng_.below(ports.size())];
    sweep.proto = config_.udp_mode ? net::Proto::kUdp : net::Proto::kTcp;
    sweep.probes_per_sec = 10.0 + rng_.uniform() * 50.0;
    // Slices are big enough that the 100-target/100-RST detector flags
    // every small sweep once it gets going (~40% of addresses are live
    // responders), as it flagged all 65 of the paper's scanners.
    const std::size_t len =
        std::min<std::size_t>(n, 600 + rng_.below(1800));
    // Offsets are biased toward the front of the space (u^2): real
    // opportunistic scanners keep rescanning the same popular ranges.
    // Repetition from many sources is what makes most servers visible on
    // *both* commercial peerings (Table 8) while the rarely-scanned tail
    // stays single-link-exclusive.
    const double u = std::pow(rng_.uniform(), 1.6);
    sweep.first_target =
        n > len ? static_cast<std::size_t>(u * static_cast<double>(n - len))
                : 0;
    sweep.last_target = sweep.first_target + len;
    scanners_->add_sweep(sweep);
  }
}

// ---------------------------------------------------------------------------
// UDP population (DUDP)
// ---------------------------------------------------------------------------

void Campus::build_udp_population() {
  // Attach UDP services to existing static hosts: DNS servers (some
  // answer generic probes), silent NetBIOS on most Windows machines,
  // and a scattering of udp/80 and game servers (§4.5, Table 7).
  std::vector<Host*> statics;
  for (const HostInfo& info : host_infos_) {
    if (info.cls == AddressClass::kStatic) statics.push_back(info.host);
  }
  if (statics.empty()) return;
  util::Rng gen = rng_.fork(0x0D9);
  const auto pick = [&]() -> Host* {
    return statics[gen.below(statics.size())];
  };

  const auto frac = [&](double f) {
    return static_cast<std::size_t>(f * static_cast<double>(statics.size()));
  };

  std::vector<TrafficSlot> udp_traffic;
  // DNS: responders + silent.
  for (std::size_t i = 0; i < std::max<std::size_t>(frac(0.012), 2); ++i) {
    Host* h = pick();
    h->add_service(udp_service(net::kPortDns, true));
    if (i % 3 != 2) udp_traffic.push_back({h, net::Proto::kUdp, net::kPortDns});
  }
  for (std::size_t i = 0; i < frac(0.085); ++i) {
    pick()->add_service(udp_service(net::kPortDns, false));
  }
  // NetBIOS: a few responders, silently open on most Windows machines.
  for (std::size_t i = 0; i < std::max<std::size_t>(frac(0.015), 1); ++i) {
    Host* h = pick();
    h->add_service(udp_service(net::kPortNetbiosNs, true));
    if (i < 4) udp_traffic.push_back({h, net::Proto::kUdp, net::kPortNetbiosNs});
  }
  for (std::size_t i = 0; i < frac(0.75); ++i) {
    pick()->add_service(udp_service(net::kPortNetbiosNs, false));
  }
  // udp/80 and the game port: silent only.
  for (std::size_t i = 0; i < frac(0.031); ++i) {
    pick()->add_service(udp_service(net::kPortHttp, false));
  }
  for (std::size_t i = 0; i < frac(0.025); ++i) {
    Host* h = pick();
    h->add_service(udp_service(net::kPortGame, false));
    if (i == 0) udp_traffic.push_back({h, net::Proto::kUdp, net::kPortGame});
  }

  for (const TrafficSlot& slot : udp_traffic) {
    TrafficTarget t;
    t.target = slot.host;
    t.proto = net::Proto::kUdp;
    t.port = slot.port;
    t.flows_per_hour = 2.0 + gen.uniform() * 6.0;
    t.clients = make_client_pool(2 + gen.below(8), 0x0D900000ULL + slot.port +
                                                       slot.host->id());
    flows_->add_target(std::move(t));
  }
}

// ---------------------------------------------------------------------------
// All-ports lab subnet (DTCPall)
// ---------------------------------------------------------------------------

void Campus::build_allports_population() {
  const net::Prefix campus(config_.campus_base, 16);
  const LifecycleConfig always_on{LifecycleKind::kAlwaysOn, {}, {}, false};
  util::Rng gen = rng_.fork(0xA11);

  std::vector<net::Port> used_ports;
  const auto use_port = [&](net::Port p) {
    used_ports.push_back(p);
    return p;
  };

  // ~250 homogeneous lab machines (the paper's student-lab /24).
  const std::uint32_t machines =
      std::min<std::uint32_t>(250, config_.static_addresses);
  Host* dominant = nullptr;
  for (std::uint32_t i = 0; i < machines; ++i) {
    Host* h = new_static_host(campus.at(i), always_on);
    // Windows NT image: epmap + friends, local-only, no SSH — these are
    // the machines passive can never see at the border (Figure 11).
    if (gen.chance(0.55)) {
      h->add_service(tcp_service(use_port(net::kPortEpmap)));
      h->add_service(tcp_service(use_port(net::Port{139})));
      if (gen.chance(0.5)) h->add_service(tcp_service(use_port(net::Port{445})));
    } else {
      // Unix image: SSH plus legacy inetd services, X fonts, Sun RPC.
      h->add_service(tcp_service(use_port(net::kPortSsh)));
      if (gen.chance(0.5)) h->add_service(tcp_service(use_port(net::kPortDiscard)));
      if (gen.chance(0.5)) h->add_service(tcp_service(use_port(net::kPortDaytime)));
      if (gen.chance(0.4)) h->add_service(tcp_service(use_port(net::kPortTime)));
      if (gen.chance(0.6)) h->add_service(tcp_service(use_port(net::kPortSunRpc)));
      if (gen.chance(0.4)) h->add_service(tcp_service(use_port(net::kPortXFonts)));
      if (gen.chance(0.15)) h->add_service(tcp_service(use_port(net::kPortFtp)));
      if (gen.chance(0.12)) h->add_service(tcp_service(use_port(net::kPortSmtp)));
    }
    // A few ephemeral/high services (P2P apps etc.).
    if (gen.chance(0.08)) {
      h->add_service(tcp_service(
          use_port(net::Port(10000 + gen.below(50000)))));
    }
    // Web: a handful, several born *after* the active scan (the births
    // passive catches in Figure 11). The dominant server sits ~20
    // addresses into the walk so the slow scan reaches it "just before
    // 12:30", as the paper observed by chance (§5.4).
    if (i < 15 || i == 20) {
      Service web = tcp_service(use_port(net::kPortHttp),
                                i == 20 ? WebContent::kCustom
                                        : WebContent::kDefault);
      if (i >= 9 && i != 20) {
        web.birth = util::kEpoch + util::days(1) + util::hours(6 * i);
      }
      h->add_service(web);
    }
    if (i == 20) dominant = h;
    track(h, AddressClass::kStatic);
  }

  // The dominant server: 97% of the subnet's inbound connections (§5.4).
  if (dominant != nullptr) {
    TrafficTarget t;
    t.target = dominant;
    t.proto = net::Proto::kTcp;
    t.port = net::kPortHttp;
    t.flows_per_hour = 400.0 * config_.traffic_scale;
    t.clients = make_client_pool(2000, 0xD0 /*dominant*/);
    flows_->add_target(std::move(t));
    // Light traffic to ~20 other machines — always to their remotely
    // usable service (SSH/web/FTP), never the local-only NT ports.
    std::uint32_t added = 0;
    for (std::size_t i = 1; i < host_infos_.size() && added < 20; ++i) {
      const HostInfo& info = host_infos_[i];
      net::Port remote_port = 0;
      for (const Service& s : info.host->services()) {
        if (s.port == net::kPortSsh || s.port == net::kPortHttp ||
            s.port == net::kPortFtp) {
          remote_port = s.port;
          break;
        }
      }
      if (remote_port == 0) continue;
      TrafficTarget w;
      w.target = info.host;
      w.proto = net::Proto::kTcp;
      w.port = remote_port;
      w.flows_per_hour = 0.05 + gen.uniform() * 0.4;
      w.clients = make_client_pool(1 + gen.below(4), 0xD1000000ULL + i);
      flows_->add_target(std::move(w));
      ++added;
    }
  }

  // The scan's port list: every port in use plus well-known decoys (a
  // tractable stand-in for Nmap's full 65k sweep; see DESIGN.md).
  std::sort(used_ports.begin(), used_ports.end());
  used_ports.erase(std::unique(used_ports.begin(), used_ports.end()),
                   used_ports.end());
  tcp_ports_ = used_ports;
  for (net::Port p = 1; p <= 512; ++p) {
    if (!std::binary_search(used_ports.begin(), used_ports.end(), p)) {
      tcp_ports_.push_back(p);
    }
  }
  for (std::uint32_t i = 0; i < 620; ++i) {
    tcp_ports_.push_back(net::Port(1024 + gen.below(60000)));
  }
  std::sort(tcp_ports_.begin(), tcp_ports_.end());
  tcp_ports_.erase(std::unique(tcp_ports_.begin(), tcp_ports_.end()),
                   tcp_ports_.end());
}

// ---------------------------------------------------------------------------
// Hostile-network zoo (scenario packs)
// ---------------------------------------------------------------------------

void Campus::build_zoo_population() {
  if (!config_.zoo_enabled()) return;  // must not touch rng_ when off
  const net::Prefix campus(config_.campus_base, 16);
  const LifecycleConfig always_on{LifecycleKind::kAlwaysOn, {}, {}, false};
  util::Rng zoo = rng_.fork(0x200);
  const double dur_sec = static_cast<double>(config_.duration.usec) / 1e6;

  // DPI middleboxes: every port looks open to the prober, but real
  // traffic through the box touches only genuine service ports — the
  // LZR failure mode where active discovery inflates and passive does
  // not.
  for (std::uint32_t i = 0; i < config_.middlebox_hosts; ++i) {
    const net::Ipv4 addr = campus.at(kMiddleboxBlockOffset + i);
    Host* h = new_static_host(addr, always_on);
    h->set_syn_policy(host::SynPolicy::kSynAckAll);
    track(h, AddressClass::kStatic);
    // A couple of genuine client contacts pass through the box on the
    // web port, so the passive monitor sees it as exactly one service.
    const int contacts = 1 + static_cast<int>(zoo.below(2));
    for (int c = 0; c < contacts; ++c) {
      const util::TimePoint at =
          util::kEpoch + util::seconds_f(dur_sec * zoo.uniform());
      const net::Ipv4 client =
          external_address(0x200C0000ULL + i * 8ULL + static_cast<std::uint64_t>(c));
      sim_.at(at, [this, addr, client, c] {
        net::Packet syn =
            net::make_tcp(client, static_cast<net::Port>(31000 + c), addr,
                          net::kPortHttp, net::flags_syn());
        network_->send(syn);
      });
    }
  }

  // Tarpits: the handshake completes, but only after tarpit_delay_sec —
  // far past the prober timeout, so probes resolve kFiltered and the
  // late SYN-ACKs must be ignored without stalling anything.
  for (std::uint32_t i = 0; i < config_.tarpit_hosts; ++i) {
    Host* h = new_static_host(campus.at(kTarpitBlockOffset + i), always_on);
    h->set_syn_policy(host::SynPolicy::kTarpit,
                      util::seconds_f(config_.tarpit_delay_sec));
    track(h, AddressClass::kStatic);
  }

  // CGNAT: many short-session hosts leased out of a tiny non-sticky pool,
  // so one address fronts different machines (and different service
  // sets) over the campaign.
  if (config_.cgnat_hosts > 0) {
    int bits = 32;
    for (std::uint32_t s = config_.cgnat_addresses; s > 1; s >>= 1) --bits;
    cgnat_pool_ = std::make_unique<host::AddressPool>(
        AddressClass::kDhcp,
        net::Prefix(campus.at(kCgnatBlockOffset), bits), false,
        config_.seed ^ 0x5555);
    for (std::uint32_t i = 0; i < config_.cgnat_hosts; ++i) {
      const LifecycleConfig lc{LifecycleKind::kTransient, util::minutes(40),
                               util::hours(3), true};
      Host* h = new_pool_host(*cgnat_pool_, lc);
      const bool serves = zoo.chance(config_.cgnat_service_frac);
      if (serves) {
        h->add_service(zoo.chance(0.7)
                           ? tcp_service(net::kPortHttp, WebContent::kDefault)
                           : tcp_service(net::kPortSsh));
      }
      track(h, AddressClass::kDhcp);
      if (serves && zoo.chance(0.5)) {
        const Service& s = h->services().front();
        TrafficTarget t;
        t.target = h;
        t.proto = s.proto;
        t.port = s.port;
        t.flows_per_hour = 0.1 * config_.traffic_scale;
        t.clients = make_client_pool(1 + zoo.below(3), 0x26A70000ULL + i);
        flows_->add_target(std::move(t));
      }
    }
  }

  // IoT burst: a fleet of identical devices arrives together
  // mid-campaign; a fraction churns away a day later. Each is overheard
  // once shortly after arriving, so passive discovery shows the arrival
  // step while active only catches whichever scan lands inside the
  // window.
  const util::TimePoint burst =
      util::kEpoch + util::seconds_f(config_.iot_burst_day * 86400.0);
  for (std::uint32_t i = 0; i < config_.iot_burst_hosts; ++i) {
    const net::Ipv4 addr = campus.at(kIotBlockOffset + i);
    Host* h = new_static_host(addr, always_on);
    Service s = tcp_service(net::kPortHttp, WebContent::kMinimal);
    s.birth = burst + util::seconds_f(zoo.uniform() * 3600.0);
    if (zoo.chance(config_.iot_churn_frac)) s.death = s.birth + util::days(1);
    h->add_service(s);
    track(h, AddressClass::kStatic);
    const util::TimePoint heard = s.birth + util::seconds_f(
        60.0 + zoo.uniform() * 7200.0);
    const net::Ipv4 client = external_address(0x107B0000ULL + i);
    sim_.at(heard, [this, addr, client] {
      net::Packet syn = net::make_tcp(client, net::Port{32000}, addr,
                                      net::kPortHttp, net::flags_syn());
      network_->send(syn);
    });
  }

  // Outage: the hottest servers (front of the traffic-slot list) go dark
  // together and come back hours later — optionally renumbered into the
  // reserved block, the Internet-Heartbeat event that splits an
  // address's history in two.
  if (config_.outage_hosts > 0 && !traffic_slots_.empty()) {
    const util::TimePoint down_at =
        util::kEpoch + util::seconds_f(config_.outage_day * 86400.0);
    const util::TimePoint up_at =
        down_at + util::seconds_f(config_.outage_duration_hours * 3600.0);
    const auto count = std::min<std::size_t>(config_.outage_hosts,
                                             traffic_slots_.size());
    for (std::size_t i = 0; i < count; ++i) {
      Host* h = traffic_slots_[i].host;
      sim_.at(down_at, [h] { h->force_offline(); });
      if (config_.outage_renumber) {
        const net::Ipv4 fresh =
            campus.at(kRenumberBlockOffset + static_cast<std::uint32_t>(i));
        sim_.at(up_at, [h, fresh] { h->force_online(fresh); });
      } else {
        sim_.at(up_at, [h] { h->force_online(); });
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Internet-scale universe (DESIGN.md §14)
// ---------------------------------------------------------------------------

void Campus::build_scale_universe() {
  if (!config_.scale_enabled()) return;  // must not touch rng_ when off
  host::ScaleUniverseConfig ucfg;
  const std::uint64_t per_block =
      std::uint64_t{1} << (32 - config_.scale_block_bits);
  for (std::uint32_t b = 0; b < config_.scale_blocks; ++b) {
    ucfg.blocks.emplace_back(
        net::Ipv4(config_.scale_base.value() +
                  static_cast<std::uint32_t>(b * per_block)),
        config_.scale_block_bits);
  }
  // Profiles key off the scenario seed (not rng_ state) so the same
  // address behaves identically at any thread count and config tweak.
  ucfg.seed = config_.seed ^ 0x5CA1E00000000000ULL;
  ucfg.live_frac = config_.scale_live_frac;
  ucfg.service_frac = config_.scale_service_frac;
  ucfg.echo_frac = config_.scale_echo_frac;
  universe_ = std::make_unique<host::ScaleUniverse>(*network_, ucfg);

  if (config_.scale_oneshot_contacts == 0) return;
  // One-shot external contacts to universe services, mirroring the
  // campus "overheard once" population: rejection-sample the contiguous
  // universe range for service profiles, then schedule a single SYN at a
  // heavy-tailed time. Bounded attempts keep a sparse-service config
  // from spinning forever.
  util::Rng gen = rng_.fork(0x5CA1EF00ULL);
  const std::uint64_t span = config_.scale_blocks * per_block;
  std::uint32_t scheduled = 0;
  const std::uint64_t max_attempts =
      std::uint64_t{config_.scale_oneshot_contacts} * 4096;
  for (std::uint64_t attempt = 0;
       attempt < max_attempts && scheduled < config_.scale_oneshot_contacts;
       ++attempt) {
    const net::Ipv4 addr(config_.scale_base.value() +
                         static_cast<std::uint32_t>(gen.below(span)));
    const host::ScaleProfile prof = universe_->profile(addr);
    if (!prof.service) continue;
    const double u = gen.uniform();
    const util::TimePoint when =
        util::kEpoch +
        util::seconds_f(config_.duration.usec / 1e6 *
                        std::pow(u, config_.oneshot_exponent));
    const net::Ipv4 client = external_address(0x5CA1E0000ULL + scheduled);
    const net::Port port = prof.port;
    sim_.at(when, [this, client, addr, port] {
      network_->send(net::make_tcp(client, net::Port{31000}, addr, port,
                                   net::flags_syn()));
    });
    ++scheduled;
  }
}

// ---------------------------------------------------------------------------

void Campus::start() {
  if (started_) throw std::logic_error("Campus: started twice");
  started_ = true;
  for (const auto& h : hosts_) h->start();
  flows_->start();
  scanners_->start();
  SVCDISC_LOG(kInfo) << "campus started: " << hosts_.size() << " hosts, "
                     << scan_targets_->size() << " probe targets, "
                     << flows_->target_count() << " traffic streams, "
                     << scanners_->sweeps().size() << " external sweeps";
}

void Campus::run_all() {
  if (!started_) start();
  sim_.run_until(util::kEpoch + config_.duration);
}

}  // namespace svcdisc::workload
