// The campus population model and dataset presets.
//
// Campus assembles every moving part of a measurement campaign around the
// population structure the paper describes for USC (§3.3, §4.4):
//
//   * a /16 with a static region plus transient blocks — one /24 VPN,
//     one /22 DHCP (sticky, residence-hall style), one /23 PPP and one
//     /23 wireless (2,304 transient addresses; the paper's 2,296);
//   * a static server population dominated by idle services (default web
//     pages, printers, workstation SSH, legacy FTP), a small hot set
//     that serves nearly all flows, and a large one-shot overheard set;
//   * firewalled servers that drop campus probes but serve real clients,
//     and MySQL servers that block external sources but answer internal
//     probes (§4.4.3);
//   * transient hosts whose services appear/disappear with their leases;
//   * external client traffic (diurnal, Zipf-weighted) and external
//     scanner sweeps (§4.3);
//   * a multi-homed border with per-peering taps (§5.2).
//
// Presets mirror the paper's datasets (Table 1): DTCP1-18d/-90d,
// DTCPbreak, DTCPall, DUDP, plus a small `tiny()` scenario for tests.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "host/address_pool.h"
#include "host/host.h"
#include "host/universe.h"
#include "net/ipv4.h"
#include "net/ports.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "workload/external_scanner.h"
#include "workload/flow_generator.h"

namespace svcdisc::workload {

/// Hostile-network zoo block offsets inside the campus /16. Like the
/// transient blocks they sit at fixed, aligned offsets — in the gap
/// between the static region and the VPN block — so scenario goldens
/// stay stable as counts change. Each block holds at most 256 addresses.
inline constexpr std::uint32_t kMiddleboxBlockOffset = 12288;
inline constexpr std::uint32_t kTarpitBlockOffset = 12544;
inline constexpr std::uint32_t kCgnatBlockOffset = 12800;
inline constexpr std::uint32_t kIotBlockOffset = 13056;
inline constexpr std::uint32_t kRenumberBlockOffset = 13312;

struct CampusConfig {
  std::uint64_t seed{0x5eedULL};
  util::Duration duration{util::days(18)};
  /// Calendar anchor of the campaign start (for figure labels).
  int cal_year{2006};
  int cal_month{9};
  int cal_day{19};
  int cal_hour{10};

  // ---- address plan -----------------------------------------------------
  net::Ipv4 campus_base{net::Ipv4::from_octets(128, 125, 0, 0)};
  /// Scanned static addresses (offsets 0..static_addresses-1).
  std::uint32_t static_addresses{13826};
  /// Transient blocks at fixed aligned offsets inside the /16:
  /// VPN /24 @ 14080, DHCP /22 @ 14336, PPP /23 @ 15360,
  /// wireless /23 @ 15872. The paper could not actively probe the
  /// wireless range (§4.4.2), so it is excluded from scan targets by
  /// default.
  bool include_wireless_in_scan{false};
  /// Disable the transient blocks entirely (DTCPall's single /24).
  bool transient_blocks{true};

  // ---- static population -------------------------------------------------
  std::uint32_t static_plain{2600};  ///< live hosts with no services
  // Web server counts by root-page class (paper Table 5 proportions).
  std::uint32_t web_custom{170};
  std::uint32_t web_default{470};
  std::uint32_t web_minimal{10};
  std::uint32_t web_config{600};
  std::uint32_t web_database{61};
  std::uint32_t web_restricted{17};
  // Additional non-web static servers.
  std::uint32_t ssh_only{360};
  std::uint32_t ftp_only{180};
  std::uint32_t mysql_only{60};
  /// Service births spread uniformly over the campaign, and early deaths.
  std::uint32_t births{200};
  std::uint32_t deaths{8};
  /// Hosts whose firewall drops the campus probers (found only
  /// passively).
  std::uint32_t firewalled{35};
  /// Fraction of MySQL servers that block external sources entirely.
  double mysql_block_external{0.33};
  /// Fraction of static hosts that silently drop ICMP echo — invisible
  /// to ping-based host discovery despite live TCP services.
  double ping_silent_frac{0.06};

  // ---- transient population ----------------------------------------------
  std::uint32_t dhcp_hosts{900};
  double dhcp_service_frac{0.22};
  std::uint32_t ppp_hosts{600};
  double ppp_service_frac{0.20};
  std::uint32_t vpn_hosts{300};
  double vpn_service_frac{0.50};
  double vpn_blocked_frac{0.90};
  std::uint32_t wireless_hosts{450};

  // ---- traffic ------------------------------------------------------------
  // Three-component client traffic model:
  //  * hot: the paper's "37 most active servers, responsible for serving
  //    the majority of clients and connections" — heavy recurring load;
  //  * steady: a modest set with light recurring traffic;
  //  * one-shot: a large population of otherwise-idle servers each
  //    "overheard" once (1-3 flows from one client) at a heavy-tailed
  //    time — what makes 242 of the 286 12-hour discoveries never appear
  //    again (Table 4 "mostly idle") while passive discovery keeps
  //    climbing for the whole campaign (§4.2.1).
  double traffic_scale{1.0};
  std::uint32_t hot_services{37};
  double hot_rate_min{30.0};    ///< flows/hour, Zipf-spread up to max
  double hot_rate_max{1000.0};
  std::uint32_t steady_services{25};
  double steady_rate_min{0.2};  ///< flows/hour
  double steady_rate_max{3.0};
  std::uint32_t oneshot_services{900};
  /// One-shot contact times are duration * u^oneshot_exponent (u uniform),
  /// giving the paper's ~t^0.42 cumulative passive-discovery shape.
  double oneshot_exponent{2.38};
  /// Fraction of PPP hosts' services that receive real client traffic
  /// while online (what lets passive beat active on PPP).
  double ppp_traffic_frac{0.85};

  // ---- external scanners ---------------------------------------------------
  bool external_scans{true};
  std::uint32_t small_sweeps{58};

  // ---- border -----------------------------------------------------------
  std::vector<std::pair<std::string, double>> peerings{
      {"commercial1", 0.55}, {"commercial2", 0.45}};
  bool internet2{false};
  double academic_client_frac{0.50};

  // ---- probing ----------------------------------------------------------
  std::uint32_t prober_machines{2};
  double probe_rate_per_sec{7.5};

  // ---- protocol variants ---------------------------------------------------
  /// DUDP: UDP service population + generic UDP probing.
  bool udp_mode{false};
  /// DTCPall: one /24 of lab machines, services on arbitrary ports.
  bool all_ports_mode{false};

  // ---- hostile-network zoo (scenario packs; DESIGN.md §12) ----------------
  // All counts default to 0, and the builders draw no randomness when the
  // zoo is off, so ordinary presets stay byte-identical with the zoo
  // compiled in. Enabling any zoo feature requires
  // static_addresses <= kMiddleboxBlockOffset (the blocks live in the gap
  // above the static region) and counts of at most 256 per block.
  /// LZR-style DPI gear: SYN-ACKs on every port, inflating active
  /// discovery with phantom services the passive monitor never confirms.
  std::uint32_t middlebox_hosts{0};
  /// Tarpits/honeypots: SYN-ACK everything, but only after a delay that
  /// outlasts any sane probe timeout.
  std::uint32_t tarpit_hosts{0};
  double tarpit_delay_sec{40.0};
  /// CGNAT block: many short-session hosts behind a tiny shared pool.
  std::uint32_t cgnat_hosts{0};
  std::uint32_t cgnat_addresses{16};  ///< pool size (rounded up to 2^k)
  double cgnat_service_frac{0.35};
  /// IoT fleet arriving mid-campaign (tenant churn / burst onboarding).
  std::uint32_t iot_burst_hosts{0};
  double iot_burst_day{0.5};
  double iot_churn_frac{0.5};  ///< fraction gone again one day later
  /// Outage event: the hottest servers go dark mid-campaign and — with
  /// outage_renumber — come back under fresh addresses.
  std::uint32_t outage_hosts{0};
  double outage_day{1.0};
  double outage_duration_hours{6.0};
  bool outage_renumber{false};

  /// True when any zoo population is configured.
  bool zoo_enabled() const;

  // ---- internet-scale universe (DESIGN.md §14) ----------------------------
  // Blocks of stateless, profile-driven addresses served by a
  // ScaleUniverse instead of per-address Host objects, pushing campaigns
  // past a million probe targets with RSS bounded by contacted addresses.
  // All defaults keep the universe off, and the builder draws no
  // randomness when disabled, so existing goldens stay byte-identical.
  /// Number of scale blocks (0 disables the universe).
  std::uint32_t scale_blocks{0};
  /// Prefix length of each block (16 -> 65,536 addresses per block).
  int scale_block_bits{16};
  /// Base of the first block; block b starts at base + b * 2^(32-bits),
  /// so the blocks tile a contiguous range. Must not overlap the campus
  /// /16 or the prober management /24.
  net::Ipv4 scale_base{net::Ipv4::from_octets(11, 0, 0, 0)};
  /// Fraction of universe addresses hosting a live machine.
  double scale_live_frac{0.3};
  /// Fraction of live universe addresses running a TCP service.
  double scale_service_frac{0.02};
  /// Fraction of live universe addresses answering ICMP echo.
  double scale_echo_frac{0.8};
  /// Include every universe address in the probe target list.
  bool scale_scan{true};
  /// One-shot external client contacts aimed at universe services
  /// (exercises passive discovery at scale; same heavy-tailed timing as
  /// the campus one-shot population).
  std::uint32_t scale_oneshot_contacts{0};

  /// True when a scale universe is configured.
  bool scale_enabled() const { return scale_blocks > 0; }

  // Presets (paper Table 1).
  static CampusConfig dtcp1_18d();
  static CampusConfig dtcp1_90d();
  static CampusConfig dtcp_break();
  static CampusConfig dtcp_all();
  static CampusConfig dudp();
  /// A small, fast scenario for unit/integration tests.
  static CampusConfig tiny();
  /// tiny() plus a 16 x /16 scale universe: 1,048,576+ probe targets.
  static CampusConfig scale1m();
};

/// A named dataset preset: the CLI's --scenario values and the "preset"
/// key of scenario.json both resolve through presets().
struct Preset {
  const char* name;
  CampusConfig (*make)();
  const char* summary;  ///< one line for the `scenarios` listing
};

/// Every preset, in listing order.
std::span<const Preset> presets();
/// The preset called `name`, or nullptr when there is none.
const Preset* find_preset(std::string_view name);

/// What a host was built as (ground-truth bookkeeping for the benches).
struct HostInfo {
  host::Host* host{nullptr};
  host::AddressClass cls{host::AddressClass::kStatic};
  bool has_service{false};
};

class Campus {
 public:
  explicit Campus(CampusConfig config);
  ~Campus();

  Campus(const Campus&) = delete;
  Campus& operator=(const Campus&) = delete;

  const CampusConfig& config() const { return config_; }
  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *network_; }
  FlowGenerator& flows() { return *flows_; }
  ExternalScannerFleet& scanners() { return *scanners_; }
  const util::Calendar& calendar() const { return calendar_; }

  /// The probe target list (the paper's "16,130 IP addresses").
  const std::vector<net::Ipv4>& scan_targets() const { return *scan_targets_; }
  /// The same list, shared: the external scanners and the prober's
  /// schedule hold it rather than a copy.
  std::shared_ptr<const std::vector<net::Ipv4>> shared_scan_targets() const {
    return scan_targets_;
  }
  /// Campus prefixes (for monitors/detectors).
  const std::vector<net::Prefix>& internal_prefixes() const {
    return internal_prefixes_;
  }
  /// Internal prober source addresses.
  const std::vector<net::Ipv4>& prober_sources() const {
    return prober_sources_;
  }
  /// TCP ports of the studied service set for this scenario.
  const std::vector<net::Port>& tcp_ports() const { return tcp_ports_; }
  const std::vector<net::Port>& udp_ports() const { return udp_ports_; }

  const std::vector<HostInfo>& hosts() const { return host_infos_; }
  /// The scale universe, or nullptr when scale_blocks == 0.
  const host::ScaleUniverse* universe() const { return universe_.get(); }
  /// Address-block class of `addr` (by block layout, address need not be
  /// live).
  host::AddressClass class_of(net::Ipv4 addr) const;
  /// The host currently holding `addr`, or nullptr.
  host::Host* host_at(net::Ipv4 addr) const;

  /// Starts lifecycles, traffic and scanner sweeps. Call once, then
  /// simulate with simulator().run_until().
  void start();
  /// True once start() has run.
  bool started() const { return started_; }

  /// Convenience: start() then run the configured duration.
  void run_all();

 private:
  void build_address_plan();
  void build_border();
  void build_static_population();
  void build_transient_population();
  void build_traffic();
  void build_scanners();
  void build_udp_population();
  void build_allports_population();
  void build_zoo_population();
  void build_scale_universe();

  host::Host* new_static_host(net::Ipv4 addr, host::LifecycleConfig lc);
  host::Host* new_pool_host(host::AddressPool& pool, host::LifecycleConfig lc);
  void track(host::Host* h, host::AddressClass cls);
  net::Ipv4 external_address(std::uint64_t salt);
  std::vector<net::Ipv4> make_client_pool(std::size_t count,
                                          std::uint64_t salt);

  CampusConfig config_;
  util::Rng rng_;
  util::Calendar calendar_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<FlowGenerator> flows_;
  std::unique_ptr<ExternalScannerFleet> scanners_;

  std::vector<net::Prefix> internal_prefixes_;
  // Filled while the address plan is built, then only shared.
  std::shared_ptr<std::vector<net::Ipv4>> scan_targets_ =
      std::make_shared<std::vector<net::Ipv4>>();
  std::vector<net::Ipv4> prober_sources_;
  std::vector<net::Port> tcp_ports_;
  std::vector<net::Port> udp_ports_;

  std::unique_ptr<host::AddressPool> vpn_pool_;
  std::unique_ptr<host::AddressPool> dhcp_pool_;
  std::unique_ptr<host::AddressPool> ppp_pool_;
  std::unique_ptr<host::AddressPool> wireless_pool_;
  std::unique_ptr<host::AddressPool> cgnat_pool_;
  std::unique_ptr<host::ScaleUniverse> universe_;

  std::vector<std::unique_ptr<host::Host>> hosts_;
  std::vector<HostInfo> host_infos_;
  std::unordered_map<net::Ipv4, host::Host*> host_by_addr_;

  // One traffic slot per static server (its primary TCP service).
  struct TrafficSlot {
    host::Host* host;
    net::Proto proto;
    net::Port port;
  };
  std::vector<TrafficSlot> traffic_slots_;
  std::uint32_t next_host_id_{1};
  bool started_{false};
};

}  // namespace svcdisc::workload
