// The active prober: Nmap-style half-open TCP and generic UDP scanning
// (paper §2.1, §3.1).
//
// A scan walks (target address x port), pacing probes with a token
// bucket, optionally splitting the target space across several internal
// prober machines (the paper used two for the large datasets). Probe
// interpretation:
//   * TCP: SYN-ACK -> open; RST -> closed; no answer -> filtered
//     (firewall or dead address);
//   * UDP: UDP reply -> definitely open; ICMP port-unreachable ->
//     definitely closed; no answer -> possibly open IF the host proved
//     alive on some other port, else no-host (§4.5).
// Probers are internal campus machines, so probe traffic never crosses
// the border and is invisible to passive monitoring.
//
// Two probers share the ProberBase plumbing (DESIGN.md §16):
//   * Prober — the paper's fixed exhaustive sweep (this file);
//   * AdaptiveProber — a budgeted priority-queue prober with learned
//     priors and LZR-style verification (active/adaptive_prober.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "active/rate_limiter.h"
#include "net/ipv4.h"
#include "net/packet.h"
#include "net/ports.h"
#include "passive/service_table.h"
#include "sim/network.h"
#include "sim/node.h"
#include "util/flat_hash.h"
#include "util/metrics.h"
#include "util/sim_time.h"

namespace svcdisc::active {

/// Outcome of one probe.
enum class ProbeStatus : std::uint8_t {
  kOpen,        ///< TCP SYN-ACK received
  kClosed,      ///< TCP RST or ICMP port-unreachable received
  kFiltered,    ///< TCP: no response (firewall or no host)
  kOpenUdp,     ///< UDP reply received
  kMaybeOpen,   ///< UDP: no response, host known alive
  kNoHost,      ///< UDP: no response from any probed port on the host
  kUnverified,  ///< TCP: SYN-ACK received but the LZR-style data probe
                ///< went unanswered — middlebox/tarpit, not a service
  kPending,     ///< internal: awaiting response/timeout
};

struct ProbeOutcome {
  passive::ServiceKey key;
  ProbeStatus status{ProbeStatus::kPending};
  util::TimePoint when{};  ///< send time
};

/// One completed scan's results.
struct ScanRecord {
  int index{0};
  util::TimePoint started{};
  util::TimePoint finished{};
  std::vector<ProbeOutcome> outcomes;
  /// Host-discovery bookkeeping (zero when the pre-pass was off).
  std::uint32_t hosts_pinged{0};
  std::uint32_t hosts_alive{0};

  /// Count of outcomes with the given status.
  std::size_t count(ProbeStatus status) const;
  /// Services found open (TCP open or UDP definitely open) in this scan.
  std::vector<passive::ServiceKey> open_services() const;
};

struct ScanSpec {
  /// Addresses to probe, in probe order.
  std::vector<net::Ipv4> targets;
  std::vector<net::Port> tcp_ports;
  std::vector<net::Port> udp_ports;
  /// Sustained probe rate per prober machine.
  double probes_per_sec{12.0};
  /// How long to wait before declaring "no response".
  util::Duration timeout{util::seconds(3)};
  /// Ping-based host discovery: an ICMP echo pre-pass per address, with
  /// port probes sent only to responders. The paper omits this
  /// optimization from its scans ("we omit this optimization", §5.4);
  /// it speeds scans of sparse space at the cost of missing ping-silent
  /// hosts — quantified by bench_ablation_hostdiscovery.
  bool host_discovery{false};
  /// Service-specific UDP probes: send a well-formed application request
  /// instead of an empty datagram, so implementations that ignore
  /// malformed input still answer. Nmap supports this; the paper was
  /// "not allowed to use that service due to potential privacy concerns"
  /// (§4.5). Turns most "possibly open" verdicts into definite ones —
  /// quantified by bench_ablation_udp_probes.
  bool udp_service_probes{false};
};

struct ProberConfig {
  /// Internal source addresses; the target list is split evenly across
  /// them and the machines scan in parallel (paper: two machines for the
  /// 16,130-address datasets).
  std::vector<net::Ipv4> source_addrs;
};

/// Shared plumbing of the fixed and adaptive probers: network
/// attachment, the cumulative discovery table, completed-scan records,
/// discovery callbacks, outcome settling and the base metric set. Each
/// derived prober keeps its own index of pending probes.
/// Derived classes implement start_scan / on_packet / on_timer — the
/// scan strategy — on top of the protected state below.
class ProberBase : public sim::PacketSink, public sim::TimerTarget {
 public:
  ProberBase(sim::Network& network, ProberConfig config);
  ~ProberBase() override;

  ProberBase(const ProberBase&) = delete;
  ProberBase& operator=(const ProberBase&) = delete;

  /// Starts a scan; `on_complete` fires when every probe has resolved.
  /// Only one scan may be in flight at a time.
  virtual void start_scan(
      ScanSpec spec, std::function<void(const ScanRecord&)> on_complete = {}) = 0;

  bool scan_in_progress() const { return in_progress_; }

  /// All completed scans, oldest first.
  const std::vector<ScanRecord>& scans() const { return scans_; }

  /// Cumulative first-open discoveries across all scans (drives the
  /// active discovery curves).
  const passive::ServiceTable& table() const { return table_; }

  /// Fires on each first-time discovery of an open service.
  std::function<void(const passive::ServiceKey&, util::TimePoint)>
      on_discovery;

  /// Fires on *every* open probe response — first discoveries and
  /// re-confirmations alike. `udp` distinguishes kOpenUdp from kOpen.
  /// Feeds the provenance ledger.
  std::function<void(const passive::ServiceKey&, util::TimePoint, bool udp)>
      on_open_response;

  /// Registers `<prefix>.` counters (probes_tcp_sent, probes_udp_sent,
  /// pings_sent, responses_received, discoveries, scans_completed) plus
  /// the pacing buckets' `<prefix>.rate_limiter.grants/.deferrals`.
  /// Derived probers may extend the set.
  virtual void attach_metrics(util::MetricsRegistry& registry,
                              std::string_view prefix);

 protected:
  /// Timer tag above any realistic machine index.
  static constexpr std::uint64_t kTimerFinalize = ~std::uint64_t{0};

  /// Opens the in-flight ScanRecord (index, start time, trace span).
  /// Derived start_scan implementations call this exactly once.
  void begin_scan_record(ScanSpec spec,
                         std::function<void(const ScanRecord&)> on_complete);
  /// Closes the in-flight record: stamps finish time, appends to
  /// scans(), bumps metrics and fires on_complete.
  void finish_scan_record();

  /// One fresh per-machine pacing bucket per source address (burst 1
  /// reproduces strict 1/rate spacing).
  void reset_buckets();

  /// Resolves the pending outcome current_.outcomes[outcome_index] with
  /// a response's `status`. Each prober finds the index in its own
  /// pending structure and calls this once per answered probe. Open
  /// statuses record into the table and fire the discovery callbacks;
  /// every resolution reaches note_outcome().
  void settle(std::size_t outcome_index, ProbeStatus status);
  /// The open-probe bookkeeping shared by settle() and the adaptive
  /// prober's verification path: table discovery + callbacks + counters.
  void record_open(const ProbeOutcome& outcome, bool udp);
  /// Hook invoked for every resolved outcome (the adaptive prober's
  /// online prior updates). Default: nothing.
  virtual void note_outcome(const ProbeOutcome& outcome);
  /// Sends one port probe from `source` and counts it: a SYN, or a
  /// generic (zero-payload) UDP datagram (§4.5) — service-specific with
  /// spec_.udp_service_probes, a well-formed application request that
  /// any live implementation answers.
  void send_probe(net::Ipv4 source, net::Ipv4 addr, net::Proto proto,
                  net::Port port);
  /// §4.5 classification of every outcome still pending at scan end:
  /// unanswered TCP is filtered; unanswered UDP is "possibly open" when
  /// the host proved alive — it is in `alive`, or answered any probe of
  /// this scan — else "no host". Each classified outcome reaches
  /// note_outcome().
  void classify_unanswered(util::FlatSet<net::Ipv4> alive);

  /// Next client-side source port, cycling through 40000-60000.
  net::Port take_ephemeral();

  sim::Network& network_;
  ProberConfig config_;
  passive::ServiceTable table_;
  std::vector<ScanRecord> scans_;

  // In-flight scan state shared by both strategies.
  bool in_progress_{false};
  ScanSpec spec_;
  ScanRecord current_;
  std::function<void(const ScanRecord&)> on_complete_;
  std::vector<TokenBucket> buckets_;  // per machine pacing
  net::Port next_ephemeral_{40000};

  // Optional metrics (null until attach_metrics).
  util::MetricsRegistry* metrics_{nullptr};
  std::string metrics_prefix_;
  util::Counter* m_probes_tcp_{nullptr};
  util::Counter* m_probes_udp_{nullptr};
  util::Counter* m_pings_{nullptr};
  util::Counter* m_responses_{nullptr};
  util::Counter* m_discoveries_{nullptr};
  util::Counter* m_scans_{nullptr};
};

/// The paper's fixed exhaustive sweep: every target address x the full
/// port list, in address-major, port-minor order.
class Prober final : public ProberBase {
 public:
  Prober(sim::Network& network, ProberConfig config);

  void start_scan(ScanSpec spec,
                  std::function<void(const ScanRecord&)> on_complete = {})
      override;

  // sim::PacketSink — receives probe responses.
  void on_packet(const net::Packet& p) override;

  // sim::TimerTarget — pacing ticks (tag = machine index) plus the two
  // phase-transition timeouts.
  void on_timer(std::uint64_t tag) override;

 private:
  static constexpr std::uint64_t kTimerBeginPortPhase = ~std::uint64_t{1};

  struct ProbeTask {
    net::Ipv4 addr{};
    net::Port port{0};
    net::Proto proto{net::Proto::kTcp};
    std::size_t cell{0};  ///< index into cell_outcome_ (port phase only)
  };
  /// One machine's share of the current phase. Tasks are never
  /// materialized: a 1M-address scan used to build a vector of every
  /// (addr, port) pair per machine up front; the plan is three integers
  /// and task_at() computes probe `cursor` on demand, in the identical
  /// address-major, port-minor order.
  struct MachinePlan {
    std::size_t first_target{0};  ///< index into *phase_targets_
    std::size_t target_count{0};
    std::size_t task_count{0};
  };

  void plan_phase(bool ping, std::size_t target_count);
  void start_phase();
  ProbeTask task_at(std::size_t machine, std::size_t cursor) const;
  void begin_port_phase();
  void send_next(std::size_t machine);
  /// Settles the pending outcome of the probe to (addr, port, proto);
  /// a no-op for replies that match no pending probe.
  void resolve(net::Ipv4 addr, net::Port port, net::Proto proto,
               ProbeStatus status);
  void finalize_scan();

  std::vector<MachinePlan> plan_;    // per machine share of the phase
  std::vector<std::size_t> cursor_;  // per machine: next probe
  /// Targets of the current phase: spec_.targets, or alive_targets_
  /// after a host-discovery pre-pass. Both outlive the phase.
  const std::vector<net::Ipv4>* phase_targets_{nullptr};
  std::size_t machines_done_{0};
  // Host-discovery phase state.
  bool pinging_{false};
  util::FlatSet<net::Ipv4> alive_hosts_;
  std::vector<net::Ipv4> alive_targets_;

  // The port phase's probe grid (DESIGN.md §16), built by plan_phase and
  // freed when the scan finishes. Row r is the r-th phase target, column
  // c the c-th port-list entry (TCP ports, then UDP); a repeated target
  // or port maps to the row or column of its first occurrence. A cell
  // holds 0 until probed, then 1 + the index in current_.outcomes of its
  // latest outcome.
  std::size_t columns_{0};
  std::vector<std::uint32_t> cell_outcome_;
  std::vector<std::uint32_t> target_row_;   // per phase target: its row
  std::vector<std::uint32_t> port_column_;  // per port-list entry: column
  util::FlatMap<net::Ipv4, std::uint32_t> row_of_;
  util::FlatMap<std::uint32_t, std::uint32_t> column_of_;  // (proto, port)
};

}  // namespace svcdisc::active
