// The active prober: Nmap-style half-open TCP and generic UDP scanning
// (paper §2.1, §3.1), plus a budgeted adaptive mode (DESIGN.md §16).
//
// A scan probes (target address x port), pacing probes with a token
// bucket per internal prober machine (the paper used two for the large
// datasets), after an optional ICMP ping pre-pass that keeps only the
// responders. Probe interpretation:
//   * TCP: SYN-ACK -> open; RST -> closed; no answer -> filtered
//     (firewall or dead address);
//   * UDP: UDP reply -> definitely open; ICMP port-unreachable ->
//     definitely closed; no answer -> possibly open IF the host proved
//     alive on some other port, else no-host (§4.5).
// Probers are internal campus machines, so probe traffic never crosses
// the border and is invisible to passive monitoring.
//
// One class, two orders for the port phase:
//   * the sweep (no AdaptiveConfig, the paper's scan): each machine walks
//     a contiguous share of the targets, address-major, port-minor;
//   * the adaptive mode: all machines pop one shared score queue of
//     virtual candidate indices — passive hints first, then the grid —
//     ranked by GPS-style learned priors (active/priors.h), under a
//     probe budget, with LZR-style verification of every SYN-ACK: an
//     ACK + data probe that a real service answers and a DPI middlebox
//     or tarpit does not (unanswered -> ProbeStatus::kUnverified, never
//     a discovery).
// Hints come from passive_feed(), a tap observer that turns internal
// SYN-ACKs and UDP service replies into (addr, port) hints. It runs on
// the simulator thread in simulated-time order, so scan artifacts are a
// deterministic function of (config, seed) in both modes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "active/priors.h"
#include "active/rate_limiter.h"
#include "active/score_queue.h"
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

struct AdaptiveConfig {
  /// Maximum first-stage probes per scan (0 = unlimited). Verification
  /// data probes ride for free: they are only ever sent to endpoints
  /// that already answered, a vanishing share of the sweep cost.
  std::uint64_t probe_budget{0};
  /// LZR-style second-stage verification of every TCP SYN-ACK. Off, a
  /// SYN-ACK resolves kOpen immediately (the sweep's rule).
  bool verify{true};
  /// Empirical-Bayes pseudo-count of the per-subnet prior. Must be
  /// finite and >= 0 (ScanPriors throws std::invalid_argument otherwise).
  double subnet_shrinkage{8.0};
};

/// The prober. Without an AdaptiveConfig it runs the paper's sweep;
/// with one, the adaptive mode ranks the same grid (plus passive hints)
/// by learned priors. Both modes share everything but the port phase's
/// send order (DESIGN.md §16).
class Prober final : public sim::PacketSink, public sim::TimerTarget {
 public:
  Prober(sim::Network& network, ProberConfig config,
         std::optional<AdaptiveConfig> adaptive = std::nullopt);
  ~Prober() override;

  Prober(const Prober&) = delete;
  Prober& operator=(const Prober&) = delete;

  /// Starts a scan; `on_complete` fires when every probe has resolved.
  /// Only one scan may be in flight at a time. Throws std::length_error,
  /// before sending anything, when the scan's probe indices would not
  /// fit in 32 bits.
  void start_scan(ScanSpec spec,
                  std::function<void(const ScanRecord&)> on_complete = {});

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
  /// the pacing buckets' `<prefix>.rate_limiter.grants/.deferrals`. The
  /// adaptive mode adds the top-level adaptive.* set: budget (gauge),
  /// budget_spent, yield_open, passive_seeds_probed, verify_probes_sent,
  /// verify_confirmed, middlebox_demotions, priors_entropy_millinats
  /// (gauge); the sweep exports none of them.
  void attach_metrics(util::MetricsRegistry& registry,
                      std::string_view prefix);

  /// True in the adaptive mode.
  bool adaptive() const { return adaptive_.has_value(); }

  // Passive seeding (adaptive mode; the sweep never reads the hints).
  /// The tap-side hint collector; the engine attaches it to every border
  /// tap. Hints accumulate across scans.
  sim::PacketObserver& passive_feed() { return feed_; }
  /// Internal prefixes (to recognize outbound service evidence) and the
  /// UDP service ports worth seeding from (empty = ignore UDP traffic).
  void configure_feed(std::vector<net::Prefix> internal,
                      std::vector<net::Port> udp_ports);
  /// Direct hint injection (tests, warm starts from a loaded table).
  void note_passive(const passive::ServiceKey& key);
  /// Seeds one hint per discovered service, in first-seen order.
  void seed_from_table(const passive::ServiceTable& table);
  std::size_t hint_count() const { return hints_.size(); }

  const ScanPriors& priors() const { return priors_; }
  std::uint64_t budget_spent_total() const { return budget_spent_total_; }
  std::uint64_t seeds_probed_total() const { return seeds_probed_total_; }
  std::uint64_t verify_sent_total() const { return verify_sent_total_; }
  std::uint64_t verify_confirmed_total() const {
    return verify_confirmed_total_;
  }
  /// SYN-ACK endpoints that failed data-exchange verification.
  std::uint64_t demotions_total() const { return demotions_total_; }

  // sim::PacketSink — probe responses and verification replies.
  void on_packet(const net::Packet& p) override;

  // sim::TimerTarget — pacing ticks (tag = machine index) plus the two
  // phase-transition timeouts.
  void on_timer(std::uint64_t tag) override;

 private:
  static constexpr std::uint64_t kTimerFinalize = ~std::uint64_t{0};
  static constexpr std::uint64_t kTimerBeginPortPhase = ~std::uint64_t{1};

  /// A nested observer (instead of deriving Prober from PacketObserver)
  /// keeps the PacketSink surface — addressed probe replies — apart from
  /// the promiscuous tap feed.
  class Feed final : public sim::PacketObserver {
   public:
    explicit Feed(Prober& owner) : owner_(owner) {}
    void observe(const net::Packet& p) override;

   private:
    Prober& owner_;
  };

  /// One machine's share of a phase in the sweep order. Tasks are never
  /// materialized: the plan is three integers and the send path computes
  /// probe `cursor` on demand, address-major, port-minor.
  struct MachinePlan {
    std::size_t first_target{0};  ///< index into *phase_targets_
    std::size_t target_count{0};
    std::size_t task_count{0};
  };
  struct VerifyState {
    std::size_t outcome{0};      ///< index into current_.outcomes
    util::TimePoint sent{};      ///< data-probe send time
  };

  // Scan phases.
  void plan_phase(bool ping, std::size_t target_count);
  /// Queues the adaptive port phase's candidates: hints, then the grid.
  void rank_candidates();
  void start_phase();
  void begin_port_phase();
  void send_next(std::size_t machine);
  /// Sends a port probe and opens (or folds into) its cell's outcome.
  void send_port_probe(net::Ipv4 source, const passive::ServiceKey& key,
                       std::uint32_t& cell, util::TimePoint now);
  void machine_done();
  void finalize_scan();

  // The index space. Cell and candidate indices coincide: [0, H) are
  // this scan's hints, H + row * columns_ + column the grid cells.
  /// The key of phase target `target` x port-list entry `column`.
  passive::ServiceKey grid_key(std::size_t target, std::size_t column) const;
  /// Decodes a candidate index back to its key.
  passive::ServiceKey key_of(std::uint32_t index) const;
  /// Hints score above every prior; grid cells score by the priors.
  double score_of(std::uint32_t index) const;
  /// A row page: the rows of one /24's 256 addresses, each 0 (no row)
  /// or 1 + the row of the address's first occurrence.
  using RowPage = std::array<std::uint32_t, 256>;
  /// The row slot of `addr`, or null when its /24 holds no target.
  std::uint32_t* find_row(net::Ipv4 addr);
  /// The row slot of `addr`, allocating its /24's page if needed.
  std::uint32_t& row_slot(net::Ipv4 addr);
  /// The grid cell of `key`, or null when it is no target x port pair.
  std::uint32_t* grid_cell(const passive::ServiceKey& key);
  /// The cell of `key`: its grid cell, else its queued hint's cell, else
  /// null.
  std::uint32_t* cell_of(const passive::ServiceKey& key);

  // Replies.
  /// Settles the pending probe of `key` (no-op on a stray, late or
  /// duplicate reply).
  void resolve(const passive::ServiceKey& key, ProbeStatus status);
  /// Sets the outcome's status and time, counts the response, records an
  /// open and notes the outcome.
  void settle(std::size_t outcome_index, ProbeStatus status);
  /// Table discovery + callbacks for an open outcome.
  void record_open(const ProbeOutcome& outcome, bool udp);
  /// The adaptive mode's online prior update; nothing in the sweep.
  void note_outcome(const ProbeOutcome& outcome);
  void send_probe(net::Ipv4 source, net::Ipv4 addr, net::Proto proto,
                  net::Port port);
  void send_verify(const net::Packet& syn_ack);
  /// Ends a verification with the outcome's final status.
  void end_verify(const passive::ServiceKey& key, std::size_t outcome_index,
                  ProbeStatus status);
  /// §4.5 classification of every outcome still pending at scan end:
  /// unanswered TCP is filtered; unanswered UDP is "possibly open" when
  /// the host answered the ping or any probe of this scan, else "no host".
  void classify_unanswered();
  void observe_passive(const net::Packet& p);
  net::Port take_ephemeral();

  sim::Network& network_;
  ProberConfig config_;
  std::optional<AdaptiveConfig> adaptive_;
  passive::ServiceTable table_;
  std::vector<ScanRecord> scans_;

  // In-flight scan state.
  bool in_progress_{false};
  ScanSpec spec_;
  ScanRecord current_;
  std::function<void(const ScanRecord&)> on_complete_;
  std::vector<TokenBucket> buckets_;  // per machine pacing
  net::Port next_ephemeral_{40000};
  std::vector<MachinePlan> plan_;    // per machine share of the phase
  std::vector<std::size_t> cursor_;  // per machine: next probe
  /// Targets of the current phase: spec_.targets, or alive_targets_
  /// after a host-discovery pre-pass. Both outlive the phase.
  const std::vector<net::Ipv4>* phase_targets_{nullptr};
  std::size_t machines_done_{0};
  bool pinging_{false};
  util::FlatSet<net::Ipv4> alive_hosts_;
  std::vector<net::Ipv4> alive_targets_;

  // The port phase's index space (DESIGN.md §16), built by plan_phase and
  // rank_candidates and freed when the scan finishes. Grid row r is the
  // r-th phase target, column c the c-th port-list entry (TCP ports, then
  // UDP); a repeated target or port maps to the row or column of its
  // first occurrence. A cell holds 0 while not awaiting an answer, else
  // 1 + the index in current_.outcomes of its pending probe.
  std::size_t columns_{0};
  std::vector<std::uint32_t> cell_outcome_;  // hint cells, then the grid
  std::vector<std::uint32_t> target_row_;   // per phase target: its row
  std::vector<std::uint32_t> port_column_;  // per port-list entry: column
  // Address -> row: one 1 KiB page per /24 holding a target, found
  // through a /24 -> page directory and a memo of the last page used.
  std::vector<std::unique_ptr<RowPage>> row_pages_;
  util::FlatMap<std::uint32_t, std::uint32_t> page_of_;  // /24 -> page
  std::uint32_t memo_prefix_{0};
  RowPage* memo_page_{nullptr};  // page of memo_prefix_; null: no memo
  util::FlatMap<std::uint32_t, std::uint32_t> column_of_;  // (proto, port)

  // Adaptive mode.
  Feed feed_;
  std::vector<net::Prefix> internal_;
  util::FlatSet<net::Port> udp_seed_ports_;
  /// Accumulated passive hints, deduped, in first-observed order.
  util::FlatSet<passive::ServiceKey, passive::ServiceKeyHash> hints_;
  ScanPriors priors_;
  /// The hints at scan start: candidates [0, H). Hints noted later wait
  /// for the next scan.
  std::vector<passive::ServiceKey> scan_hints_;
  /// Queued hints off the grid -> their own cell (index < H).
  util::FlatMap<passive::ServiceKey, std::uint32_t, passive::ServiceKeyHash>
      hint_cell_;
  /// Candidates not yet probed, highest score first; ties drain in index
  /// order. A popped index is never queued again.
  ScoreQueue queue_;
  std::uint64_t budget_left_{0};
  /// SYN-ACKed endpoints awaiting the data-probe verdict.
  util::FlatMap<passive::ServiceKey, VerifyState, passive::ServiceKeyHash>
      verifying_;
  std::uint64_t budget_spent_total_{0};
  std::uint64_t seeds_probed_total_{0};
  std::uint64_t verify_sent_total_{0};
  std::uint64_t verify_confirmed_total_{0};
  std::uint64_t demotions_total_{0};

  // Optional metrics (null until attach_metrics).
  util::MetricsRegistry* metrics_{nullptr};
  std::string metrics_prefix_;
  util::Counter* m_probes_tcp_{nullptr};
  util::Counter* m_probes_udp_{nullptr};
  util::Counter* m_pings_{nullptr};
  util::Counter* m_responses_{nullptr};
  util::Counter* m_discoveries_{nullptr};
  util::Counter* m_scans_{nullptr};
  util::Gauge* m_budget_{nullptr};
  util::Counter* m_budget_spent_{nullptr};
  util::Counter* m_yield_open_{nullptr};
  util::Counter* m_seeds_probed_{nullptr};
  util::Counter* m_verify_sent_{nullptr};
  util::Counter* m_verify_confirmed_{nullptr};
  util::Counter* m_demotions_{nullptr};
  util::Gauge* m_entropy_{nullptr};
};

/// Kept only because perfbench/layers.cpp names it; delete it with the
/// next benchmark change.
using ProberBase = Prober;

}  // namespace svcdisc::active
