// Budgeted adaptive prober (DESIGN.md §16): GPS-style priors + LZR-style
// verification, against the paper's fixed exhaustive sweep.
//
// Instead of walking every (address x port) pair, a scan drains a
// priority queue of candidates — highest expected yield first — under an
// explicit probe budget:
//   * candidates seeded from passive observations (SYN-ACK / UDP service
//     traffic crossing the border taps, collected by an inner
//     PacketObserver) always rank first: something out there already
//     spoke to that (addr, port), including ports outside the scan's
//     configured port list (LZR: many services live on unexpected ports);
//   * the remaining target x port grid is scored by ScanPriors (global
//     port popularity, per-/24 affinity with empirical-Bayes shrinkage,
//     cross-port conditionals), updated online from every outcome.
//
// Every TCP SYN-ACK then faces an LZR-style second stage before it may
// count as a service: an immediate ACK + payload "data probe" that a
// real service answers with data and a DPI middlebox / tarpit — which
// SYN-ACKs everything but never completes an exchange — does not.
// Unanswered verifications demote to ProbeStatus::kUnverified and never
// reach the discovery table, so middlebox_dpi-style hosts stop inflating
// active counts.
//
// Determinism: the passive feed and all prior updates run on the
// simulator thread in simulated-time order, so scan artifacts are a
// deterministic function of (config, seed).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "active/priors.h"
#include "active/prober.h"
#include "active/score_queue.h"

namespace svcdisc::active {

struct AdaptiveConfig {
  /// Maximum first-stage probes per scan (0 = unlimited). Verification
  /// data probes ride for free: they are only ever sent to endpoints
  /// that already answered, a vanishing share of the sweep cost.
  std::uint64_t probe_budget{0};
  /// LZR-style second-stage verification of every TCP SYN-ACK. Off, a
  /// SYN-ACK resolves kOpen immediately (the fixed prober's rule).
  bool verify{true};
  /// Empirical-Bayes pseudo-count of the per-subnet prior. Must be
  /// finite and >= 0 (ScanPriors throws std::invalid_argument otherwise).
  double subnet_shrinkage{8.0};
};

class AdaptiveProber final : public ProberBase {
 public:
  AdaptiveProber(sim::Network& network, ProberConfig config,
                 AdaptiveConfig adaptive);

  void start_scan(ScanSpec spec,
                  std::function<void(const ScanRecord&)> on_complete = {})
      override;

  /// Base counters plus the adaptive.* set: budget (gauge), budget_spent,
  /// yield_open, passive_seeds_probed, verify_probes_sent,
  /// verify_confirmed, middlebox_demotions, priors_entropy_millinats
  /// (gauge). Only registered here, so engines running the fixed prober
  /// export no adaptive keys.
  void attach_metrics(util::MetricsRegistry& registry,
                      std::string_view prefix) override;

  /// Passive seeding surface. The feed observer is attached to every
  /// border tap by the engine; hints accumulate across scans.
  sim::PacketObserver& passive_feed() { return feed_; }
  /// Internal prefixes (to recognize outbound service evidence) and the
  /// UDP service ports worth seeding from (empty = ignore UDP traffic).
  void configure_feed(std::vector<net::Prefix> internal,
                      std::vector<net::Port> udp_ports);
  /// Direct hint injection (tests, warm starts from a loaded table).
  void note_passive(const passive::ServiceKey& key);
  /// Seeds one hint per discovered service, in first-seen order.
  void seed_from_table(const passive::ServiceTable& table);

  const ScanPriors& priors() const { return priors_; }
  std::uint64_t budget_spent_total() const { return budget_spent_total_; }
  std::uint64_t seeds_probed_total() const { return seeds_probed_total_; }
  std::uint64_t verify_sent_total() const { return verify_sent_total_; }
  std::uint64_t verify_confirmed_total() const {
    return verify_confirmed_total_;
  }
  /// SYN-ACK endpoints that failed data-exchange verification.
  std::uint64_t demotions_total() const { return demotions_total_; }
  std::size_t hint_count() const { return hints_.size(); }

  // sim::PacketSink — probe responses and verification replies.
  void on_packet(const net::Packet& p) override;

  // sim::TimerTarget — pacing ticks (tag = machine index) + finalize.
  void on_timer(std::uint64_t tag) override;

 private:
  /// The tap-side hint collector. A nested observer (instead of deriving
  /// AdaptiveProber from PacketObserver) keeps the prober's PacketSink
  /// surface — which receives *addressed* probe replies — cleanly apart
  /// from the promiscuous tap feed.
  class Feed final : public sim::PacketObserver {
   public:
    explicit Feed(AdaptiveProber& owner) : owner_(owner) {}
    void observe(const net::Packet& p) override;

   private:
    AdaptiveProber& owner_;
  };

  struct PendingKey {
    net::Ipv4 addr{};
    net::Port port{0};
    net::Proto proto{net::Proto::kTcp};
    bool operator==(const PendingKey&) const = default;
  };
  struct PendingKeyHash {
    std::size_t operator()(const PendingKey& k) const noexcept {
      // Scans walk (addr, port) sequentially; avalanche the packed
      // identity so consecutive probes don't chain in the slot table.
      return util::hash_mix((std::uint64_t{k.addr.value()} << 24) ^
                            (std::uint64_t{k.port} << 8) ^
                            static_cast<std::uint8_t>(k.proto));
    }
  };

  struct Candidate {
    net::Ipv4 addr{};
    net::Port port{0};
    net::Proto proto{net::Proto::kTcp};
    bool seeded{false};
  };
  struct VerifyState {
    std::size_t outcome{0};      ///< index into current_.outcomes
    util::TimePoint sent{};      ///< data-probe send time
  };

  void observe_passive(const net::Packet& p);
  void build_candidates();
  double score_of(const Candidate& c) const;
  /// The next candidate to probe (ScoreQueue::pop_best over score_of).
  std::optional<std::uint32_t> pop_best();
  void send_next(std::size_t machine);
  /// The pending cell of the candidate `key`, or null when `key` is not
  /// a candidate of this scan.
  std::uint32_t* pending_cell(const PendingKey& key);
  /// Settles the pending probe for `key` (no-op on late/duplicate
  /// responses).
  void resolve(const PendingKey& key, ProbeStatus status);
  void send_verify(const net::Packet& syn_ack);
  void confirm_open(const PendingKey& key, std::size_t outcome_index);
  void demote(const PendingKey& key, std::size_t outcome_index);
  void finalize_scan();
  void arm_finalize(util::TimePoint at);

  void note_outcome(const ProbeOutcome& outcome) override;

  AdaptiveConfig adaptive_;
  Feed feed_;
  std::vector<net::Prefix> internal_;
  util::FlatSet<net::Port> udp_seed_ports_;
  /// Accumulated passive hints, deduped, in first-observed order (the
  /// canonical producer order the seeding pass replays).
  util::FlatSet<PendingKey, PendingKeyHash> hints_;
  ScanPriors priors_;

  // Per-scan state.
  /// This scan's candidates, each key once: hints first, then the grid.
  std::vector<Candidate> candidates_;
  /// Key -> index into candidates_. Keys hinted after the scan started
  /// are not in it, so they are neither probed nor settled this scan.
  util::FlatMap<PendingKey, std::uint32_t, PendingKeyHash> candidate_of_;
  /// Candidates not yet probed, highest score first; ties drain in
  /// candidate order. A popped index is never queued again.
  ScoreQueue queue_;
  /// Per candidate: 0 when not awaiting an answer, else 1 + the index in
  /// current_.outcomes of its probe. Cleared when the answer arrives.
  std::vector<std::uint32_t> pending_;
  std::uint64_t budget_left_{0};
  std::vector<char> machine_done_;
  std::size_t machines_done_{0};
  /// SYN-ACKed endpoints awaiting the data-probe verdict.
  util::FlatMap<PendingKey, VerifyState, PendingKeyHash> verifying_;

  // Cross-scan totals.
  std::uint64_t budget_spent_total_{0};
  std::uint64_t seeds_probed_total_{0};
  std::uint64_t verify_sent_total_{0};
  std::uint64_t verify_confirmed_total_{0};
  std::uint64_t demotions_total_{0};

  // Adaptive metrics (null until attach_metrics).
  util::Gauge* m_budget_{nullptr};
  util::Counter* m_budget_spent_{nullptr};
  util::Counter* m_yield_open_{nullptr};
  util::Counter* m_seeds_probed_{nullptr};
  util::Counter* m_verify_sent_{nullptr};
  util::Counter* m_verify_confirmed_{nullptr};
  util::Counter* m_demotions_{nullptr};
  util::Gauge* m_entropy_{nullptr};
};

}  // namespace svcdisc::active
