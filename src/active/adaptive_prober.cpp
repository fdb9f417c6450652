#include "active/adaptive_prober.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/trace.h"

namespace svcdisc::active {
namespace {

/// Payload of the LZR-style verification data probe: a short generic
/// application banner request. The simulated stack only cares that
/// payload_len > 0 — genuine data reached the service.
constexpr std::uint16_t kVerifyPayload = 32;

}  // namespace

AdaptiveProber::AdaptiveProber(sim::Network& network, ProberConfig config,
                               AdaptiveConfig adaptive)
    : ProberBase(network, std::move(config)),
      adaptive_(adaptive),
      feed_(*this),
      priors_(adaptive.subnet_shrinkage) {}

void AdaptiveProber::attach_metrics(util::MetricsRegistry& registry,
                                    std::string_view prefix) {
  ProberBase::attach_metrics(registry, prefix);
  // Top-level adaptive.* keys (the scale.*/stream.* convention): only
  // registered by this override, so fixed-prober engines export none of
  // them and existing metric goldens stay byte-identical.
  m_budget_ = &registry.gauge("adaptive.budget");
  m_budget_spent_ = &registry.counter("adaptive.budget_spent");
  m_yield_open_ = &registry.counter("adaptive.yield_open");
  m_seeds_probed_ = &registry.counter("adaptive.passive_seeds_probed");
  m_verify_sent_ = &registry.counter("adaptive.verify_probes_sent");
  m_verify_confirmed_ = &registry.counter("adaptive.verify_confirmed");
  m_demotions_ = &registry.counter("adaptive.middlebox_demotions");
  m_entropy_ = &registry.gauge("adaptive.priors_entropy_millinats");
  m_budget_->set(static_cast<std::int64_t>(adaptive_.probe_budget));
}

void AdaptiveProber::configure_feed(std::vector<net::Prefix> internal,
                                    std::vector<net::Port> udp_ports) {
  internal_ = std::move(internal);
  udp_seed_ports_.clear();
  for (const net::Port p : udp_ports) udp_seed_ports_.insert(p);
}

void AdaptiveProber::note_passive(const passive::ServiceKey& key) {
  hints_.insert(PendingKey{key.addr, key.port, key.proto});
}

void AdaptiveProber::seed_from_table(const passive::ServiceTable& table) {
  for (const auto& [key, first_seen] : table.chronological()) {
    note_passive(key);
  }
}

void AdaptiveProber::Feed::observe(const net::Packet& p) {
  owner_.observe_passive(p);
}

void AdaptiveProber::observe_passive(const net::Packet& p) {
  const auto is_internal = [this](net::Ipv4 addr) {
    for (const net::Prefix& prefix : internal_) {
      if (prefix.contains(addr)) return true;
    }
    return false;
  };
  switch (p.proto) {
    case net::Proto::kTcp:
      // An outbound SYN-ACK is something inside answering a client — a
      // service hint on whatever port it spoke from, configured scan
      // port or not (LZR: services live on unexpected ports).
      if (!p.flags.is_syn_ack() || !is_internal(p.src)) return;
      hints_.insert(PendingKey{p.src, p.sport, net::Proto::kTcp});
      return;
    case net::Proto::kUdp:
      if (p.payload_len == 0 || !is_internal(p.src)) return;
      if (!udp_seed_ports_.contains(p.sport)) return;
      hints_.insert(PendingKey{p.src, p.sport, net::Proto::kUdp});
      return;
    default:
      return;
  }
}

void AdaptiveProber::start_scan(
    ScanSpec spec, std::function<void(const ScanRecord&)> on_complete) {
  begin_scan_record(std::move(spec), std::move(on_complete));
  pending_.clear();
  reset_buckets();
  build_candidates();
  budget_left_ = adaptive_.probe_budget == 0 ? ~std::uint64_t{0}
                                             : adaptive_.probe_budget;
  verifying_.clear();
  const std::size_t machines = config_.source_addrs.size();
  machine_done_.assign(machines, 0);
  machines_done_ = 0;
  if (m_budget_) m_budget_->set(static_cast<std::int64_t>(adaptive_.probe_budget));

  if (candidates_.empty()) {
    // Degenerate scan with no candidates: complete immediately.
    network_.simulator().after_timer(util::usec(0), this, kTimerFinalize);
    return;
  }
  for (std::size_t m = 0; m < machines; ++m) send_next(m);
}

void AdaptiveProber::build_candidates() {
  candidates_.clear();
  probed_.clear();
  util::FlatSet<PendingKey, PendingKeyHash> seen;
  seen.reserve(hints_.size() +
               spec_.targets.size() *
                   (spec_.tcp_ports.size() + spec_.udp_ports.size()));

  // Passive hints first, in first-observed order: they outrank every
  // prior-scored grid candidate (something already spoke to them).
  for (const PendingKey& hint : hints_) {
    if (seen.insert(hint)) {
      candidates_.push_back({hint.addr, hint.port, hint.proto, true});
    }
  }
  // The target x port grid in the fixed sweep's address-major,
  // port-minor order — equal scores then drain exactly like a
  // budget-truncated sweep.
  for (const net::Ipv4 addr : spec_.targets) {
    for (const net::Port port : spec_.tcp_ports) {
      if (seen.insert({addr, port, net::Proto::kTcp})) {
        candidates_.push_back({addr, port, net::Proto::kTcp, false});
      }
    }
    for (const net::Port port : spec_.udp_ports) {
      if (seen.insert({addr, port, net::Proto::kUdp})) {
        candidates_.push_back({addr, port, net::Proto::kUdp, false});
      }
    }
  }

  std::vector<QEntry> entries;
  entries.reserve(candidates_.size());
  for (std::uint32_t i = 0; i < candidates_.size(); ++i) {
    entries.push_back({score_of(candidates_[i]), i});
  }
  queue_ = std::priority_queue<QEntry, std::vector<QEntry>, QLess>(
      QLess{}, std::move(entries));

  const std::uint64_t expect =
      adaptive_.probe_budget == 0
          ? candidates_.size()
          : std::min<std::uint64_t>(adaptive_.probe_budget,
                                    candidates_.size());
  current_.outcomes.reserve(static_cast<std::size_t>(expect));
}

double AdaptiveProber::score_of(const Candidate& c) const {
  // Seeds sit above every probability score; among themselves they keep
  // observation order via the index tie-break.
  if (c.seeded) return 2.0;
  return priors_.score(c.addr, c.port, c.proto);
}

std::optional<std::uint32_t> AdaptiveProber::pop_best() {
  while (!queue_.empty()) {
    const QEntry top = queue_.top();
    queue_.pop();
    const Candidate& c = candidates_[top.index];
    if (probed_.contains({c.addr, c.port, c.proto})) continue;
    const double fresh = score_of(c);
    // Lazy rescore: if the candidate's current score fell below the next
    // stored entry, re-push at the fresh (strictly lower) score and look
    // again. A fresh score at or above the stored one wins immediately
    // (the stored top already dominated the heap).
    if (!queue_.empty() && fresh < top.score && fresh < queue_.top().score) {
      queue_.push({fresh, top.index});
      continue;
    }
    return top.index;
  }
  return std::nullopt;
}

void AdaptiveProber::send_next(std::size_t machine) {
  if (machine_done_[machine]) return;
  const util::TimePoint now = network_.simulator().now();

  std::optional<std::uint32_t> pick;
  if (budget_left_ > 0) pick = pop_best();
  if (!pick) {
    machine_done_[machine] = 1;
    if (++machines_done_ == machine_done_.size()) {
      // All first-stage probes sent (or the budget ran dry); allow
      // stragglers and outstanding verifications to answer.
      arm_finalize(now + spec_.timeout + util::msec(100));
    }
    return;
  }

  const Candidate& c = candidates_[*pick];
  const PendingKey key{c.addr, c.port, c.proto};
  probed_.insert(key);
  pending_[key] = current_.outcomes.size();
  current_.outcomes.push_back(
      {{c.addr, c.proto, c.port}, ProbeStatus::kPending, now});

  send_probe(config_.source_addrs[machine], c.addr, c.proto, c.port);
  --budget_left_;
  ++budget_spent_total_;
  if (m_budget_spent_) m_budget_spent_->inc();
  if (c.seeded) {
    ++seeds_probed_total_;
    if (m_seeds_probed_) m_seeds_probed_->inc();
  }

  buckets_[machine].consume(now);
  const util::TimePoint next = buckets_[machine].next_available(now);
  network_.simulator().at_timer(next, this, machine);
}

void AdaptiveProber::resolve(const PendingKey& key, ProbeStatus status) {
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;  // late/duplicate response
  const std::size_t outcome_index = it->second;
  pending_.erase(key);
  settle(outcome_index, status);
}

void AdaptiveProber::send_verify(const net::Packet& syn_ack) {
  // Complete the handshake and push application data immediately — the
  // LZR second stage. Verification is response-paced (only ever sent to
  // endpoints that answered), so it bypasses the probe budget and the
  // token bucket.
  net::Packet data = net::make_tcp(syn_ack.dst, syn_ack.dport, syn_ack.src,
                                   syn_ack.sport, net::flags_ack());
  data.seq = syn_ack.ack_no;
  data.ack_no = syn_ack.seq + 1;
  data.payload_len = kVerifyPayload;
  network_.send(data);
  ++verify_sent_total_;
  if (m_verify_sent_) m_verify_sent_->inc();
}

void AdaptiveProber::confirm_open(const PendingKey& key,
                                  std::size_t outcome_index) {
  ProbeOutcome& outcome = current_.outcomes[outcome_index];
  outcome.status = ProbeStatus::kOpen;
  outcome.when = network_.simulator().now();
  verifying_.erase(key);
  ++verify_confirmed_total_;
  if (m_verify_confirmed_) m_verify_confirmed_->inc();
  record_open(outcome, /*udp=*/false);
  note_outcome(outcome);
}

void AdaptiveProber::demote(const PendingKey& key,
                            std::size_t outcome_index) {
  ProbeOutcome& outcome = current_.outcomes[outcome_index];
  outcome.status = ProbeStatus::kUnverified;
  outcome.when = network_.simulator().now();
  verifying_.erase(key);
  ++demotions_total_;
  if (m_demotions_) m_demotions_->inc();
  SVCDISC_TRACE_INSTANT("prober.demote", outcome.when.usec);
  note_outcome(outcome);
}

void AdaptiveProber::on_packet(const net::Packet& p) {
  if (!in_progress_) return;
  switch (p.proto) {
    case net::Proto::kTcp: {
      const PendingKey key{p.src, p.sport, net::Proto::kTcp};
      if (p.flags.is_syn_ack()) {
        const auto it = pending_.find(key);
        if (it == pending_.end()) return;  // late/duplicate response
        if (!adaptive_.verify) {
          resolve(key, ProbeStatus::kOpen);
          return;
        }
        // First stage answered; the verdict now rides on the data probe.
        const std::size_t outcome_index = it->second;
        pending_.erase(key);
        if (m_responses_) m_responses_->inc();
        verifying_[key] = {outcome_index, p.time};
        send_verify(p);
      } else if (p.flags.ack() && !p.flags.syn() && p.payload_len > 0) {
        // Data came back: a real service completed the exchange.
        const auto vit = verifying_.find(key);
        if (vit != verifying_.end()) confirm_open(key, vit->second.outcome);
      } else if (p.flags.rst()) {
        const auto vit = verifying_.find(key);
        if (vit != verifying_.end()) {
          // SYN-ACKed, then reset the data probe: no exchange, no service.
          demote(key, vit->second.outcome);
        } else {
          resolve(key, ProbeStatus::kClosed);
        }
      }
      return;
    }
    case net::Proto::kUdp: {
      // A UDP reply *is* a completed data exchange; no second stage.
      resolve({p.src, p.sport, net::Proto::kUdp}, ProbeStatus::kOpenUdp);
      return;
    }
    case net::Proto::kIcmp: {
      if (p.icmp_type == net::IcmpType::kDestUnreachable &&
          p.icmp_code == net::IcmpCode::kPortUnreachable) {
        resolve({p.src, p.icmp_orig_dport, p.icmp_orig_proto},
                ProbeStatus::kClosed);
      }
      return;
    }
  }
}

void AdaptiveProber::on_timer(std::uint64_t tag) {
  if (tag == kTimerFinalize) {
    finalize_scan();
  } else {
    send_next(static_cast<std::size_t>(tag));
  }
}

void AdaptiveProber::arm_finalize(util::TimePoint at) {
  network_.simulator().at_timer(at, this, kTimerFinalize);
}

void AdaptiveProber::note_outcome(const ProbeOutcome& outcome) {
  if (outcome.status == ProbeStatus::kPending) return;
  const bool open = outcome.status == ProbeStatus::kOpen ||
                    outcome.status == ProbeStatus::kOpenUdp;
  priors_.record(outcome.key.addr, outcome.key.port, outcome.key.proto, open);
  if (open && m_yield_open_) m_yield_open_->inc();
}

void AdaptiveProber::finalize_scan() {
  const util::TimePoint now = network_.simulator().now();

  // Verifications past the timeout demote; young ones (a straggler
  // SYN-ACK arrived near the deadline) push the finalize out and get
  // their full window.
  std::vector<std::pair<PendingKey, std::size_t>> expired;
  bool verify_outstanding = false;
  util::TimePoint next_deadline{};
  for (const auto& [key, v] : verifying_) {
    const util::TimePoint deadline = v.sent + spec_.timeout;
    if (now.usec >= deadline.usec) {
      expired.push_back({key, v.outcome});
    } else if (!verify_outstanding || deadline < next_deadline) {
      verify_outstanding = true;
      next_deadline = deadline;
    }
  }
  for (const auto& [key, outcome_index] : expired) demote(key, outcome_index);
  if (verify_outstanding) {
    arm_finalize(next_deadline + util::msec(100));
    return;
  }

  // Unanswered first-stage probes; every silence is also negative
  // evidence for the priors (note_outcome).
  classify_unanswered({});

  pending_.clear();
  if (m_entropy_) {
    m_entropy_->set(
        static_cast<std::int64_t>(std::llround(priors_.entropy() * 1000.0)));
  }
  finish_scan_record();
}

}  // namespace svcdisc::active
