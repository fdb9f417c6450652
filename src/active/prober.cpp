#include "active/prober.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/logging.h"
#include "util/trace.h"

namespace svcdisc::active {
namespace {

/// column_of_ key of a (proto, port) pair.
std::uint32_t column_key(net::Proto proto, net::Port port) {
  return (static_cast<std::uint32_t>(proto) << 16) | port;
}

/// Payload of the LZR-style verification data probe: a short generic
/// application banner request. The simulated stack only cares that
/// payload_len > 0 — genuine data reached the service.
constexpr std::uint16_t kVerifyPayload = 32;

/// Score of a passive hint: above every probability score, so hints
/// drain first, in observation order via the index tie-break.
constexpr double kHintScore = 2.0;

}  // namespace

std::size_t ScanRecord::count(ProbeStatus status) const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [&](const ProbeOutcome& o) { return o.status == status; }));
}

std::vector<passive::ServiceKey> ScanRecord::open_services() const {
  std::vector<passive::ServiceKey> open;
  for (const ProbeOutcome& o : outcomes) {
    if (o.status == ProbeStatus::kOpen || o.status == ProbeStatus::kOpenUdp) {
      open.push_back(o.key);
    }
  }
  return open;
}

// ---------------------------------------------------------------------------
// Set-up, metrics and the passive feed
// ---------------------------------------------------------------------------

Prober::Prober(sim::Network& network, ProberConfig config,
               std::optional<AdaptiveConfig> adaptive)
    : network_(network),
      config_(std::move(config)),
      adaptive_(adaptive),
      feed_(*this),
      priors_(adaptive.value_or(AdaptiveConfig{}).subnet_shrinkage) {
  if (config_.source_addrs.empty()) {
    throw std::invalid_argument("Prober: need at least one source address");
  }
  for (const net::Ipv4 addr : config_.source_addrs) {
    network_.attach(addr, this);
  }
}

Prober::~Prober() {
  for (const net::Ipv4 addr : config_.source_addrs) {
    network_.detach(addr, this);
  }
}

void Prober::attach_metrics(util::MetricsRegistry& registry,
                            std::string_view prefix) {
  metrics_ = &registry;
  metrics_prefix_ = std::string(prefix);
  m_probes_tcp_ = &registry.counter(metrics_prefix_ + ".probes_tcp_sent");
  m_probes_udp_ = &registry.counter(metrics_prefix_ + ".probes_udp_sent");
  m_pings_ = &registry.counter(metrics_prefix_ + ".pings_sent");
  m_responses_ = &registry.counter(metrics_prefix_ + ".responses_received");
  m_discoveries_ = &registry.counter(metrics_prefix_ + ".discoveries");
  m_scans_ = &registry.counter(metrics_prefix_ + ".scans_completed");
  if (!adaptive_) return;
  // Top-level adaptive.* keys (the scale.*/stream.* convention): the
  // sweep registers none, so its metric goldens carry no adaptive keys.
  m_budget_ = &registry.gauge("adaptive.budget");
  m_budget_spent_ = &registry.counter("adaptive.budget_spent");
  m_yield_open_ = &registry.counter("adaptive.yield_open");
  m_seeds_probed_ = &registry.counter("adaptive.passive_seeds_probed");
  m_verify_sent_ = &registry.counter("adaptive.verify_probes_sent");
  m_verify_confirmed_ = &registry.counter("adaptive.verify_confirmed");
  m_demotions_ = &registry.counter("adaptive.middlebox_demotions");
  m_entropy_ = &registry.gauge("adaptive.priors_entropy_millinats");
  m_budget_->set(static_cast<std::int64_t>(adaptive_->probe_budget));
}

void Prober::configure_feed(std::vector<net::Prefix> internal,
                            std::vector<net::Port> udp_ports) {
  internal_ = std::move(internal);
  udp_seed_ports_.clear();
  for (const net::Port p : udp_ports) udp_seed_ports_.insert(p);
}

void Prober::note_passive(const passive::ServiceKey& key) {
  hints_.insert(key);
}

void Prober::seed_from_table(const passive::ServiceTable& table) {
  for (const auto& [key, first_seen] : table.chronological()) {
    note_passive(key);
  }
}

void Prober::Feed::observe(const net::Packet& p) { owner_.observe_passive(p); }

void Prober::observe_passive(const net::Packet& p) {
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
      hints_.insert({p.src, net::Proto::kTcp, p.sport});
      return;
    case net::Proto::kUdp:
      if (p.payload_len == 0 || !is_internal(p.src)) return;
      if (!udp_seed_ports_.contains(p.sport)) return;
      hints_.insert({p.src, net::Proto::kUdp, p.sport});
      return;
    default:
      return;
  }
}

// ---------------------------------------------------------------------------
// Scan phases
// ---------------------------------------------------------------------------

void Prober::start_scan(ScanSpec spec,
                        std::function<void(const ScanRecord&)> on_complete) {
  if (in_progress_) throw std::logic_error("Prober: scan already in flight");
  in_progress_ = true;
  spec_ = std::move(spec);
  on_complete_ = std::move(on_complete);
  current_ = ScanRecord{};
  current_.index = static_cast<int>(scans_.size());
  current_.started = network_.simulator().now();
  // One async span per scan round: begin here, end in finalize_scan.
  util::trace::async_begin("prober.scan",
                           static_cast<std::uint64_t>(current_.index) + 1,
                           current_.started.usec);
  alive_hosts_.clear();

  // One pacing bucket per machine (the paper's per-machine rate limit);
  // burst 1 reproduces strict 1/rate spacing.
  const std::size_t machines = config_.source_addrs.size();
  buckets_.clear();
  buckets_.reserve(machines);
  for (std::size_t m = 0; m < machines; ++m) {
    buckets_.emplace_back(spec_.probes_per_sec, 1.0);
    if (metrics_) {
      buckets_.back().attach_metrics(*metrics_,
                                     metrics_prefix_ + ".rate_limiter");
    }
  }
  plan_.assign(machines, {});

  if (adaptive_) {
    // The hints this scan ranks; later ones wait for the next scan.
    scan_hints_.clear();
    scan_hints_.reserve(hints_.size());
    for (const passive::ServiceKey& hint : hints_) {
      scan_hints_.push_back(hint);
    }
    budget_left_ = adaptive_->probe_budget == 0 ? ~std::uint64_t{0}
                                                : adaptive_->probe_budget;
    verifying_.clear();
    if (m_budget_) {
      m_budget_->set(static_cast<std::int64_t>(adaptive_->probe_budget));
    }
  }

  phase_targets_ = &spec_.targets;
  pinging_ = spec_.host_discovery;
  if (pinging_) {
    // Phase 1: one ICMP echo per target address; port probes follow for
    // responders only.
    current_.hosts_pinged = static_cast<std::uint32_t>(spec_.targets.size());
  }
  try {
    plan_phase(pinging_, spec_.targets.size());
  } catch (...) {
    in_progress_ = false;  // nothing was sent; the prober stays usable
    throw;
  }
  start_phase();
}

void Prober::plan_phase(bool ping, std::size_t target_count) {
  // Split targets evenly across prober machines, preserving probe order
  // within each machine's share (address-major, port-minor). Only the
  // split is computed here; send_next() computes individual probes on
  // demand. A port phase also gets its index space: 4 bytes per hint and
  // per (target, port) cell.
  const std::size_t columns = spec_.tcp_ports.size() + spec_.udp_ports.size();
  // Cells store 1 + an outcome index and the queue holds cell indices,
  // all in 32 bits; a phase has at most one outcome per cell. The ping
  // phase checks too: its target list bounds the port phase's.
  if (scan_hints_.size() + target_count * columns >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "Prober: hints + targets x ports exceeds the 2^32 - 1 probe index "
        "space");
  }
  const std::size_t machines = plan_.size();
  const std::size_t per_machine =
      (target_count + machines - 1) / std::max<std::size_t>(machines, 1);
  const std::size_t tasks_per_target = ping ? 1 : columns;
  std::size_t total = 0;
  for (std::size_t m = 0; m < machines; ++m) {
    const std::size_t begin = m * per_machine;
    const std::size_t end = std::min(target_count, begin + per_machine);
    MachinePlan& plan = plan_[m];
    plan.first_target = begin;
    plan.target_count = end > begin ? end - begin : 0;
    plan.task_count = plan.target_count * tasks_per_target;
    total += plan.task_count;
  }
  if (ping) return;
  // The adaptive mode reserves for its budget in rank_candidates.
  if (!adaptive_) current_.outcomes.reserve(current_.outcomes.size() + total);

  // Index the grid: first occurrences win, so a repeated target or port
  // shares the first one's cells.
  const std::vector<net::Ipv4>& targets = *phase_targets_;
  columns_ = columns;
  target_row_.resize(target_count);
  for (std::size_t i = 0; i < target_count; ++i) {
    std::uint32_t& slot = row_slot(targets[i]);
    if (slot == 0) slot = static_cast<std::uint32_t>(i) + 1;
    target_row_[i] = slot - 1;
  }
  port_column_.resize(columns);
  for (std::size_t c = 0; c < columns; ++c) {
    const bool tcp = c < spec_.tcp_ports.size();
    const net::Port port =
        tcp ? spec_.tcp_ports[c] : spec_.udp_ports[c - spec_.tcp_ports.size()];
    port_column_[c] =
        column_of_
            .emplace(column_key(tcp ? net::Proto::kTcp : net::Proto::kUdp,
                                port),
                     static_cast<std::uint32_t>(c))
            .first->second;
  }
  cell_outcome_.assign(scan_hints_.size() + target_count * columns, 0);
}

void Prober::rank_candidates() {
  const std::size_t hints = scan_hints_.size();
  // Hints first, in first-observed order: something already spoke to
  // them. A hint on the grid takes over that grid cell, which is then not
  // queued on its own; one off the grid gets cell `h`. After a ping
  // pre-pass only the responders' hints are queued.
  std::vector<std::uint32_t> covered;  // grid cells taken by a hint
  std::size_t queued = 0;
  for (std::uint32_t h = 0; h < hints; ++h) {
    const passive::ServiceKey& hint = scan_hints_[h];
    if (spec_.host_discovery && !alive_hosts_.contains(hint.addr)) continue;
    if (const std::uint32_t* cell = grid_cell(hint)) {
      covered.push_back(
          static_cast<std::uint32_t>(cell - cell_outcome_.data()));
    } else {
      hint_cell_.emplace(hint, h);
    }
    queue_.push(kHintScore, h);
    ++queued;
  }
  // Then every first-occurrence (row, column) cell in the sweep's
  // address-major, port-minor order, so equal scores drain exactly like
  // a budget-truncated sweep.
  std::sort(covered.begin(), covered.end());
  auto next_covered = covered.begin();
  for (std::size_t row = 0; row < target_row_.size(); ++row) {
    if (target_row_[row] != row) continue;
    for (std::size_t column = 0; column < columns_; ++column) {
      if (port_column_[column] != column) continue;
      const auto index =
          static_cast<std::uint32_t>(hints + row * columns_ + column);
      if (next_covered != covered.end() && *next_covered == index) {
        ++next_covered;
        continue;
      }
      queue_.push(score_of(index), index);
      ++queued;
    }
  }
  current_.outcomes.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(budget_left_, queued)));
}

void Prober::start_phase() {
  const bool ranked = adaptive_ && !pinging_;
  if (ranked) rank_candidates();
  cursor_.assign(plan_.size(), 0);
  // Count the idle machines before the first send: a machine whose whole
  // share is one probe finishes inside that send_next, and its end-of-
  // phase check must already see them. Ranked machines share one queue.
  machines_done_ =
      ranked ? 0
             : static_cast<std::size_t>(std::count_if(
                   plan_.begin(), plan_.end(),
                   [](const MachinePlan& p) { return p.task_count == 0; }));
  if (ranked ? queue_.empty() : machines_done_ == plan_.size()) {
    // Degenerate phase with no probes: complete the scan immediately.
    pinging_ = false;
    network_.simulator().after_timer(util::usec(0), this, kTimerFinalize);
    return;
  }
  for (std::size_t m = 0; m < plan_.size(); ++m) {
    if (ranked || plan_[m].task_count > 0) send_next(m);
  }
}

void Prober::begin_port_phase() {
  pinging_ = false;
  current_.hosts_alive = static_cast<std::uint32_t>(alive_hosts_.size());
  // Keep the original target order, filtered to responding hosts.
  alive_targets_.clear();
  alive_targets_.reserve(alive_hosts_.size());
  for (const net::Ipv4 addr : spec_.targets) {
    if (alive_hosts_.contains(addr)) alive_targets_.push_back(addr);
  }
  phase_targets_ = &alive_targets_;
  plan_phase(/*ping=*/false, alive_targets_.size());
  start_phase();
}

void Prober::on_timer(std::uint64_t tag) {
  if (tag == kTimerFinalize) {
    finalize_scan();
  } else if (tag == kTimerBeginPortPhase) {
    begin_port_phase();
  } else {
    send_next(static_cast<std::size_t>(tag));
  }
}

void Prober::send_next(std::size_t machine) {
  const net::Ipv4 source = config_.source_addrs[machine];
  const util::TimePoint now = network_.simulator().now();
  bool last = false;
  if (pinging_ || !adaptive_) {
    // This machine's contiguous share, probe `cursor` in sweep order (the
    // sweep has no hints, so a grid cell's index is row * columns_ + col).
    const MachinePlan& plan = plan_[machine];
    std::size_t& cursor = cursor_[machine];
    if (pinging_) {
      net::Packet ping;
      ping.src = source;
      ping.dst = (*phase_targets_)[plan.first_target + cursor];
      ping.proto = net::Proto::kIcmp;
      ping.icmp_type = net::IcmpType::kEchoRequest;
      network_.send(ping);
      if (m_pings_) m_pings_->inc();
    } else {
      const std::size_t target = plan.first_target + cursor / columns_;
      const std::size_t column = cursor % columns_;
      const std::size_t cell =
          std::size_t{target_row_[target]} * columns_ + port_column_[column];
      send_port_probe(source, grid_key(target, column), cell_outcome_[cell],
                      now);
    }
    last = ++cursor == plan.task_count;
  } else {
    // The best candidate of the shared queue, re-scored lazily.
    std::optional<std::uint32_t> pick;
    if (budget_left_ > 0) {
      pick = queue_.pop_best(
          [this](std::uint32_t index) { return score_of(index); });
    }
    if (!pick) {
      machine_done();
      return;
    }
    const passive::ServiceKey key = key_of(*pick);
    const bool hint = *pick < scan_hints_.size();
    std::uint32_t& cell = hint ? *cell_of(key) : cell_outcome_[*pick];
    // Each candidate is queued once and never re-queued after its pop.
    assert(cell == 0);
    send_port_probe(source, key, cell, now);
    --budget_left_;
    ++budget_spent_total_;
    if (m_budget_spent_) m_budget_spent_->inc();
    if (hint) {
      ++seeds_probed_total_;
      if (m_seeds_probed_) m_seeds_probed_->inc();
    }
  }
  buckets_[machine].consume(now);
  if (last) {
    machine_done();
    return;
  }
  // The token bucket answers "when may the next probe go?"; with burst 1
  // that is now + 1/rate, with sub-usec deficits carried forward so long
  // scans hold the configured rate exactly.
  const util::TimePoint next = buckets_[machine].next_available(now);
  if (util::trace::enabled() && next > now) {
    util::trace::instant_value("prober.bucket_wait", now.usec,
                               (next - now).usec);
  }
  network_.simulator().at_timer(next, this, machine);
}

void Prober::send_port_probe(net::Ipv4 source, const passive::ServiceKey& key,
                             std::uint32_t& cell, util::TimePoint now) {
  // A cell gets a fresh outcome unless it still awaits an answer: a
  // repeated target or port probed while the first probe is pending
  // folds into that probe's outcome.
  if (cell == 0) {
    current_.outcomes.push_back({key, ProbeStatus::kPending, now});
    cell = static_cast<std::uint32_t>(current_.outcomes.size());
  }
  send_probe(source, key.addr, key.proto, key.port);
}

void Prober::machine_done() {
  if (++machines_done_ < plan_.size()) return;
  // All probes of this phase sent (or the budget ran dry); allow
  // stragglers and outstanding verifications to answer.
  network_.simulator().after_timer(
      spec_.timeout + util::msec(100), this,
      pinging_ ? kTimerBeginPortPhase : kTimerFinalize);
}

void Prober::finalize_scan() {
  if (!verifying_.empty()) {
    // Verifications past the timeout demote; young ones (a straggler
    // SYN-ACK arrived near the deadline) push the finalize out and get
    // their full window.
    const util::TimePoint now = network_.simulator().now();
    std::vector<std::pair<passive::ServiceKey, std::size_t>> expired;
    bool outstanding = false;
    util::TimePoint next_deadline{};
    for (const auto& [key, v] : verifying_) {
      const util::TimePoint deadline = v.sent + spec_.timeout;
      if (now.usec >= deadline.usec) {
        expired.push_back({key, v.outcome});
      } else if (!outstanding || deadline < next_deadline) {
        outstanding = true;
        next_deadline = deadline;
      }
    }
    for (const auto& [key, outcome_index] : expired) {
      end_verify(key, outcome_index, ProbeStatus::kUnverified);
    }
    if (outstanding) {
      network_.simulator().at_timer(next_deadline + util::msec(100), this,
                                    kTimerFinalize);
      return;
    }
  }

  classify_unanswered();
  if (m_entropy_) {
    m_entropy_->set(
        static_cast<std::int64_t>(std::llround(priors_.entropy() * 1000.0)));
  }
  // Free the index space rather than clear it: it is sized by this scan
  // alone.
  cell_outcome_ = {};
  target_row_ = {};
  port_column_ = {};
  row_pages_ = decltype(row_pages_)();
  page_of_ = {};
  memo_page_ = nullptr;
  column_of_ = {};
  scan_hints_ = {};
  hint_cell_ = {};
  queue_ = ScoreQueue{};

  current_.finished = network_.simulator().now();
  util::trace::async_end("prober.scan",
                         static_cast<std::uint64_t>(current_.index) + 1,
                         current_.finished.usec);
  in_progress_ = false;
  scans_.push_back(std::move(current_));
  if (m_scans_) m_scans_->inc();
  SVCDISC_LOG(kInfo) << "scan " << scans_.back().index << " finished: "
                     << scans_.back().count(ProbeStatus::kOpen)
                     << " open TCP services";
  if (on_complete_) on_complete_(scans_.back());
}

// ---------------------------------------------------------------------------
// The index space
// ---------------------------------------------------------------------------

passive::ServiceKey Prober::grid_key(std::size_t target,
                                  std::size_t column) const {
  const net::Ipv4 addr = (*phase_targets_)[target];
  const std::size_t tcp = spec_.tcp_ports.size();
  if (column < tcp) return {addr, net::Proto::kTcp, spec_.tcp_ports[column]};
  return {addr, net::Proto::kUdp, spec_.udp_ports[column - tcp]};
}

passive::ServiceKey Prober::key_of(std::uint32_t index) const {
  const std::size_t hints = scan_hints_.size();
  if (index < hints) return scan_hints_[index];
  const std::size_t cell = index - hints;
  return grid_key(cell / columns_, cell % columns_);
}

double Prober::score_of(std::uint32_t index) const {
  if (index < scan_hints_.size()) return kHintScore;
  const passive::ServiceKey key = key_of(index);
  return priors_.score(key.addr, key.port, key.proto);
}

std::uint32_t* Prober::find_row(net::Ipv4 addr) {
  const std::uint32_t prefix = addr.value() >> 8;
  if (memo_page_ == nullptr || prefix != memo_prefix_) {
    const auto it = page_of_.find(prefix);
    if (it == page_of_.end()) return nullptr;
    memo_prefix_ = prefix;
    memo_page_ = row_pages_[it->second].get();
  }
  return &(*memo_page_)[addr.value() & 0xff];
}

std::uint32_t& Prober::row_slot(net::Ipv4 addr) {
  if (std::uint32_t* slot = find_row(addr)) return *slot;
  const std::uint32_t prefix = addr.value() >> 8;
  page_of_.emplace(prefix, static_cast<std::uint32_t>(row_pages_.size()));
  row_pages_.push_back(std::make_unique<RowPage>());  // zeroed: no rows
  memo_prefix_ = prefix;
  memo_page_ = row_pages_.back().get();
  return (*memo_page_)[addr.value() & 0xff];
}

std::uint32_t* Prober::grid_cell(const passive::ServiceKey& key) {
  // Before the port phase (pinging) the grid is empty.
  const std::uint32_t* row = find_row(key.addr);
  if (row == nullptr || *row == 0) return nullptr;
  const auto column = column_of_.find(column_key(key.proto, key.port));
  if (column == column_of_.end()) return nullptr;
  return &cell_outcome_[scan_hints_.size() +
                        std::size_t{*row - 1} * columns_ + column->second];
}

std::uint32_t* Prober::cell_of(const passive::ServiceKey& key) {
  if (std::uint32_t* cell = grid_cell(key)) return cell;
  if (hint_cell_.empty()) return nullptr;
  const auto it = hint_cell_.find(key);
  return it == hint_cell_.end() ? nullptr : &cell_outcome_[it->second];
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

void Prober::on_packet(const net::Packet& p) {
  if (!in_progress_) return;
  const bool verify = adaptive_ && adaptive_->verify;
  switch (p.proto) {
    case net::Proto::kTcp: {
      const passive::ServiceKey key{p.src, net::Proto::kTcp, p.sport};
      if (p.flags.is_syn_ack()) {
        if (!verify) {
          resolve(key, ProbeStatus::kOpen);
          return;
        }
        std::uint32_t* cell = cell_of(key);
        if (cell == nullptr || *cell == 0) return;  // stray, late, duplicate
        // First stage answered; the verdict now rides on the data probe.
        const std::size_t outcome_index = *cell - 1;
        *cell = 0;
        if (m_responses_) m_responses_->inc();
        verifying_[key] = {outcome_index, p.time};
        send_verify(p);
      } else if (verify && p.flags.ack() && !p.flags.syn() &&
                 p.payload_len > 0) {
        // Data came back: a real service completed the exchange.
        const auto it = verifying_.find(key);
        if (it != verifying_.end()) {
          end_verify(key, it->second.outcome, ProbeStatus::kOpen);
        }
      } else if (p.flags.rst()) {
        const auto it = verify ? verifying_.find(key) : verifying_.end();
        if (it != verifying_.end()) {
          // SYN-ACKed, then reset the data probe: no exchange, no service.
          end_verify(key, it->second.outcome, ProbeStatus::kUnverified);
        } else {
          resolve(key, ProbeStatus::kClosed);
        }
      }
      return;
    }
    case net::Proto::kUdp: {
      // A UDP reply *is* a completed data exchange; no second stage.
      resolve({p.src, net::Proto::kUdp, p.sport}, ProbeStatus::kOpenUdp);
      return;
    }
    case net::Proto::kIcmp: {
      if (p.icmp_type == net::IcmpType::kEchoReply) {
        if (pinging_) alive_hosts_.insert(p.src);
      } else if (p.icmp_type == net::IcmpType::kDestUnreachable &&
                 p.icmp_code == net::IcmpCode::kPortUnreachable) {
        resolve({p.src, p.icmp_orig_proto, p.icmp_orig_dport},
                ProbeStatus::kClosed);
      }
      return;
    }
  }
}

void Prober::resolve(const passive::ServiceKey& key, ProbeStatus status) {
  std::uint32_t* cell = cell_of(key);
  if (cell == nullptr || *cell == 0) return;  // stray, late or duplicate
  const std::size_t outcome_index = *cell - 1;
  *cell = 0;
  settle(outcome_index, status);
}

void Prober::settle(std::size_t outcome_index, ProbeStatus status) {
  ProbeOutcome& outcome = current_.outcomes[outcome_index];
  outcome.status = status;
  outcome.when = network_.simulator().now();
  if (m_responses_) m_responses_->inc();

  if (status == ProbeStatus::kOpen || status == ProbeStatus::kOpenUdp) {
    record_open(outcome, status == ProbeStatus::kOpenUdp);
  }
  note_outcome(outcome);
}

void Prober::record_open(const ProbeOutcome& outcome, bool udp) {
  if (table_.discover(outcome.key, outcome.when)) {
    SVCDISC_TRACE_INSTANT("prober.discover", outcome.when.usec);
    if (m_discoveries_) m_discoveries_->inc();
    if (on_discovery) on_discovery(outcome.key, outcome.when);
  }
  if (on_open_response) on_open_response(outcome.key, outcome.when, udp);
}

void Prober::note_outcome(const ProbeOutcome& outcome) {
  if (!adaptive_) return;
  const bool open = outcome.status == ProbeStatus::kOpen ||
                    outcome.status == ProbeStatus::kOpenUdp;
  priors_.record(outcome.key.addr, outcome.key.port, outcome.key.proto, open);
  if (open && m_yield_open_) m_yield_open_->inc();
}

void Prober::send_probe(net::Ipv4 source, net::Ipv4 addr, net::Proto proto,
                        net::Port port) {
  // A SYN, or a generic (zero-payload) UDP datagram (§4.5) — with
  // spec_.udp_service_probes, a well-formed application request that any
  // live implementation answers.
  const net::Port sport = take_ephemeral();
  if (proto == net::Proto::kTcp) {
    network_.send(net::make_tcp(source, sport, addr, port, net::flags_syn()));
    if (m_probes_tcp_) m_probes_tcp_->inc();
  } else {
    const std::uint16_t payload = spec_.udp_service_probes ? 48 : 0;
    network_.send(net::make_udp(source, sport, addr, port, payload));
    if (m_probes_udp_) m_probes_udp_->inc();
  }
}

void Prober::send_verify(const net::Packet& syn_ack) {
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

void Prober::end_verify(const passive::ServiceKey& key,
                        std::size_t outcome_index, ProbeStatus status) {
  ProbeOutcome& outcome = current_.outcomes[outcome_index];
  outcome.status = status;
  outcome.when = network_.simulator().now();
  verifying_.erase(key);
  if (status == ProbeStatus::kOpen) {
    ++verify_confirmed_total_;
    if (m_verify_confirmed_) m_verify_confirmed_->inc();
    record_open(outcome, /*udp=*/false);
  } else {
    ++demotions_total_;
    if (m_demotions_) m_demotions_->inc();
    SVCDISC_TRACE_INSTANT("prober.demote", outcome.when.usec);
  }
  note_outcome(outcome);
}

void Prober::classify_unanswered() {
  // Only an unanswered UDP probe asks whether its host proved alive, so
  // the set of answering hosts is built only when one is left.
  const bool udp_pending = std::any_of(
      current_.outcomes.begin(), current_.outcomes.end(),
      [](const ProbeOutcome& o) {
        return o.status == ProbeStatus::kPending &&
               o.key.proto != net::Proto::kTcp;
      });
  util::FlatSet<net::Ipv4> answered;
  if (udp_pending) {
    for (const ProbeOutcome& o : current_.outcomes) {
      if (o.status != ProbeStatus::kPending) answered.insert(o.key.addr);
    }
  }
  for (ProbeOutcome& outcome : current_.outcomes) {
    if (outcome.status != ProbeStatus::kPending) continue;
    if (outcome.key.proto == net::Proto::kTcp) {
      outcome.status = ProbeStatus::kFiltered;
    } else {
      // A host that answered only the host-discovery ping proved itself
      // alive too.
      const net::Ipv4 addr = outcome.key.addr;
      outcome.status =
          alive_hosts_.contains(addr) || answered.contains(addr)
              ? ProbeStatus::kMaybeOpen
              : ProbeStatus::kNoHost;
    }
    // In the adaptive mode every silence is negative evidence too.
    note_outcome(outcome);
  }
}

net::Port Prober::take_ephemeral() {
  next_ephemeral_ = next_ephemeral_ >= 60000 ? net::Port{40000}
                                             : net::Port(next_ephemeral_ + 1);
  return next_ephemeral_;
}

}  // namespace svcdisc::active
