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

// ---------------------------------------------------------------------------
// Scan records
// ---------------------------------------------------------------------------

passive::ServiceKey ProbeSpace::key(std::uint32_t index) const {
  if (index < hint_count) return (*hint_list)[index];
  const std::size_t cell = index - hint_count;
  return grid_key((*targets)[cell / columns()], cell % columns());
}

bool ProbeSpace::holds_udp() const {
  return !udp_ports.empty() ||
         std::ranges::any_of(hints(), [](const passive::ServiceKey& hint) {
           return hint.proto != net::Proto::kTcp;
         });
}

SweepOrder::SweepOrder(std::size_t targets, std::size_t columns,
                       std::size_t machines) {
  if (targets == 0) return;
  const std::size_t share = (targets + machines - 1) / machines;
  share_ = static_cast<std::uint32_t>(share * columns);
  full_ = static_cast<std::uint32_t>(targets / share);
  short_ = static_cast<std::uint32_t>(targets % share * columns);
}

ScanOutcomes::ScanOutcomes(std::shared_ptr<const ProbeSpace> space)
    : space_(std::move(space)) {}

ScanOutcomes::ScanOutcomes(std::shared_ptr<const ProbeSpace> space,
                           SweepOrder order)
    : space_(std::move(space)), order_(order) {
  assert(space_->hint_count == 0);
}

void ScanOutcomes::assign(std::span<const ProbeOutcome> outcomes) {
  auto space = std::make_shared<ProbeSpace>();
  std::vector<passive::ServiceKey> keys;
  keys.reserve(outcomes.size());
  for (const ProbeOutcome& o : outcomes) keys.push_back(o.key());
  space->own_hints(std::move(keys));
  *this = ScanOutcomes(std::move(space));
  // Pushed at its block's base, each outcome then takes its own time,
  // which may fall before that base.
  reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const util::TimePoint base =
        i % kBlock == 0 ? outcomes[i].when : bases_.back();
    push(static_cast<std::uint32_t>(i), base);
    set(i, outcomes[i].status, outcomes[i].when);
  }
}

ProbeOutcome ScanOutcomes::operator[](std::size_t i) const {
  const passive::ServiceKey k = key(i);
  return {.addr = k.addr,
          .proto = k.proto,
          .status = status(i),
          .port = k.port,
          .when = when(i)};
}

util::TimePoint ScanOutcomes::when(std::size_t i) const {
  const std::uint32_t offset = word(i) >> kStatusBits;
  if (offset == kExact) {
    return exact_.find(static_cast<std::uint32_t>(i))->second;
  }
  return bases_[i / kBlock] + util::usec(offset);
}

void ScanOutcomes::push(std::uint32_t index, util::TimePoint when) {
  const std::size_t i = size();
  if (i % kBlock == 0) bases_.push_back(when);
  if (order_) {
    // The machines' lockstep makes the send position name the cell.
    assert(order_->cell(static_cast<std::uint32_t>(i)) == index);
    words_.push_back(0);
  } else {
    indexed_.push_back({.index = index, .word = 0});
  }
  set(i, ProbeStatus::kPending, when);
}

void ScanOutcomes::set(std::size_t i, ProbeStatus status,
                       util::TimePoint when) {
  const std::int64_t offset = (when - bases_[i / kBlock]).usec;
  std::uint32_t& stored = word(i);
  const auto key = static_cast<std::uint32_t>(i);
  if (offset >= 0 && offset < kExact) {
    if (stored >> kStatusBits == kExact) exact_.erase(key);
    stored = static_cast<std::uint32_t>(offset) << kStatusBits;
  } else {
    stored = kExact << kStatusBits;
    exact_[key] = when;
  }
  stored |= static_cast<std::uint32_t>(status);
}

void ScanOutcomes::set_status(std::size_t i, ProbeStatus status) {
  std::uint32_t& stored = word(i);
  stored = (stored & ~((1u << kStatusBits) - 1)) |
           static_cast<std::uint32_t>(status);
}

std::size_t ScanRecord::count(ProbeStatus status) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    n += outcomes.status(i) == status;
  }
  return n;
}

std::vector<passive::ServiceKey> ScanRecord::open_services() const {
  std::vector<passive::ServiceKey> open;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ProbeStatus status = outcomes.status(i);
    if (status == ProbeStatus::kOpen || status == ProbeStatus::kOpenUdp) {
      open.push_back(outcomes.key(i));
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
    pacing_slots_.push_back(network_.simulator().reserve_pacing_slot());
  }
}

Prober::~Prober() {
  for (const net::Ipv4 addr : config_.source_addrs) {
    network_.detach(addr, this);
  }
  for (const std::size_t slot : pacing_slots_) {
    network_.simulator().release_pacing_slot(slot);
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
  if (hints_.insert(key)) hint_list_->push_back(key);
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
      note_passive({p.src, net::Proto::kTcp, p.sport});
      return;
    case net::Proto::kUdp:
      if (p.payload_len == 0 || !is_internal(p.src)) return;
      if (!udp_seed_ports_.contains(p.sport)) return;
      note_passive({p.src, net::Proto::kUdp, p.sport});
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
  auto targets =
      std::make_shared<const std::vector<net::Ipv4>>(std::move(spec.targets));
  start_scan(std::move(spec), std::move(targets), std::move(on_complete));
}

void Prober::start_scan(ScanSpec spec,
                        std::shared_ptr<const std::vector<net::Ipv4>> targets,
                        std::function<void(const ScanRecord&)> on_complete) {
  if (in_progress_) throw std::logic_error("Prober: scan already in flight");
  in_progress_ = true;
  spec_ = std::move(spec);
  spec_.targets.clear();
  scan_targets_ = std::move(targets);
  on_complete_ = std::move(on_complete);
  current_ = ScanRecord{};
  current_.index = static_cast<int>(scans_.size());
  current_.started = network_.simulator().now();
  // One async span per scan round: begin here, end in finalize_scan.
  util::trace::async_begin("prober.scan",
                           static_cast<std::uint64_t>(current_.index) + 1,
                           current_.started.usec);
  alive_hosts_.clear();

  space_ = std::make_shared<ProbeSpace>();
  if (adaptive_) {
    // The hints this scan ranks; later ones wait for the next scan.
    space_->hint_list = hint_list_;
    space_->hint_count = hint_list_->size();
    budget_left_ = adaptive_->probe_budget == 0 ? ~std::uint64_t{0}
                                                : adaptive_->probe_budget;
    verifying_.clear();
    if (m_budget_) {
      m_budget_->set(static_cast<std::int64_t>(adaptive_->probe_budget));
    }
  }

  pinging_ = spec_.host_discovery;
  if (pinging_) {
    // Phase 1: one ICMP echo per target address; port probes follow for
    // responders only.
    current_.hosts_pinged =
        static_cast<std::uint32_t>(scan_targets_->size());
    phase_targets_ = scan_targets_.get();
  } else {
    space_->targets = std::move(scan_targets_);
    phase_targets_ = space_->targets.get();
  }
  try {
    plan_phase(pinging_);
  } catch (...) {
    in_progress_ = false;  // nothing was sent; the prober stays usable
    throw;
  }
  start_phase();
}

void Prober::plan_phase(bool ping) {
  // Split targets evenly across prober machines, preserving probe order
  // within each machine's share (address-major, port-minor). Only the
  // split is computed here; send_next() computes individual probes on
  // demand. A port phase also gets its index space.
  const std::vector<net::Ipv4>& targets = *phase_targets_;
  // Cells store 1 + an outcome index and the queue holds cell indices,
  // all in 32 bits; a phase has at most one outcome per cell. The ping
  // phase checks too: its target list bounds the port phase's.
  if (space_->hint_count + targets.size() * (spec_.tcp_ports.size() +
                                              spec_.udp_ports.size()) >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "Prober: hints + targets x ports exceeds the 2^32 - 1 probe index "
        "space");
  }
  const std::size_t machines = config_.source_addrs.size();
  if (ping) {
    plan_ = SweepOrder(targets.size(), 1, machines);
    return;
  }

  // Index the grid, keeping only the first occurrence of a target or a
  // port. The target list is copied only when it repeats one.
  std::uint32_t rows = 0;
  std::vector<net::Ipv4> kept;  // rows so far, once a repeat shows up
  for (std::size_t i = 0; i < targets.size(); ++i) {
    std::uint32_t& slot = row_slot(targets[i]);
    if (slot == 0) {
      slot = ++rows;
      if (!kept.empty()) kept.push_back(targets[i]);
    } else if (kept.empty()) {
      kept.assign(targets.begin(), targets.begin() + i);
    }
  }
  if (rows != targets.size()) {
    space_->targets =
        std::make_shared<const std::vector<net::Ipv4>>(std::move(kept));
  }
  space_->targets = share_targets(std::move(space_->targets));
  phase_targets_ = space_->targets.get();
  const auto add_column = [this](net::Proto proto, net::Port port,
                                 std::vector<net::Port>& ports) {
    const auto column = static_cast<std::uint32_t>(column_of_.size());
    if (column_of_.emplace(column_key(proto, port), column).second) {
      ports.push_back(port);
    }
  };
  for (const net::Port port : spec_.tcp_ports) {
    add_column(net::Proto::kTcp, port, space_->tcp_ports);
  }
  for (const net::Port port : spec_.udp_ports) {
    add_column(net::Proto::kUdp, port, space_->udp_ports);
  }
  columns_ = column_of_.size();
  plan_ = SweepOrder(rows, columns_, machines);
  if (!adaptive_) {
    current_.outcomes = ScanOutcomes(space_, plan_);
    current_.outcomes.reserve(plan_.size());
    return;
  }
  // The adaptive mode reserves for its budget in rank_candidates.
  current_.outcomes = ScanOutcomes(space_);
  cell_outcome_.assign(space_->hint_count + std::size_t{rows} * columns_, 0);
}

void Prober::rank_candidates() {
  const std::span<const passive::ServiceKey> hints = space_->hints();
  // Hints first, in first-observed order: something already spoke to
  // them. A hint on the grid takes over that grid cell, which is then not
  // queued on its own; one off the grid gets cell `h`. After a ping
  // pre-pass only the responders' hints are queued.
  std::vector<std::uint32_t> covered;  // grid cells taken by a hint
  std::size_t queued = 0;
  for (std::uint32_t h = 0; h < hints.size(); ++h) {
    const passive::ServiceKey& hint = hints[h];
    if (spec_.host_discovery && !alive_hosts_.contains(hint.addr)) continue;
    if (const std::optional<std::uint32_t> cell = grid_cell(hint)) {
      covered.push_back(*cell);
    } else {
      hint_cell_.emplace(hint, h);
    }
    queue_.push(kHintScore, h);
    ++queued;
  }
  // Then the grid, one class run per (/24 page, column) over the page's
  // rows. A cell on an address with a confirmed open has a per-cell
  // term, so it is queued on its own.
  std::sort(covered.begin(), covered.end());
  // Per row: whether a hint took over one of its cells.
  std::vector<char> row_covered(phase_targets_->size(), 0);
  for (const std::uint32_t cell : covered) {
    row_covered[(cell - hints.size()) / columns_] = 1;
  }
  const std::vector<net::Ipv4>& targets = *phase_targets_;
  std::vector<std::uint32_t> rows;   // the page's rows, ascending
  std::vector<std::uint32_t> bases;  // their column-0 indices
  std::vector<char> hot;             // per row: confirmed open on it
  for (const std::unique_ptr<RowPage>& page : row_pages_) {
    rows.clear();
    for (const std::uint32_t slot : *page) {
      if (slot != 0) rows.push_back(slot - 1);
    }
    std::sort(rows.begin(), rows.end());
    bases.clear();
    hot.clear();
    for (const std::uint32_t row : rows) {
      bases.push_back(
          static_cast<std::uint32_t>(hints.size() + row * columns_));
      hot.push_back(priors_.has_open(targets[row]));
    }
    const std::uint32_t id = queue_.add_page(bases);
    for (std::size_t column = 0; column < columns_; ++column) {
      ScoreQueue::RunBits bits{};
      std::optional<std::uint32_t> least;  // the run's first cell
      for (std::size_t k = 0; k < rows.size(); ++k) {
        const auto index = static_cast<std::uint32_t>(bases[k] + column);
        if (row_covered[rows[k]] &&
            std::binary_search(covered.begin(), covered.end(), index)) {
          continue;
        }
        if (hot[k]) {
          queue_.push(score_of(index), index);
        } else {
          bits[k / 64] |= std::uint64_t{1} << (k % 64);
          if (!least) least = index;
        }
        ++queued;
      }
      if (least) {
        queue_.push_run(class_score(*least), id,
                        static_cast<std::uint32_t>(column), bits);
      }
    }
  }
  current_.outcomes.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(budget_left_, queued)));
}

void Prober::start_phase() {
  const bool ranked = adaptive_ && !pinging_;
  if (ranked) rank_candidates();
  // One pacing bucket per machine (the paper's per-machine rate limit);
  // burst 1 reproduces strict 1/rate spacing. Fresh buckets start every
  // machine in step, so a sweep's machines send in its SweepOrder.
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
  cursor_.assign(machines, 0);
  // Count the idle machines before the first send: a machine whose whole
  // share is one probe finishes inside that send_next, and its end-of-
  // phase check must already see them. Ranked machines share one queue.
  machines_done_ = 0;
  if (!ranked) {
    for (std::size_t m = 0; m < machines; ++m) {
      machines_done_ += plan_.probes(m) == 0;
    }
  }
  if (ranked ? queue_.empty() : machines_done_ == machines) {
    // Degenerate phase with no probes: complete the scan immediately.
    pinging_ = false;
    network_.simulator().after_timer(util::usec(0), this, kTimerFinalize);
    return;
  }
  // Machine order: same-time ticks then fire in it all phase long.
  for (std::size_t m = 0; m < machines; ++m) {
    if (ranked || plan_.probes(m) > 0) send_next(m);
  }
}

void Prober::begin_port_phase() {
  pinging_ = false;
  current_.hosts_alive = static_cast<std::uint32_t>(alive_hosts_.size());
  // Keep the original target order, filtered to responding hosts.
  std::vector<net::Ipv4> alive;
  alive.reserve(alive_hosts_.size());
  for (const net::Ipv4 addr : *scan_targets_) {
    if (alive_hosts_.contains(addr)) alive.push_back(addr);
  }
  scan_targets_.reset();
  space_->targets =
      std::make_shared<const std::vector<net::Ipv4>>(std::move(alive));
  phase_targets_ = space_->targets.get();
  plan_phase(/*ping=*/false);
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
    std::size_t& cursor = cursor_[machine];
    const std::size_t cell = plan_.first_cell(machine) + cursor;
    if (pinging_) {
      net::Packet ping;
      ping.src = source;
      ping.dst = (*phase_targets_)[cell];
      ping.proto = net::Proto::kIcmp;
      ping.icmp_type = net::IcmpType::kEchoRequest;
      network_.send(ping);
      if (m_pings_) m_pings_->inc();
    } else {
      send_port_probe(source,
                      space_->grid_key((*phase_targets_)[cell / columns_],
                                       cell % columns_),
                      static_cast<std::uint32_t>(cell), now);
    }
    last = ++cursor == plan_.probes(machine);
  } else {
    // The best candidate of the shared queue, re-scored lazily.
    std::optional<std::uint32_t> pick;
    if (budget_left_ > 0) {
      pick = queue_.pop_best(
          [this](std::uint32_t index) { return score_of(index); },
          [this](std::uint32_t index) { return class_score(index); });
    }
    if (!pick) {
      machine_done();
      return;
    }
    const passive::ServiceKey key = space_->key(*pick);
    const bool hint = *pick < space_->hint_count;
    // A hint on the grid probes its grid cell.
    const std::uint32_t cell = hint ? *cell_of(key) : *pick;
    // Each candidate is queued once and never re-queued after its pop.
    assert(cell_outcome_[cell] == 0);
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
  network_.simulator().at_pacing_timer(pacing_slots_[machine], next, this,
                                       machine);
}

void Prober::send_port_probe(net::Ipv4 source, const passive::ServiceKey& key,
                             std::uint32_t cell, util::TimePoint now) {
  current_.outcomes.push(cell, now);
  if (adaptive_) {
    cell_outcome_[cell] = static_cast<std::uint32_t>(current_.outcomes.size());
  }
  send_probe(source, key.addr, key.proto, key.port);
}

void Prober::machine_done() {
  if (++machines_done_ < config_.source_addrs.size()) return;
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
  // alone. The record keeps space_.
  space_ = nullptr;
  scan_targets_ = nullptr;
  cell_outcome_ = {};
  row_pages_ = decltype(row_pages_)();
  page_of_ = {};
  memo_page_ = nullptr;
  column_of_ = {};
  hint_cell_ = {};
  queue_moves_total_ += queue_.repushes();
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

std::shared_ptr<const std::vector<net::Ipv4>> Prober::share_targets(
    std::shared_ptr<const std::vector<net::Ipv4>> targets) {
  if (targets != last_targets_ &&
      (!last_targets_ || *last_targets_ != *targets)) {
    last_targets_ = std::move(targets);
  }
  return last_targets_;
}

double Prober::score_of(std::uint32_t index) const {
  if (index < space_->hint_count) return kHintScore;
  const passive::ServiceKey key = space_->key(index);
  return priors_.score(key.addr, key.port, key.proto);
}

double Prober::class_score(std::uint32_t index) const {
  const passive::ServiceKey key = space_->key(index);
  return priors_.subnet_affinity(key.addr, key.port, key.proto);
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

std::optional<std::uint32_t> Prober::grid_cell(
    const passive::ServiceKey& key) {
  // Before the port phase (pinging) the grid is empty.
  const std::uint32_t* row = find_row(key.addr);
  if (row == nullptr || *row == 0) return std::nullopt;
  const auto column = column_of_.find(column_key(key.proto, key.port));
  if (column == column_of_.end()) return std::nullopt;
  return static_cast<std::uint32_t>(
      space_->hint_count + std::size_t{*row - 1} * columns_ + column->second);
}

std::optional<std::uint32_t> Prober::cell_of(const passive::ServiceKey& key) {
  if (const std::optional<std::uint32_t> cell = grid_cell(key)) return cell;
  if (hint_cell_.empty()) return std::nullopt;
  const auto it = hint_cell_.find(key);
  if (it == hint_cell_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::size_t> Prober::take_pending(
    const passive::ServiceKey& key) {
  const std::optional<std::uint32_t> cell = cell_of(key);
  if (!cell) return std::nullopt;
  const ScanOutcomes& outcomes = current_.outcomes;
  if (!adaptive_) {
    // Sent once it has a position below size(); answered once settled.
    const std::uint32_t i = outcomes.order().position(*cell);
    if (i >= outcomes.size() || outcomes.status(i) != ProbeStatus::kPending) {
      return std::nullopt;
    }
    return i;
  }
  std::uint32_t& slot = cell_outcome_[*cell];
  if (slot == 0) return std::nullopt;
  const std::size_t i = slot - 1;
  slot = 0;
  return i;
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
        // The adaptive mode's cell stops awaiting an answer while the
        // outcome stays pending.
        const std::optional<std::size_t> outcome_index = take_pending(key);
        if (!outcome_index) return;  // stray, late, duplicate
        // First stage answered; the verdict now rides on the data probe.
        if (m_responses_) m_responses_->inc();
        verifying_[key] = {*outcome_index, p.time};
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
  if (const std::optional<std::size_t> i = take_pending(key)) {
    settle(key, *i, status);
  }
}

void Prober::settle(const passive::ServiceKey& key, std::size_t outcome_index,
                    ProbeStatus status) {
  const util::TimePoint now = network_.simulator().now();
  current_.outcomes.set(outcome_index, status, now);
  if (m_responses_) m_responses_->inc();

  const bool open =
      status == ProbeStatus::kOpen || status == ProbeStatus::kOpenUdp;
  if (open) record_open(key, now, status == ProbeStatus::kOpenUdp);
  note_outcome(key, open);
}

void Prober::record_open(const passive::ServiceKey& key, util::TimePoint when,
                         bool udp) {
  if (table_.discover(key, when)) {
    SVCDISC_TRACE_INSTANT("prober.discover", when.usec);
    if (m_discoveries_) m_discoveries_->inc();
    if (on_discovery) on_discovery(key, when);
  }
  if (on_open_response) on_open_response(key, when, udp);
}

void Prober::note_outcome(const passive::ServiceKey& key, bool open) {
  if (!adaptive_) return;
  const bool first_open = open && !priors_.has_open(key.addr);
  priors_.record(key.addr, key.port, key.proto, open);
  // The address's cells now score per cell: their run cells leave their
  // runs. A queue is non-empty only in a port phase, whose rows exist.
  if (first_open && !queue_.empty()) {
    const std::uint32_t* row = find_row(key.addr);
    if (row != nullptr && *row != 0) {
      queue_.promote(
          page_of_.find(key.addr.value() >> 8)->second,
          static_cast<std::uint32_t>(space_->hint_count +
                                     std::size_t{*row - 1} * columns_));
    }
  }
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
  const util::TimePoint now = network_.simulator().now();
  current_.outcomes.set(outcome_index, status, now);
  verifying_.erase(key);
  const bool open = status == ProbeStatus::kOpen;
  if (open) {
    ++verify_confirmed_total_;
    if (m_verify_confirmed_) m_verify_confirmed_->inc();
    record_open(key, now, /*udp=*/false);
  } else {
    ++demotions_total_;
    if (m_demotions_) m_demotions_->inc();
    SVCDISC_TRACE_INSTANT("prober.demote", now.usec);
  }
  note_outcome(key, open);
}

void Prober::classify_unanswered() {
  ScanOutcomes& outcomes = current_.outcomes;
  const auto pending = [&](std::size_t i) {
    return outcomes.status(i) == ProbeStatus::kPending;
  };
  // Only an unanswered UDP probe asks whether its host proved alive, so
  // the set of answering hosts is built only when one is left; a space
  // with no UDP key cannot leave one.
  bool udp_pending = false;
  if (!outcomes.empty() && outcomes.space()->holds_udp()) {
    for (std::size_t i = 0; i < outcomes.size() && !udp_pending; ++i) {
      udp_pending = pending(i) && outcomes.key(i).proto != net::Proto::kTcp;
    }
  }
  util::FlatSet<net::Ipv4> answered;
  if (udp_pending) {
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (!pending(i)) answered.insert(outcomes.key(i).addr);
    }
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!pending(i)) continue;
    const passive::ServiceKey key = outcomes.key(i);
    if (key.proto == net::Proto::kTcp) {
      outcomes.set_status(i, ProbeStatus::kFiltered);
    } else {
      // A host that answered only the host-discovery ping proved itself
      // alive too.
      outcomes.set_status(i, alive_hosts_.contains(key.addr) ||
                                     answered.contains(key.addr)
                                 ? ProbeStatus::kMaybeOpen
                                 : ProbeStatus::kNoHost);
    }
    // In the adaptive mode every silence is negative evidence too.
    note_outcome(key, /*open=*/false);
  }
}

net::Port Prober::take_ephemeral() {
  next_ephemeral_ = next_ephemeral_ >= 60000 ? net::Port{40000}
                                             : net::Port(next_ephemeral_ + 1);
  return next_ephemeral_;
}

}  // namespace svcdisc::active
