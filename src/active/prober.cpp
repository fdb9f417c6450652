#include "active/prober.h"

#include <algorithm>
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
// ProberBase
// ---------------------------------------------------------------------------

ProberBase::ProberBase(sim::Network& network, ProberConfig config)
    : network_(network), config_(std::move(config)) {
  if (config_.source_addrs.empty()) {
    throw std::invalid_argument("Prober: need at least one source address");
  }
  for (const net::Ipv4 addr : config_.source_addrs) {
    network_.attach(addr, this);
  }
}

ProberBase::~ProberBase() {
  for (const net::Ipv4 addr : config_.source_addrs) {
    network_.detach(addr, this);
  }
}

void ProberBase::attach_metrics(util::MetricsRegistry& registry,
                                std::string_view prefix) {
  metrics_ = &registry;
  metrics_prefix_ = std::string(prefix);
  m_probes_tcp_ = &registry.counter(metrics_prefix_ + ".probes_tcp_sent");
  m_probes_udp_ = &registry.counter(metrics_prefix_ + ".probes_udp_sent");
  m_pings_ = &registry.counter(metrics_prefix_ + ".pings_sent");
  m_responses_ = &registry.counter(metrics_prefix_ + ".responses_received");
  m_discoveries_ = &registry.counter(metrics_prefix_ + ".discoveries");
  m_scans_ = &registry.counter(metrics_prefix_ + ".scans_completed");
}

void ProberBase::begin_scan_record(
    ScanSpec spec, std::function<void(const ScanRecord&)> on_complete) {
  if (in_progress_) throw std::logic_error("Prober: scan already in flight");
  in_progress_ = true;
  spec_ = std::move(spec);
  on_complete_ = std::move(on_complete);
  current_ = ScanRecord{};
  current_.index = static_cast<int>(scans_.size());
  current_.started = network_.simulator().now();
  // One async span per scan round: begin here, end in finish_scan_record.
  util::trace::async_begin("prober.scan",
                           static_cast<std::uint64_t>(current_.index) + 1,
                           current_.started.usec);
}

void ProberBase::finish_scan_record() {
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

void ProberBase::reset_buckets() {
  buckets_.clear();
  buckets_.reserve(config_.source_addrs.size());
  for (std::size_t m = 0; m < config_.source_addrs.size(); ++m) {
    buckets_.emplace_back(spec_.probes_per_sec, 1.0);
    if (metrics_) {
      buckets_.back().attach_metrics(*metrics_,
                                     metrics_prefix_ + ".rate_limiter");
    }
  }
}

void ProberBase::settle(std::size_t outcome_index, ProbeStatus status) {
  ProbeOutcome& outcome = current_.outcomes[outcome_index];
  outcome.status = status;
  outcome.when = network_.simulator().now();
  if (m_responses_) m_responses_->inc();

  if (status == ProbeStatus::kOpen || status == ProbeStatus::kOpenUdp) {
    record_open(outcome, status == ProbeStatus::kOpenUdp);
  }
  note_outcome(outcome);
}

void ProberBase::record_open(const ProbeOutcome& outcome, bool udp) {
  if (table_.discover(outcome.key, outcome.when)) {
    SVCDISC_TRACE_INSTANT("prober.discover", outcome.when.usec);
    if (m_discoveries_) m_discoveries_->inc();
    if (on_discovery) on_discovery(outcome.key, outcome.when);
  }
  if (on_open_response) on_open_response(outcome.key, outcome.when, udp);
}

void ProberBase::note_outcome(const ProbeOutcome& /*outcome*/) {}

void ProberBase::send_probe(net::Ipv4 source, net::Ipv4 addr,
                            net::Proto proto, net::Port port) {
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

void ProberBase::classify_unanswered(const util::FlatSet<net::Ipv4>& alive) {
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
      const net::Ipv4 addr = outcome.key.addr;
      outcome.status = alive.contains(addr) || answered.contains(addr)
                           ? ProbeStatus::kMaybeOpen
                           : ProbeStatus::kNoHost;
    }
    note_outcome(outcome);
  }
}

net::Port ProberBase::take_ephemeral() {
  next_ephemeral_ = next_ephemeral_ >= 60000 ? net::Port{40000}
                                             : net::Port(next_ephemeral_ + 1);
  return next_ephemeral_;
}

// ---------------------------------------------------------------------------
// Prober — the fixed exhaustive sweep
// ---------------------------------------------------------------------------

Prober::Prober(sim::Network& network, ProberConfig config)
    : ProberBase(network, std::move(config)) {}

void Prober::start_scan(ScanSpec spec,
                        std::function<void(const ScanRecord&)> on_complete) {
  begin_scan_record(std::move(spec), std::move(on_complete));
  alive_hosts_.clear();

  const std::size_t machines = config_.source_addrs.size();
  plan_.assign(machines, {});
  // One pacing bucket per machine (the paper's per-machine rate limit).
  reset_buckets();

  phase_targets_ = &spec_.targets;
  pinging_ = spec_.host_discovery;
  if (pinging_) {
    // Phase 1: one ICMP echo per target address; port probes follow for
    // responders only.
    current_.hosts_pinged =
        static_cast<std::uint32_t>(spec_.targets.size());
  }
  try {
    plan_phase(pinging_, spec_.targets.size());
  } catch (...) {
    in_progress_ = false;  // nothing was sent; the prober stays usable
    throw;
  }
  start_phase();
}

void Prober::start_phase() {
  cursor_.assign(plan_.size(), 0);
  // Count the idle machines before the first send: a machine whose whole
  // share is one probe finishes inside that send_next, and its end-of-
  // phase check must already see them.
  machines_done_ = static_cast<std::size_t>(
      std::count_if(plan_.begin(), plan_.end(),
                    [](const MachinePlan& p) { return p.task_count == 0; }));
  if (machines_done_ == plan_.size()) {
    // Degenerate phase with no probes: complete the scan immediately.
    pinging_ = false;
    network_.simulator().after_timer(util::usec(0), this, kTimerFinalize);
    return;
  }
  for (std::size_t m = 0; m < plan_.size(); ++m) {
    if (plan_[m].task_count > 0) send_next(m);
  }
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

void Prober::plan_phase(bool ping, std::size_t target_count) {
  // Split targets evenly across prober machines, preserving probe order
  // within each machine's share (address-major, port-minor). Only the
  // split is computed here; task_at() materializes individual probes on
  // demand, so a million-address phase costs three integers per machine
  // instead of a (targets x ports) task vector. A port phase also gets
  // its probe grid: 4 bytes per (target, port) cell.
  const std::size_t columns = spec_.tcp_ports.size() + spec_.udp_ports.size();
  // Grid cells store 1 + an outcome index in 32 bits, and a phase has at
  // most one outcome per (target, port-list entry). The ping phase checks
  // too: its target list bounds the port phase's.
  if (target_count * columns > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "Prober: targets x ports exceeds the 2^32 - 1 probe grid");
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
  current_.outcomes.reserve(current_.outcomes.size() + total);

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
  cell_outcome_.assign(target_count * columns, 0);
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

Prober::ProbeTask Prober::task_at(std::size_t machine,
                                  std::size_t cursor) const {
  const MachinePlan& plan = plan_[machine];
  const std::vector<net::Ipv4>& targets = *phase_targets_;
  if (pinging_) {
    return {targets[plan.first_target + cursor], 0, net::Proto::kIcmp};
  }
  const std::size_t target = plan.first_target + cursor / columns_;
  const std::size_t pi = cursor % columns_;
  const std::size_t cell =
      std::size_t{target_row_[target]} * columns_ + port_column_[pi];
  if (pi < spec_.tcp_ports.size()) {
    return {targets[target], spec_.tcp_ports[pi], net::Proto::kTcp, cell};
  }
  return {targets[target], spec_.udp_ports[pi - spec_.tcp_ports.size()],
          net::Proto::kUdp, cell};
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

void Prober::send_next(std::size_t machine) {
  std::size_t& cursor = cursor_[machine];
  const ProbeTask task = task_at(machine, cursor);
  const net::Ipv4 source = config_.source_addrs[machine];
  const util::TimePoint now = network_.simulator().now();

  if (task.proto == net::Proto::kIcmp) {
    net::Packet ping;
    ping.src = source;
    ping.dst = task.addr;
    ping.proto = net::Proto::kIcmp;
    ping.icmp_type = net::IcmpType::kEchoRequest;
    network_.send(ping);
    if (m_pings_) m_pings_->inc();
  } else {
    // A cell gets a fresh outcome unless its latest one is still
    // pending: a repeated target or port probed while the first probe
    // awaits its answer folds into that probe's outcome.
    std::uint32_t& cell = cell_outcome_[task.cell];
    if (cell == 0 ||
        current_.outcomes[cell - 1].status != ProbeStatus::kPending) {
      current_.outcomes.push_back(
          {{task.addr, task.proto, task.port}, ProbeStatus::kPending, now});
      cell = static_cast<std::uint32_t>(current_.outcomes.size());
    }
    send_probe(source, task.addr, task.proto, task.port);
  }
  buckets_[machine].consume(now);

  ++cursor;
  if (cursor >= plan_[machine].task_count) {
    if (++machines_done_ == plan_.size()) {
      // All packets of this phase sent; allow stragglers to answer.
      network_.simulator().after_timer(
          spec_.timeout + util::msec(100), this,
          pinging_ ? kTimerBeginPortPhase : kTimerFinalize);
    }
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

void Prober::on_packet(const net::Packet& p) {
  if (!in_progress_) return;
  switch (p.proto) {
    case net::Proto::kTcp: {
      if (p.flags.is_syn_ack()) {
        resolve(p.src, p.sport, net::Proto::kTcp, ProbeStatus::kOpen);
      } else if (p.flags.rst()) {
        resolve(p.src, p.sport, net::Proto::kTcp, ProbeStatus::kClosed);
      }
      return;
    }
    case net::Proto::kUdp: {
      resolve(p.src, p.sport, net::Proto::kUdp, ProbeStatus::kOpenUdp);
      return;
    }
    case net::Proto::kIcmp: {
      if (p.icmp_type == net::IcmpType::kEchoReply) {
        if (pinging_) alive_hosts_.insert(p.src);
      } else if (p.icmp_type == net::IcmpType::kDestUnreachable &&
                 p.icmp_code == net::IcmpCode::kPortUnreachable) {
        resolve(p.src, p.icmp_orig_dport, p.icmp_orig_proto,
                ProbeStatus::kClosed);
      }
      return;
    }
  }
}

void Prober::resolve(net::Ipv4 addr, net::Port port, net::Proto proto,
                     ProbeStatus status) {
  // Before the port phase (pinging) the index is empty.
  const std::uint32_t* row = find_row(addr);
  if (row == nullptr || *row == 0) return;
  const auto column = column_of_.find(column_key(proto, port));
  if (column == column_of_.end()) return;
  const std::uint32_t cell =
      cell_outcome_[std::size_t{*row - 1} * columns_ + column->second];
  // Unprobed, or its latest outcome already answered: a stray, late or
  // duplicate reply.
  if (cell == 0 ||
      current_.outcomes[cell - 1].status != ProbeStatus::kPending) {
    return;
  }
  settle(cell - 1, status);
}

void Prober::finalize_scan() {
  // A host that answered only the ICMP host-discovery ping proved
  // itself alive too.
  classify_unanswered(alive_hosts_);
  // Free the grid rather than clear it: it is sized by this scan alone.
  cell_outcome_ = {};
  target_row_ = {};
  port_column_ = {};
  row_pages_ = decltype(row_pages_)();
  page_of_ = {};
  memo_page_ = nullptr;
  column_of_ = {};
  finish_scan_record();
}

}  // namespace svcdisc::active
