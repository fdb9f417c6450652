#include "core/engine.h"

#include <algorithm>
#include <stdexcept>

#include "util/trace.h"

namespace svcdisc::core {

DiscoveryEngine::DiscoveryEngine(workload::Campus& campus, EngineConfig config)
    : campus_(campus), config_(config) {
  if (config_.threads != 1) {
    throw std::invalid_argument("EngineConfig::threads must be 1 (got " +
                                std::to_string(config_.threads) + ")");
  }
  util::MetricsRegistry* metrics = config_.metrics;
  const auto& internal = campus_.internal_prefixes();
  detector_ = std::make_shared<passive::ScanDetector>(
      passive::ScanDetectorConfig{}, internal);
  if (metrics) detector_->attach_metrics(*metrics, "scan_detector");

  // One tap per peering, each with the paper's capture filter. When
  // fault injection is configured, an Impairment stage sits between the
  // border and the tap; an identity config inserts nothing, so the
  // clean-capture pipeline (and its metric set) is untouched.
  auto& border = campus_.network().border();
  const bool impaired = !config_.impairment.identity() ||
                        !config_.tap_skew.empty();
  for (std::size_t i = 0; i < border.peering_count(); ++i) {
    auto tap = std::make_unique<capture::Tap>(border.peering(i).name);
    tap->set_filter(capture::Tap::paper_default_filter());
    if (metrics) tap->attach_metrics(*metrics, "tap." + tap->name());
    if (impaired) {
      capture::ImpairmentConfig icfg = config_.impairment;
      // Independent rng stream per tap: taps must not share loss/burst
      // decisions, and the derivation must be stable across runs.
      icfg.seed = config_.impairment.seed +
                  0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
      if (i < config_.tap_skew.size()) {
        icfg.skew = icfg.skew + config_.tap_skew[i];
      }
      auto imp = std::make_unique<capture::Impairment>(icfg, tap.get());
      if (metrics) imp->attach_metrics(*metrics, "impair." + tap->name());
      border.add_tap(i, imp.get());
      impairments_.push_back(std::move(imp));
    } else {
      border.add_tap(i, tap.get());
    }
    // When provenance is on, a context shim precedes every later
    // consumer of this tap, so the monitors below always ingest under
    // the right peering attribution.
    if (config_.provenance) {
      auto ctx = std::make_unique<TapContextObserver>(
          config_.provenance, static_cast<std::uint16_t>(i));
      tap->add_consumer(ctx.get());
      tap_contexts_.push_back(std::move(ctx));
    }
    taps_.push_back(std::move(tap));
  }
  if (config_.provenance) {
    std::vector<std::string> names;
    names.reserve(taps_.size());
    for (const auto& tap : taps_) names.push_back(tap->name());
    config_.provenance->set_tap_names(std::move(names));
  }

  monitor_ =
      std::make_unique<passive::PassiveMonitor>(monitor_config(false));
  monitor_->set_scan_detector(detector_);
  if (metrics) monitor_->attach_metrics(*metrics, "passive");
  if (config_.scanner_excluded_monitor) {
    excluded_monitor_ =
        std::make_unique<passive::PassiveMonitor>(monitor_config(true));
    excluded_monitor_->set_scan_detector(detector_);
    if (metrics) {
      excluded_monitor_->attach_metrics(*metrics, "passive_excluded");
    }
  }
  for (auto& tap : taps_) tap->add_consumer(monitor_.get());
  if (ProvenanceLedger* ledger = config_.provenance) {
    monitor_->on_evidence = [ledger](const passive::ServiceKey& key,
                                     util::TimePoint t) {
      ledger->record(key, t,
                     key.proto == net::Proto::kUdp ? EvidenceKind::kUdp
                                                   : EvidenceKind::kSynAck,
                     Discoverer::kPassive, ledger->current_tap());
    };
  }
  if (excluded_monitor_) {
    for (auto& tap : taps_) tap->add_consumer(excluded_monitor_.get());
  }

  // Streaming analytics consume the same tap fanout, added after the
  // monitors so the shared detector's verdict state at observation time
  // matches what the monitors consulted.
  if (analysis::StreamingAnalytics* stream = config_.streaming) {
    stream->set_scan_detector(detector_);
    for (auto& tap : taps_) tap->add_consumer(stream);
    if (metrics) stream->attach_metrics(*metrics);
  }

  if (config_.per_link_monitors) {
    for (auto& tap : taps_) {
      auto link_monitor =
          std::make_unique<passive::PassiveMonitor>(monitor_config(false));
      if (metrics) {
        link_monitor->attach_metrics(*metrics,
                                     "passive_link." + tap->name());
      }
      tap->add_consumer(link_monitor.get());
      link_monitors_.push_back(std::move(link_monitor));
    }
  }

  active::ProberConfig prober_config;
  prober_config.source_addrs = campus_.prober_sources();
  prober_ = std::make_unique<active::Prober>(
      campus_.network(), prober_config,
      config_.adaptive_prober ? std::optional(config_.adaptive) : std::nullopt);
  if (prober_->adaptive()) {
    prober_->configure_feed(campus_.internal_prefixes(),
                            campus_.config().udp_mode
                                ? campus_.udp_ports()
                                : std::vector<net::Port>{});
    // The seeding feed joins every tap after the monitors/streaming.
    for (auto& tap : taps_) tap->add_consumer(&prober_->passive_feed());
  }
  if (metrics) prober_->attach_metrics(*metrics, "active");
  if (metrics) campus_.simulator().attach_metrics(*metrics, "sim");
  if (config_.provenance || config_.streaming) {
    // Streaming sees each open reply first, then the ledger records it.
    ProvenanceLedger* ledger = config_.provenance;
    analysis::StreamingAnalytics* stream = config_.streaming;
    prober_->on_open_response = [ledger, stream](
                                    const passive::ServiceKey& key,
                                    util::TimePoint t, bool udp) {
      if (stream) stream->on_probe_reply(key, t);
      if (!ledger) return;
      ledger->record(key, t,
                     udp ? EvidenceKind::kProbeReplyUdp
                         : EvidenceKind::kProbeReplyTcp,
                     Discoverer::kActive);
    };
  }

  if (config_.scan_count > 0) {
    active::ScanSpec spec;
    spec.tcp_ports = campus_.tcp_ports();
    spec.udp_ports = campus_.udp_ports();
    spec.probes_per_sec = campus_.config().probe_rate_per_sec;
    active::ScheduleConfig schedule;
    schedule.first_scan = util::kEpoch + config_.first_scan_offset;
    schedule.period = config_.scan_period;
    schedule.count = config_.scan_count;
    scheduler_ = std::make_unique<active::ScanScheduler>(
        campus_.simulator(), *prober_, std::move(spec),
        campus_.shared_scan_targets(), schedule);
    scheduler_->arm();
  }
}

DiscoveryEngine::~DiscoveryEngine() = default;

passive::MonitorConfig DiscoveryEngine::monitor_config(
    bool exclude_scanners) const {
  passive::MonitorConfig cfg;
  cfg.internal_prefixes = campus_.internal_prefixes();
  // DTCPall studies all ports: the campus then reports its scan port
  // list but the monitor must stay unrestricted.
  if (!campus_.config().all_ports_mode) {
    cfg.tcp_ports = campus_.tcp_ports();
    cfg.udp_ports = campus_.udp_ports();
  }
  cfg.detect_udp = campus_.config().udp_mode;
  cfg.exclude_scanner_triggered = exclude_scanners;
  // Injected duplication delivers exact twins back-to-back; the monitor
  // must not double-count them.
  cfg.drop_exact_duplicates = config_.impairment.dup_rate > 0;
  if (config_.sketch_tables) {
    cfg.client_accounting = passive::ClientAccounting::kSketch;
  }
  return cfg;
}

analysis::StreamingConfig streaming_config_for(
    const workload::Campus& campus) {
  analysis::StreamingConfig cfg;
  cfg.internal_prefixes = campus.internal_prefixes();
  if (!campus.config().all_ports_mode) {
    cfg.tcp_ports = campus.tcp_ports();
    cfg.udp_ports = campus.udp_ports();
  }
  cfg.detect_udp = campus.config().udp_mode;
  return cfg;
}

passive::PassiveMonitor& DiscoveryEngine::link_monitor(std::size_t peering) {
  return *link_monitors_.at(peering);
}

passive::PassiveMonitor& DiscoveryEngine::add_sampled_monitor(
    std::unique_ptr<capture::Sampler> sampler) {
  auto monitor =
      std::make_unique<passive::PassiveMonitor>(monitor_config(false));
  if (config_.metrics) {
    monitor->attach_metrics(
        *config_.metrics,
        "passive_sampled." + std::to_string(sampled_monitors_.size()));
  }
  auto stream = std::make_unique<capture::SampledStream>(std::move(sampler),
                                                         monitor.get());
  for (auto& tap : taps_) tap->add_consumer(stream.get());
  sampled_streams_.push_back(std::move(stream));
  sampled_monitors_.push_back(std::move(monitor));
  return *sampled_monitors_.back();
}

void DiscoveryEngine::add_tap_consumer(sim::PacketObserver* consumer) {
  for (auto& tap : taps_) tap->add_consumer(consumer);
}

void DiscoveryEngine::run() {
  SVCDISC_TRACE_SPAN("engine.run");
  {
    SVCDISC_TRACE_SPAN("engine.start");
    if (!campus_.started()) campus_.start();
  }
  // The campaign proceeds in one-day phases. The simulator processes
  // events in time order either way, so chunking is behaviour-identical
  // to a single run_until — it exists to give the trace timeline one
  // "engine.step" span per simulated day (where did the wall time go?).
  auto& sim = campus_.simulator();
  const util::TimePoint end = util::kEpoch + campus_.config().duration;
  const util::Duration step = util::days(1);
  while (sim.now() < end) {
    const util::TimePoint target = std::min(sim.now() + step, end);
    SVCDISC_TRACE_SPAN_AT("engine.step", target.usec);
    sim.run_until(target);
  }
  {
    SVCDISC_TRACE_SPAN("engine.flush");
    // Release any packets still parked in reorder delay lines, so the
    // conservation ledger balances (held == 0 after a campaign).
    for (auto& imp : impairments_) imp->flush();
  }
  // Scale-universe gauges: all deterministic, so they are safe inside
  // the golden metrics.json — and only present when a universe exists,
  // so existing scenario goldens carry no new keys.
  if (config_.metrics && campus_.universe()) {
    const host::ScaleUniverse& u = *campus_.universe();
    config_.metrics->gauge("scale.universe_addresses")
        .set(static_cast<std::int64_t>(u.universe_size()));
    config_.metrics->gauge("scale.materialized_addresses")
        .set(static_cast<std::int64_t>(u.materialized_count()));
    config_.metrics->gauge("scale.replies_sent")
        .set(static_cast<std::int64_t>(u.replies_sent()));
    config_.metrics->gauge("scale.universe_bytes")
        .set(static_cast<std::int64_t>(u.memory_bytes()));
  }
  if (analysis::StreamingAnalytics* stream = config_.streaming) {
    SVCDISC_TRACE_SPAN("engine.stream_finish");
    stream->finish(end);
    // Table-side gauges live here (not in the analytics layer): the
    // sketch-backed monitor table is the engine's, and like the scale.*
    // gauges these keys only appear when the feature is on.
    if (config_.metrics) {
      config_.metrics->gauge("stream.table_bytes")
          .set(static_cast<std::int64_t>(monitor_->table().memory_bytes()));
      config_.metrics->gauge("stream.table_services")
          .set(static_cast<std::int64_t>(monitor_->table().size()));
    }
  }
}

}  // namespace svcdisc::core
