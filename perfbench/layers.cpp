#include "layers.h"

#include <algorithm>
#include <cstdio>

#include "capture/tap.h"
#include "util/sim_time.h"

namespace perfbench {
namespace {

using svcdisc::util::Duration;
using svcdisc::util::kEpoch;

/// Packets replayed through the shadows per clock read.
constexpr std::size_t kChunk = 256;
constexpr Duration kMarkerPeriod = svcdisc::util::minutes(1);

constexpr const char* kShadowNames[kShadowLayers] = {
    "capture.filter", "passive.monitor", "passive.scan_detector",
    "analysis.streaming"};

/// Shadow layers whose work stands in for the same work the engine does
/// (the second scan detector only re-times part of the monitor's work).
constexpr bool kProxiesEngineWork[kShadowLayers] = {true, true, false, true};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

void LayerTracer::Agg::add(double start, double end, double busy,
                           std::uint64_t n) {
  if (start_s < 0 || start < start_s) start_s = start;
  end_s = std::max(end_s, end);
  busy_s += busy;
  calls += n;
}

LayerTracer::LayerTracer(workload::Campus& campus,
                         core::DiscoveryEngine& engine,
                         passive::MonitorConfig monitor_config,
                         bool streaming)
    : campus_(campus),
      engine_(engine),
      filter_(capture::Tap::paper_default_filter()),
      monitor_(std::move(monitor_config)),
      detector_(std::make_shared<passive::ScanDetector>(
          passive::ScanDetectorConfig{}, campus.internal_prefixes())),
      detector2_(std::make_unique<passive::ScanDetector>(
          passive::ScanDetectorConfig{}, campus.internal_prefixes())) {
  monitor_.set_scan_detector(detector_);
  if (streaming) {
    stream_ = std::make_unique<analysis::StreamingAnalytics>(
        core::streaming_config_for(campus));
    stream_->set_scan_detector(detector_);
  }
  // Beside the engine's tap on every peering: the border hands both the
  // same batches, and the engine's taps keep their own fan-out.
  auto& border = campus.network().border();
  for (std::size_t i = 0; i < border.peering_count(); ++i) {
    border.add_tap(i, this);
  }
  buf_.reserve(kChunk * 2);
}

void LayerTracer::observe(const net::Packet& p) {
  buf_.push_back(p);
  if (buf_.size() >= kChunk) flush();
}

void LayerTracer::observe_batch(std::span<const net::Packet> packets) {
  buf_.insert(buf_.end(), packets.begin(), packets.end());
  if (buf_.size() >= kChunk) flush();
}

double LayerTracer::since_start(Clock::time_point t) const {
  return std::chrono::duration<double>(t - run_start_).count();
}

void LayerTracer::flush() {
  if (buf_.empty()) return;
  std::array<Clock::time_point, kShadowLayers + 1> t{};
  keep_.resize(buf_.size());
  t[kFilter] = Clock::now();
  for (std::size_t i = 0; i < buf_.size(); ++i) {
    keep_[i] = filter_.matches(buf_[i]) ? 1 : 0;
  }
  const Clock::time_point filtered = Clock::now();
  survivors_.clear();
  for (std::size_t i = 0; i < buf_.size(); ++i) {
    if (keep_[i]) survivors_.push_back(buf_[i]);
  }
  t[kMonitor] = Clock::now();
  monitor_.observe_batch(survivors_);
  t[kDetector] = Clock::now();
  for (const net::Packet& p : survivors_) detector2_->observe(p);
  t[kStreaming] = Clock::now();
  if (stream_) stream_->observe_batch(survivors_);
  t[kShadowLayers] = Clock::now();

  filter_packets_ += buf_.size();
  monitor_packets_ += survivors_.size();
  for (std::size_t l = 0; l < kShadowLayers; ++l) {
    if (l == kStreaming && !stream_) continue;
    const Clock::time_point end = l == kFilter ? filtered : t[l + 1];
    const double start_s = since_start(t[l]);
    const double end_s = since_start(end);
    if (pending_calls_[l] == 0 || start_s < pending_start_[l]) {
      pending_start_[l] = start_s;
    }
    pending_end_[l] = std::max(pending_end_[l], end_s);
    pending_shadow_[l] += end_s - start_s;
    ++pending_calls_[l];
  }
  // The compaction between filter and monitor is shadow work too.
  pending_other_ += std::chrono::duration<double>(t[kMonitor] - filtered)
                        .count();
  buf_.clear();
}

void LayerTracer::begin_run() {
  auto& sim = campus_.simulator();
  end_ = kEpoch + campus_.config().duration;
  const std::int64_t day_us = svcdisc::util::days(1).usec;
  days_.assign(static_cast<std::size_t>(
                   std::max<std::int64_t>(1, (end_.usec + day_us - 1) / day_us)),
               Day{});
  scan_s_.clear();
  last_sim_ = kEpoch;
  last_scanning_ = false;
  last_scans_done_ = 0;
  sim.at(kEpoch + kMarkerPeriod, [this] { on_marker(); });
  run_start_ = Clock::now();
  last_wall_ = run_start_;
}

void LayerTracer::on_marker() {
  ++markers_;
  flush();
  close_interval();
  auto& sim = campus_.simulator();
  const util::TimePoint next = sim.now() + kMarkerPeriod;
  if (next <= end_) sim.at(next, [this] { on_marker(); });
}

void LayerTracer::close_interval() {
  const Clock::time_point now = Clock::now();
  const double start_s = since_start(last_wall_);
  const double end_s = since_start(now);
  const std::int64_t day_us = svcdisc::util::days(1).usec;
  const std::size_t d = std::min<std::size_t>(
      static_cast<std::size_t>((last_sim_ - kEpoch).usec / day_us),
      days_.size() - 1);
  const active::ProberBase& prober = engine_.prober();
  const bool scanning = prober.scan_in_progress();
  const std::size_t scans_done = prober.scans().size();
  // An interval belongs to a scan if the scan was in flight at either
  // end, or started and finished inside it.
  const bool in_scan =
      last_scanning_ || scanning || scans_done != last_scans_done_;

  Day& day = days_[d];
  day.day.add(start_s, end_s, end_s - start_s);
  double shadow = pending_other_;
  for (std::size_t l = 0; l < kShadowLayers; ++l) {
    if (pending_calls_[l] == 0) continue;
    shadow += pending_shadow_[l];
    Agg& agg = in_scan ? day.shadow_in_scan[l] : day.shadow[l];
    agg.add(pending_start_[l], pending_end_[l], pending_shadow_[l],
            pending_calls_[l]);
  }
  if (in_scan) {
    day.scan.add(start_s, end_s, end_s - start_s);
    day.scan_shadow_s += shadow;
    if (scan_s_.size() <= last_scans_done_) {
      scan_s_.resize(last_scans_done_ + 1, 0.0);
    }
    scan_s_[last_scans_done_] += end_s - start_s - shadow;
  }
  shadow_s_ += shadow;

  pending_shadow_.fill(0);
  pending_start_.fill(0);
  pending_end_.fill(0);
  pending_calls_.fill(0);
  pending_other_ = 0;
  last_wall_ = now;
  last_sim_ = campus_.simulator().now();
  last_scanning_ = scanning;
  last_scans_done_ = scans_done;
}

LayerReport LayerTracer::end_run() {
  flush();
  close_interval();
  LayerReport r;
  r.run_s = since_start(last_wall_);
  r.shadow_s = shadow_s_;
  r.filter_packets = filter_packets_;
  r.monitor_packets = monitor_packets_;
  r.markers = markers_;

  double window_s = 0;      // scan windows, gross
  double window_shadow = 0;  // all shadow work inside them
  double window_proxy = 0;   // shadow work standing in for engine work
  for (const Day& day : days_) {
    window_s += day.scan.busy_s;
    window_shadow += day.scan_shadow_s;
    for (std::size_t l = 0; l < kShadowLayers; ++l) {
      r.busy_s[l] += day.shadow[l].busy_s + day.shadow_in_scan[l].busy_s;
      if (kProxiesEngineWork[l]) window_proxy += day.shadow_in_scan[l].busy_s;
    }
  }
  r.scan_window_s = window_s - window_shadow;
  r.scan_median_s = median(scan_s_);

  // The engine's own run time is the traced time minus the shadows'. The
  // spans cover the proxied passive layers plus the scan windows' self
  // time (their wall time minus the shadow work and the proxied engine
  // work inside them); the rest is the simulator, workload and border.
  double proxy = 0;
  for (std::size_t l = 0; l < kShadowLayers; ++l) {
    if (kProxiesEngineWork[l]) proxy += r.busy_s[l];
  }
  const double engine_s = r.run_s - r.shadow_s;
  const double covered = proxy + (r.scan_window_s - window_proxy);
  r.unattributed_ratio =
      engine_s > 0 ? std::max(0.0, engine_s - covered) / engine_s : 0;

  // The span tree: day -> {active.scan -> shadows, shadows}.
  std::string out = "[";
  std::size_t next_id = 0;
  auto emit = [&](const char* name, long parent, std::size_t day,
                  const Agg& a) -> long {
    if (a.calls == 0) return -1;
    char line[320];
    std::snprintf(line, sizeof line,
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%s,\"day\":%zu,"
                  "\"start_s\":%.9f,\"end_s\":%.9f,\"busy_s\":%.9f,"
                  "\"calls\":%llu}",
                  next_id == 0 ? "" : ",", next_id, name,
                  parent < 0 ? "null" : std::to_string(parent).c_str(), day,
                  a.start_s, a.end_s, a.busy_s,
                  static_cast<unsigned long long>(a.calls));
    out += line;
    return static_cast<long>(next_id++);
  };
  for (std::size_t d = 0; d < days_.size(); ++d) {
    const Day& day = days_[d];
    const long day_id = emit("day", -1, d, day.day);
    const long scan_id = emit("active.scan", day_id, d, day.scan);
    if (scan_id >= 0) {
      for (std::size_t l = 0; l < kShadowLayers; ++l) {
        emit(kShadowNames[l], scan_id, d, day.shadow_in_scan[l]);
      }
    }
    for (std::size_t l = 0; l < kShadowLayers; ++l) {
      emit(kShadowNames[l], day_id, d, day.shadow[l]);
    }
  }
  out += "\n]\n";
  r.spans_json = std::move(out);
  return r;
}

}  // namespace perfbench
