// External-scan detection (paper §4.3).
//
// "We eliminate any host which attempts to open TCP connections to 100 or
// more unique IP addresses on our network within 12 hours and receives
// TCP RST responses from at least 100 of these contacted hosts."
//
// The detector tallies, per external source and per 12-hour window, the
// unique internal targets it SYNs and the unique internal hosts that
// answer it with RST. A source crossing both thresholds in one window is
// flagged permanently. Flagged sources can then be excluded from passive
// discovery to measure how much external scanning helps (Figure 4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/ipv4.h"
#include "net/packet.h"
#include "sim/node.h"
#include "util/flat_hash.h"
#include "util/metrics.h"
#include "util/sim_time.h"

namespace svcdisc::passive {

struct ScanDetectorConfig {
  /// Unique internal targets a source must SYN within one window.
  std::uint32_t target_threshold{100};
  /// Unique internal hosts that must RST the source within one window.
  std::uint32_t rst_threshold{100};
  /// Window length.
  util::Duration window{util::hours(12)};
};

class ScanDetector final : public sim::PacketObserver {
 public:
  /// `is_internal` classifies addresses as on-campus. The detector only
  /// examines TCP packets crossing in either direction.
  using InternalPredicate = bool (*)(net::Ipv4, const void* ctx);

  ScanDetector(ScanDetectorConfig config,
               std::vector<net::Prefix> internal_prefixes);

  // sim::PacketObserver
  void observe(const net::Packet& p) override;

  /// True when `src` has been flagged as a scanner.
  bool is_scanner(net::Ipv4 src) const { return scanners_.contains(src); }
  /// All flagged scanner sources, in flagging order.
  const util::FlatSet<net::Ipv4>& scanners() const { return scanners_; }
  std::size_t scanner_count() const { return scanners_.size(); }

  /// Registers `<prefix>.packets_seen` and `<prefix>.scanners_flagged`
  /// counters, mirroring subsequent activity.
  void attach_metrics(util::MetricsRegistry& registry,
                      std::string_view prefix);

 private:
  bool is_internal(net::Ipv4 addr) const;
  void roll_window(util::TimePoint t);

  ScanDetectorConfig config_;
  std::vector<net::Prefix> internal_;
  util::FlatSet<net::Ipv4> scanners_;

  /// Distinct addresses seen, counted up to a cap. The thresholds are
  /// only ever compared against (`count() >= threshold`), so once the
  /// count reaches the cap further addresses change nothing and are not
  /// stored. Most sources contact one address per window: the first is
  /// kept inline and the spill set is allocated only for a second.
  class CappedSet {
   public:
    /// Adds `addr` unless it was seen or the count already reached `cap`.
    void insert(net::Ipv4 addr, std::uint32_t cap);
    std::uint32_t count() const { return count_; }

   private:
    std::uint32_t count_{0};
    net::Ipv4 first_{};
    std::unique_ptr<util::FlatSet<net::Ipv4>> rest_;  ///< the others
  };
  struct SourceState {
    CappedSet targets;
    CappedSet rst_from;
  };
  /// True when `state` crosses both thresholds.
  bool crossed(const SourceState& state) const {
    return state.targets.count() >= config_.target_threshold &&
           state.rst_from.count() >= config_.rst_threshold;
  }
  /// Flags `src` and drops its window state.
  void flag(net::Ipv4 src, util::TimePoint t);
  // Tumbling-window state: cleared at each window boundary. A burst scan
  // (minutes) always lands inside one window; a scan straddling a
  // boundary is still caught once its post-boundary portion crosses the
  // thresholds, which the paper's own 12-hour bucketing also requires.
  util::FlatMap<net::Ipv4, SourceState> window_state_;
  std::int64_t current_window_{0};
  util::Counter* m_packets_{nullptr};
  util::Counter* m_flagged_{nullptr};
};

}  // namespace svcdisc::passive
