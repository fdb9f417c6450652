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

  /// A source's distinct targets and distinct RST senders in the
  /// current window, each counted up to its threshold: the thresholds
  /// are only ever compared against, so once a count reaches its
  /// threshold further addresses change nothing and are not recorded.
  struct SourceCounts {
    std::uint32_t targets{0};
    std::uint32_t rst_from{0};
  };
  /// True when `counts` cross both thresholds.
  bool crossed(const SourceCounts& counts) const {
    return counts.targets >= config_.target_threshold &&
           counts.rst_from >= config_.rst_threshold;
  }
  /// Counts `peer` for `source` in `pairs` unless the pair was seen or
  /// `count` already reached `threshold`.
  static void count_peer(util::FlatSet<std::uint64_t>& pairs,
                         net::Ipv4 source, net::Ipv4 peer,
                         std::uint32_t& count, std::uint32_t threshold);
  /// Flags `src` and drops its window counts (its pairs stay until the
  /// window rolls; a flagged source is never counted again).
  void flag(net::Ipv4 src, util::TimePoint t);
  // Tumbling-window state: cleared at each window boundary. A burst scan
  // (minutes) always lands inside one window; a scan straddling a
  // boundary is still caught once its post-boundary portion crosses the
  // thresholds, which the paper's own 12-hour bucketing also requires.
  util::FlatMap<net::Ipv4, SourceCounts> window_counts_;
  /// The (source, peer) pairs counted this window, one set per rule:
  /// source << 32 | peer.
  util::FlatSet<std::uint64_t> target_pairs_;
  util::FlatSet<std::uint64_t> rst_pairs_;
  std::int64_t current_window_{0};
  util::Counter* m_packets_{nullptr};
  util::Counter* m_flagged_{nullptr};
};

}  // namespace svcdisc::passive
