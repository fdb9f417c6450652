// External (potentially malicious) scanners sweeping the campus.
//
// The paper finds these scans are "an unexpected ally to passive
// monitoring" (§4.3): a wide sweep elicits SYN-ACKs from otherwise idle
// servers, which the border tap then sees. A fleet holds a set of sweep
// events; each sweep walks a slice of the campus address space on one
// port at a fixed probe rate from one external source address.
//
// Scanners are fire-and-forget sources: they need no packet sink, and
// responses to them (SYN-ACKs and the RSTs that feed the scan detector)
// are dropped at the unattached external address after crossing the tap.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "net/ports.h"
#include "sim/network.h"
#include "util/sim_time.h"

namespace svcdisc::workload {

/// One sweep of (a slice of) the campus space on one port.
struct SweepSpec {
  net::Ipv4 source{};              ///< external scanner address
  util::TimePoint start{};
  net::Port port{net::kPortSsh};
  net::Proto proto{net::Proto::kTcp};
  double probes_per_sec{40.0};
  /// Indices [first_target, last_target) into the fleet's target list;
  /// last_target 0 means "through the end".
  std::size_t first_target{0};
  std::size_t last_target{0};
};

class ExternalScannerFleet final : public sim::TimerTarget {
 public:
  /// `targets` is the campus address list sweeps index into, shared
  /// with its owner.
  ExternalScannerFleet(sim::Network& network,
                       std::shared_ptr<const std::vector<net::Ipv4>> targets);

  void add_sweep(SweepSpec spec) { sweeps_.push_back(spec); }
  const std::vector<SweepSpec>& sweeps() const { return sweeps_; }

  /// Schedules every sweep with the simulator. Call once.
  void start();

  std::uint64_t probes_sent() const { return probes_sent_; }
  /// Distinct scanner source addresses (ground truth for the scan
  /// detector's precision/recall tests).
  std::vector<net::Ipv4> scanner_sources() const;

  // sim::TimerTarget — probe ticks; the tag packs (sweep, target).
  void on_timer(std::uint64_t tag) override {
    step(static_cast<std::size_t>(tag >> 32),
         static_cast<std::size_t>(tag & 0xFFFFFFFFu));
  }

 private:
  static std::uint64_t tick_tag(std::size_t sweep_index,
                                std::size_t target_index) {
    return (static_cast<std::uint64_t>(sweep_index) << 32) |
           static_cast<std::uint64_t>(target_index);
  }

  void step(std::size_t sweep_index, std::size_t target_index);

  sim::Network& network_;
  std::shared_ptr<const std::vector<net::Ipv4>> targets_;
  std::vector<SweepSpec> sweeps_;
  std::uint64_t probes_sent_{0};
  bool started_{false};
};

}  // namespace svcdisc::workload
