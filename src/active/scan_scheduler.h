// Periodic scan scheduling (paper §3.1: "active probes every 12 hours",
// each scan starting 11:00 / 23:00).
//
// The scheduler fires a fresh scan at a fixed period until `count` scans
// have run. If a previous scan is somehow still in flight at the next
// firing (only possible with extreme rate limits), that firing is
// skipped and counted, keeping scan start times aligned to the schedule
// as in the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "active/prober.h"
#include "sim/simulator.h"
#include "util/sim_time.h"

namespace svcdisc::active {

struct ScheduleConfig {
  util::TimePoint first_scan{util::kEpoch};
  util::Duration period{util::hours(12)};
  int count{1};
};

class ScanScheduler final : public sim::TimerTarget {
 public:
  /// `spec` is reused for every scan, and every scan shares its one
  /// target list. The scheduler does not own the prober; both must
  /// outlive the simulation run.
  ScanScheduler(sim::Simulator& sim, Prober& prober, ScanSpec spec,
                ScheduleConfig schedule);
  /// The same, every scan probing the shared list `targets` in place of
  /// spec.targets, which is not read.
  ScanScheduler(sim::Simulator& sim, Prober& prober, ScanSpec spec,
                std::shared_ptr<const std::vector<net::Ipv4>> targets,
                ScheduleConfig schedule);

  /// Registers all scan firings with the simulator. Call once.
  void arm();

  int fired() const { return fired_; }
  int skipped() const { return skipped_; }

  /// Invoked when each scan completes.
  std::function<void(const ScanRecord&)> on_scan_complete;

  // sim::TimerTarget — one timer event per scheduled scan firing.
  void on_timer(std::uint64_t tag) override;

 private:
  void fire();

  sim::Simulator& sim_;
  Prober& prober_;
  ScanSpec spec_;  // its targets are in targets_
  std::shared_ptr<const std::vector<net::Ipv4>> targets_;
  ScheduleConfig schedule_;
  int fired_{0};
  int skipped_{0};
  bool armed_{false};
};

}  // namespace svcdisc::active
