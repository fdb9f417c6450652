#include "active/scan_scheduler.h"

#include <stdexcept>

#include "util/logging.h"

namespace svcdisc::active {

ScanScheduler::ScanScheduler(sim::Simulator& sim, Prober& prober,
                             ScanSpec spec, ScheduleConfig schedule)
    : sim_(sim), prober_(prober), spec_(std::move(spec)),
      schedule_(schedule) {}

void ScanScheduler::arm() {
  if (armed_) throw std::logic_error("ScanScheduler: already armed");
  armed_ = true;
  for (int i = 0; i < schedule_.count; ++i) {
    sim_.at_timer(schedule_.first_scan + schedule_.period * i, this);
  }
}

void ScanScheduler::on_timer(std::uint64_t /*tag*/) { fire(); }

void ScanScheduler::fire() {
  if (prober_.scan_in_progress()) {
    ++skipped_;
    SVCDISC_LOG(kWarn) << "scan firing skipped: previous scan in flight";
    return;
  }
  ++fired_;
  prober_.start_scan(spec_, [this](const ScanRecord& record) {
    if (on_scan_complete) on_scan_complete(record);
  });
}

}  // namespace svcdisc::active
