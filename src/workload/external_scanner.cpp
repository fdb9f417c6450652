#include "workload/external_scanner.h"

#include <algorithm>
#include <stdexcept>

namespace svcdisc::workload {

ExternalScannerFleet::ExternalScannerFleet(
    sim::Network& network,
    std::shared_ptr<const std::vector<net::Ipv4>> targets)
    : network_(network), targets_(std::move(targets)) {}

void ExternalScannerFleet::start() {
  if (started_) throw std::logic_error("ExternalScannerFleet: started twice");
  started_ = true;
  for (std::size_t i = 0; i < sweeps_.size(); ++i) {
    auto& sweep = sweeps_[i];
    if (sweep.last_target == 0 || sweep.last_target > targets_->size()) {
      sweep.last_target = targets_->size();
    }
    if (sweep.first_target >= sweep.last_target) continue;
    network_.simulator().at_timer(sweep.start, this,
                                  tick_tag(i, sweep.first_target));
  }
}

void ExternalScannerFleet::step(std::size_t sweep_index,
                                std::size_t target_index) {
  const SweepSpec& sweep = sweeps_[sweep_index];
  if (sweep.proto == net::Proto::kTcp) {
    network_.send(net::make_tcp(sweep.source, 55000, (*targets_)[target_index],
                                sweep.port, net::flags_syn()));
  } else {
    network_.send(net::make_udp(sweep.source, 55000, (*targets_)[target_index],
                                sweep.port, 0));
  }
  ++probes_sent_;
  const std::size_t next = target_index + 1;
  if (next >= sweep.last_target) return;
  network_.simulator().after_timer(util::seconds_f(1.0 / sweep.probes_per_sec),
                                   this, tick_tag(sweep_index, next));
}

std::vector<net::Ipv4> ExternalScannerFleet::scanner_sources() const {
  std::vector<net::Ipv4> sources;
  sources.reserve(sweeps_.size());
  for (const auto& sweep : sweeps_) sources.push_back(sweep.source);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  return sources;
}

}  // namespace svcdisc::workload
