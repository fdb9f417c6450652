#include "bench_common.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace svcdisc::bench {

std::optional<double> parse_scale(std::string_view text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value <= 0 || value > 1) {
    return std::nullopt;
  }
  return value;
}

double env_scale() {
  const char* env = std::getenv("SVCDISC_SCALE");
  if (!env) return 1.0;
  const auto scale = parse_scale(env);
  if (!scale) {
    std::fprintf(stderr,
                 "SVCDISC_SCALE: expected a number in (0, 1], got \"%s\"\n",
                 env);
    std::exit(2);
  }
  return *scale;
}

workload::CampusConfig apply_scale(workload::CampusConfig cfg) {
  const double scale = env_scale();
  if (scale == 1.0) return cfg;
  const auto s = [scale](std::uint32_t v) {
    return static_cast<std::uint32_t>(v * scale);
  };
  cfg.static_plain = s(cfg.static_plain);
  cfg.web_custom = s(cfg.web_custom);
  cfg.web_default = s(cfg.web_default);
  cfg.web_minimal = s(cfg.web_minimal);
  cfg.web_config = s(cfg.web_config);
  cfg.web_database = s(cfg.web_database);
  cfg.web_restricted = s(cfg.web_restricted);
  cfg.ssh_only = s(cfg.ssh_only);
  cfg.ftp_only = s(cfg.ftp_only);
  cfg.mysql_only = s(cfg.mysql_only);
  cfg.births = s(cfg.births);
  cfg.deaths = s(cfg.deaths);
  cfg.firewalled = s(cfg.firewalled);
  cfg.hot_services = s(cfg.hot_services);
  cfg.steady_services = s(cfg.steady_services);
  cfg.oneshot_services = s(cfg.oneshot_services);
  cfg.dhcp_hosts = s(cfg.dhcp_hosts);
  cfg.ppp_hosts = s(cfg.ppp_hosts);
  cfg.vpn_hosts = s(cfg.vpn_hosts);
  cfg.wireless_hosts = s(cfg.wireless_hosts);
  cfg.small_sweeps = s(cfg.small_sweeps);
  cfg.traffic_scale *= scale;
  return cfg;
}

std::vector<core::CampaignResult> run_campaigns(
    std::vector<core::CampaignJob> jobs, const std::string& label) {
  for (auto& job : jobs) {
    job.campus_cfg = apply_scale(std::move(job.campus_cfg));
  }
  const core::CampaignRunner runner;
  const std::size_t count = jobs.size();
  Stopwatch watch;
  auto results = runner.run(std::move(jobs));
  std::fprintf(stderr,
               "[bench] %s: %zu campaign(s) on %zu thread(s) took %.1f s\n",
               label.c_str(), count, runner.threads(), watch.elapsed_sec());
  for (const auto& result : results) {
    if (!result.ok()) {
      std::fprintf(stderr, "[bench] job '%s' failed: %s\n",
                   result.label.c_str(), result.error.c_str());
    }
  }
  return results;
}

Stopwatch::Stopwatch()
    : start_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count()) {}

double Stopwatch::elapsed_sec() const {
  const long long now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return static_cast<double>(now - start_ns_) / 1e9;
}

}  // namespace svcdisc::bench
