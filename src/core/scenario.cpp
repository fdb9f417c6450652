#include "core/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "analysis/export.h"
#include "capture/impairment.h"
#include "core/categorize.h"
#include "core/completeness.h"
#include "core/report.h"
#include "passive/table_io.h"

namespace svcdisc::core {
namespace {

namespace fs = std::filesystem;

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return in.good() || in.eof();
}

// One scalar override read from JSON with type and range checking.
// `where` names the enclosing object in error messages.
class FieldReader {
 public:
  /// The range a numeric override must fall in.
  enum class Bound : std::uint8_t { kAny, kPositive, kNonNegative };

  FieldReader(const util::JsonValue& object, const char* where,
              std::string* error)
      : object_(object), where_(where), error_(error) {}

  /// True once any field failed to read.
  bool failed() const { return failed_; }
  /// Every key consumed by a read_* call (for unknown-key detection).
  const std::unordered_set<std::string>& seen() const { return seen_; }

  void read_u32(const char* key, std::uint32_t* out) {
    const util::JsonValue* v = take(key);
    if (!v) return;
    if (!v->is_integer() || v->as_integer() < 0 ||
        v->as_integer() > 0xFFFFFFFFLL) {
      fail(key, "a non-negative integer");
      return;
    }
    *out = static_cast<std::uint32_t>(v->as_integer());
  }

  /// Values outside int are rejected, never truncated.
  void read_int(const char* key, int* out, Bound bound = Bound::kAny) {
    static constexpr const char* kExpected[] = {
        "an integer in int range", "a positive integer",
        "a non-negative integer"};
    const util::JsonValue* v = take(key);
    if (!v) return;
    if (!v->is_integer() ||
        v->as_integer() < std::numeric_limits<int>::min() ||
        v->as_integer() > std::numeric_limits<int>::max() ||
        !within(static_cast<double>(v->as_integer()), bound)) {
      fail(key, kExpected[static_cast<int>(bound)]);
      return;
    }
    *out = static_cast<int>(v->as_integer());
  }

  void read_u64(const char* key, std::uint64_t* out) {
    const util::JsonValue* v = take(key);
    if (!v) return;
    if (!v->is_integer() || v->as_integer() < 0) {
      fail(key, "a non-negative integer");
      return;
    }
    *out = static_cast<std::uint64_t>(v->as_integer());
  }

  /// Non-finite values (a literal like 1e999 parses to inf) are rejected.
  void read_double(const char* key, double* out, Bound bound = Bound::kAny) {
    static constexpr const char* kExpected[] = {
        "a finite number", "a finite number > 0", "a finite number >= 0"};
    const util::JsonValue* v = take(key);
    if (!v) return;
    if (!v->is_number() || !std::isfinite(v->as_number()) ||
        !within(v->as_number(), bound)) {
      fail(key, kExpected[static_cast<int>(bound)]);
      return;
    }
    *out = v->as_number();
  }

  void read_bool(const char* key, bool* out) {
    const util::JsonValue* v = take(key);
    if (!v) return;
    if (!v->is_bool()) {
      fail(key, "true or false");
      return;
    }
    *out = v->as_bool();
  }

  void read_string(const char* key, std::string* out) {
    const util::JsonValue* v = take(key);
    if (!v) return;
    if (!v->is_string()) {
      fail(key, "a string");
      return;
    }
    *out = v->as_string();
  }

  /// After all reads: reject members no read_* consumed. A typoed key
  /// silently falling back to a default would make a golden lie.
  bool reject_unknown() {
    for (const auto& [key, value] : object_.members()) {
      if (!seen_.contains(key)) {
        if (error_) {
          *error_ = std::string(where_) + ": unknown key \"" + key + "\"";
        }
        failed_ = true;
        return false;
      }
    }
    return !failed_;
  }

 private:
  static bool within(double v, Bound bound) {
    return bound == Bound::kAny || v > 0 ||
           (bound == Bound::kNonNegative && v == 0);
  }

  const util::JsonValue* take(const char* key) {
    seen_.insert(key);
    return failed_ ? nullptr : object_.find(key);
  }

  void fail(const char* key, const char* expected) {
    if (error_ && !failed_) {
      *error_ = std::string(where_) + "." + key + ": expected " + expected;
    }
    failed_ = true;
  }

  const util::JsonValue& object_;
  const char* where_;
  std::string* error_;
  bool failed_{false};
  std::unordered_set<std::string> seen_;
};

bool apply_campus_overrides(const util::JsonValue& obj,
                            workload::CampusConfig* cfg,
                            std::string* error) {
  using Bound = FieldReader::Bound;
  FieldReader r(obj, "campus", error);
  double duration_days = -1;  // absent: the preset's duration
  r.read_double("duration_days", &duration_days, Bound::kPositive);
  r.read_u32("static_addresses", &cfg->static_addresses);
  r.read_u32("static_plain", &cfg->static_plain);
  r.read_u32("ssh_only", &cfg->ssh_only);
  r.read_u32("ftp_only", &cfg->ftp_only);
  r.read_u32("mysql_only", &cfg->mysql_only);
  r.read_u32("births", &cfg->births);
  r.read_u32("deaths", &cfg->deaths);
  r.read_u32("firewalled", &cfg->firewalled);
  r.read_u32("dhcp_hosts", &cfg->dhcp_hosts);
  r.read_u32("ppp_hosts", &cfg->ppp_hosts);
  r.read_u32("vpn_hosts", &cfg->vpn_hosts);
  r.read_u32("wireless_hosts", &cfg->wireless_hosts);
  r.read_u32("hot_services", &cfg->hot_services);
  r.read_u32("steady_services", &cfg->steady_services);
  r.read_u32("oneshot_services", &cfg->oneshot_services);
  r.read_double("traffic_scale", &cfg->traffic_scale);
  r.read_bool("external_scans", &cfg->external_scans);
  r.read_u32("small_sweeps", &cfg->small_sweeps);
  r.read_u32("prober_machines", &cfg->prober_machines);
  r.read_double("probe_rate_per_sec", &cfg->probe_rate_per_sec);
  r.read_bool("transient_blocks", &cfg->transient_blocks);
  r.read_bool("include_wireless_in_scan", &cfg->include_wireless_in_scan);
  // Hostile-network zoo.
  r.read_u32("middlebox_hosts", &cfg->middlebox_hosts);
  r.read_u32("tarpit_hosts", &cfg->tarpit_hosts);
  r.read_double("tarpit_delay_sec", &cfg->tarpit_delay_sec);
  r.read_u32("cgnat_hosts", &cfg->cgnat_hosts);
  r.read_u32("cgnat_addresses", &cfg->cgnat_addresses);
  r.read_double("cgnat_service_frac", &cfg->cgnat_service_frac);
  r.read_u32("iot_burst_hosts", &cfg->iot_burst_hosts);
  r.read_double("iot_burst_day", &cfg->iot_burst_day);
  r.read_double("iot_churn_frac", &cfg->iot_churn_frac);
  r.read_u32("outage_hosts", &cfg->outage_hosts);
  r.read_double("outage_day", &cfg->outage_day);
  r.read_double("outage_duration_hours", &cfg->outage_duration_hours);
  r.read_bool("outage_renumber", &cfg->outage_renumber);
  // Internet-scale universe.
  r.read_u32("scale_blocks", &cfg->scale_blocks);
  r.read_int("scale_block_bits", &cfg->scale_block_bits);
  r.read_double("scale_live_frac", &cfg->scale_live_frac);
  r.read_double("scale_service_frac", &cfg->scale_service_frac);
  r.read_double("scale_echo_frac", &cfg->scale_echo_frac);
  r.read_bool("scale_scan", &cfg->scale_scan);
  r.read_u32("scale_oneshot_contacts", &cfg->scale_oneshot_contacts);
  if (!r.reject_unknown()) return false;
  if (duration_days > 0) {
    cfg->duration = util::seconds_f(duration_days * 86400.0);
  }
  return true;
}

bool apply_engine_overrides(const util::JsonValue& obj, EngineConfig* cfg,
                            bool* scans_set, std::string* error) {
  using Bound = FieldReader::Bound;
  FieldReader r(obj, "engine", error);
  // -1: absent, keep the default.
  int scans = -1;
  double period_hours = -1;
  double offset_hours = -1;
  std::string prober = "fixed";
  r.read_int("scans", &scans, Bound::kNonNegative);
  r.read_double("scan_period_hours", &period_hours, Bound::kPositive);
  r.read_double("first_scan_offset_hours", &offset_hours,
                Bound::kNonNegative);
  r.read_bool("scanner_excluded_monitor", &cfg->scanner_excluded_monitor);
  r.read_bool("per_link_monitors", &cfg->per_link_monitors);
  r.read_string("prober", &prober);
  r.read_u64("probe_budget", &cfg->adaptive.probe_budget);
  r.read_bool("adaptive_verify", &cfg->adaptive.verify);
  if (!r.reject_unknown()) return false;
  if (prober == "adaptive") {
    cfg->adaptive_prober = true;
  } else if (prober != "fixed") {
    if (error) *error = "engine.prober: expected \"fixed\" or \"adaptive\"";
    return false;
  }
  if (!cfg->adaptive_prober &&
      (obj.find("probe_budget") || obj.find("adaptive_verify"))) {
    if (error) {
      *error = "engine.probe_budget/adaptive_verify require "
               "\"prober\": \"adaptive\"";
    }
    return false;
  }
  if (scans >= 0) {
    cfg->scan_count = scans;
    *scans_set = true;
  }
  if (period_hours > 0) cfg->scan_period = util::seconds_f(period_hours * 3600);
  if (offset_hours >= 0) {
    cfg->first_scan_offset = util::seconds_f(offset_hours * 3600);
  }
  return true;
}

bool apply_impairment(const util::JsonValue& obj, EngineConfig* cfg,
                      std::string* error) {
  FieldReader r(obj, "impairment", error);
  std::string model = "iid";
  double rate_pct = 0;
  double mean_burst_len = 4.0;
  std::uint64_t seed = 0x1347c0ffeeULL;
  r.read_string("model", &model);
  r.read_double("rate_pct", &rate_pct);
  r.read_double("mean_burst_len", &mean_burst_len);
  r.read_u64("seed", &seed);
  if (!r.reject_unknown()) return false;
  if (rate_pct < 0 || rate_pct >= 100) {
    if (error) *error = "impairment.rate_pct: expected 0 <= pct < 100";
    return false;
  }
  if (model == "iid") {
    cfg->impairment = capture::ImpairmentConfig::iid(rate_pct / 100.0, seed);
  } else if (model == "bursty") {
    cfg->impairment = capture::ImpairmentConfig::bursty(
        rate_pct / 100.0, mean_burst_len, seed);
  } else {
    if (error) *error = "impairment.model: expected \"iid\" or \"bursty\"";
    return false;
  }
  return true;
}

// Rendered only after the ledger audit passed, hence "audit ok".
std::string render_summary(const ScenarioSpec& spec,
                           const CampaignResult& result) {
  const auto end = util::kEpoch + result.campus->config().duration;
  const auto passive =
      addresses_found(result.engine->monitor().table(), end);
  const auto active = addresses_found(result.engine->prober().table(), end);
  const Completeness c = completeness(passive, active);

  std::ostringstream out;
  out << "scenario " << spec.name << " seed " << result.seed << "\n";
  char line[160];
  std::snprintf(line, sizeof(line),
                "preset %s duration_days %.3f scan_targets %zu scans %zu\n",
                spec.preset.c_str(), result.campus->config().duration.days(),
                result.campus->scan_targets().size(),
                result.engine->prober().scans().size());
  out << line;
  out << "completeness union=" << c.union_count << " both=" << c.both
      << " active_only=" << c.active_only
      << " passive_only=" << c.passive_only
      << " active_total=" << c.active_total
      << " passive_total=" << c.passive_total << "\n";

  std::uint64_t by_category[4] = {0, 0, 0, 0};
  for (const net::Ipv4 addr : result.campus->scan_targets()) {
    const ShortCategory cat =
        short_category(passive.contains(addr), active.contains(addr));
    ++by_category[static_cast<std::size_t>(cat)];
  }
  out << "categorization";
  for (int cat = 0; cat < 4; ++cat) {
    out << " " << short_category_label(static_cast<ShortCategory>(cat))
        << "=" << by_category[cat];
  }
  out << "\n";

  // Service-level table sizes: this is where the middlebox scenario's
  // active-vs-passive inflation is locked in — a SYN-ACK-everything box
  // adds (ports x addresses) phantom services to the active table only.
  out << "passive services " << result.engine->monitor().table().size()
      << " addresses " << passive.size() << "\n";
  out << "active services " << result.engine->prober().table().size()
      << " addresses " << active.size() << "\n";
  out << "scanners flagged "
      << result.engine->scan_detector().scanner_count() << "\n";
  out << "provenance services " << result.provenance->size()
      << " audit ok\n";
  return out.str();
}

}  // namespace

const std::string* ScenarioArtifacts::find(std::string_view name) const {
  for (const auto& [file, bytes] : files) {
    if (file == name) return &bytes;
  }
  return nullptr;
}

bool load_scenario(const std::string& dir, ScenarioSpec* spec,
                   std::string* error) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    if (error) *error = dir + ": not a scenario directory";
    return false;
  }
  const std::string spec_path = (fs::path(dir) / "scenario.json").string();
  std::string text;
  if (!read_file(spec_path, &text)) {
    if (error) *error = spec_path + ": cannot read";
    return false;
  }
  std::string parse_error;
  const auto json = util::parse_json(text, &parse_error);
  if (!json) {
    if (error) *error = spec_path + ": " + parse_error;
    return false;
  }
  ScenarioSpec out;
  out.dir = dir;
  out.name = fs::path(dir).filename().string();
  if (out.name.empty()) {  // trailing slash
    out.name = fs::path(dir).parent_path().filename().string();
  }
  if (!scenario_from_json(*json, &out, error)) return false;
  *spec = std::move(out);
  return true;
}

bool scenario_from_json(const util::JsonValue& json, ScenarioSpec* spec,
                        std::string* error) {
  if (!json.is_object()) {
    if (error) *error = "scenario: top level must be an object";
    return false;
  }
  ScenarioSpec out;
  out.dir = spec->dir;
  out.name = spec->name;

  FieldReader r(json, "scenario", error);
  std::uint64_t seed = 0;
  r.read_string("name", &out.name);
  r.read_string("description", &out.description);
  r.read_string("preset", &out.preset);
  r.read_u64("seed", &seed);
  if (r.failed()) return false;

  // Top-level unknown keys (the nested objects are validated by their
  // own readers below).
  static const std::unordered_set<std::string> kTopLevel{
      "name", "description", "preset", "seed",
      "campus", "engine", "impairment"};
  for (const auto& [key, value] : json.members()) {
    if (!kTopLevel.contains(key)) {
      if (error) *error = "scenario: unknown key \"" + key + "\"";
      return false;
    }
  }

  const workload::Preset* preset = workload::find_preset(out.preset);
  if (!preset) {
    if (error) {
      *error = "scenario.preset: unknown preset \"" + out.preset + "\"";
    }
    return false;
  }
  out.campus = preset->make();
  if (const util::JsonValue* campus_obj = json.find("campus")) {
    if (!campus_obj->is_object()) {
      if (error) *error = "scenario.campus: expected an object";
      return false;
    }
    if (!apply_campus_overrides(*campus_obj, &out.campus, error)) {
      return false;
    }
  }
  // Absent: the preset's default seed.
  if (json.find("seed")) out.campus.seed = seed;

  bool scans_set = false;
  if (const util::JsonValue* engine_obj = json.find("engine")) {
    if (!engine_obj->is_object()) {
      if (error) *error = "scenario.engine: expected an object";
      return false;
    }
    if (!apply_engine_overrides(*engine_obj, &out.engine, &scans_set,
                                error)) {
      return false;
    }
  }
  if (!scans_set) {
    // The default schedule: two 12-hourly scans per simulated day.
    out.engine.scan_count = static_cast<int>(out.campus.duration.days() * 2);
  }
  if (const util::JsonValue* impairment_obj = json.find("impairment")) {
    if (!impairment_obj->is_object()) {
      if (error) *error = "scenario.impairment: expected an object";
      return false;
    }
    if (!apply_impairment(*impairment_obj, &out.engine, error)) return false;
  }

  *spec = std::move(out);
  return true;
}

CampaignJob scenario_job(const ScenarioSpec& spec) {
  CampaignJob job;
  job.campus_cfg = spec.campus;
  job.engine_cfg = spec.engine;
  job.seed = spec.campus.seed;
  job.label = spec.name;
  return job;
}

bool audit_provenance(const CampaignResult& result, std::string* error) {
  const ProvenanceAudit audit = result.provenance->audit(
      result.engine->monitor().table(), result.engine->prober().table());
  if (audit.ok()) return true;
  if (error) {
    std::ostringstream msg;
    msg << "provenance audit failed (" << audit.matched << " matched, "
        << audit.missing_in_ledger << " missing, " << audit.extra_in_ledger
        << " extra, " << audit.time_mismatch << " time mismatches)";
    *error = msg.str();
  }
  return false;
}

bool run_scenario(const ScenarioSpec& spec, ScenarioArtifacts* out,
                  std::string* error) {
  CampaignJob job = scenario_job(spec);
  job.provenance = true;
  std::vector<CampaignJob> jobs;
  jobs.push_back(std::move(job));
  auto results = CampaignRunner(1).run(std::move(jobs));
  CampaignResult& result = results.at(0);
  if (!result.ok()) {
    if (error) *error = spec.name + ": campaign failed: " + result.error;
    return false;
  }
  std::string audit_error;
  if (!audit_provenance(result, &audit_error)) {
    if (error) *error = spec.name + ": " + audit_error;
    return false;
  }

  ScenarioArtifacts artifacts;
  artifacts.files.emplace_back("summary.txt",
                               render_summary(spec, result));
  {
    std::ostringstream tsv;
    passive::save_table(result.engine->monitor().table(), tsv);
    artifacts.files.emplace_back("passive_table.tsv", tsv.str());
  }
  {
    std::ostringstream tsv;
    passive::save_table(result.engine->prober().table(), tsv);
    artifacts.files.emplace_back("active_table.tsv", tsv.str());
  }
  {
    analysis::MetricsExport e;
    e.label = result.label;
    e.seed = result.seed;
    e.snapshot = &result.snapshot;  // wall_sec stays < 0: omitted
    artifacts.files.emplace_back("metrics.json",
                                 analysis::metrics_to_json({e}));
  }
  artifacts.files.emplace_back("provenance.jsonl",
                               result.provenance->to_jsonl());
  *out = std::move(artifacts);
  return true;
}

namespace {

// First 1-based line where `want` and `got` diverge, plus both lines.
void first_diverging_line(const std::string& want, const std::string& got,
                          ScenarioMismatch* m) {
  std::istringstream want_in(want);
  std::istringstream got_in(got);
  std::string want_line;
  std::string got_line;
  std::size_t line = 0;
  while (true) {
    const bool have_want = static_cast<bool>(std::getline(want_in, want_line));
    const bool have_got = static_cast<bool>(std::getline(got_in, got_line));
    ++line;
    if (!have_want && !have_got) break;  // differ only in trailing bytes
    if (!have_want || !have_got || want_line != got_line) {
      m->line = line;
      m->want = have_want ? want_line : "<end of file>";
      m->got = have_got ? got_line : "<end of file>";
      return;
    }
  }
  m->line = 0;  // identical line-wise; e.g. trailing-newline difference
}

}  // namespace

std::string VerifyReport::to_string() const {
  std::ostringstream out;
  for (const ScenarioMismatch& m : mismatches) {
    out << m.file << ": " << m.reason;
    if (m.line > 0) {
      out << " at line " << m.line << "\n  expected: " << m.want
          << "\n  actual:   " << m.got;
    }
    out << "\n";
  }
  return out.str();
}

VerifyReport verify_scenario(const ScenarioSpec& spec,
                             const ScenarioArtifacts& got) {
  VerifyReport report;
  const fs::path expected_dir = fs::path(spec.dir) / "expected";
  for (const auto& [file, bytes] : got.files) {
    ScenarioMismatch m;
    m.file = file;
    std::string want;
    if (!read_file((expected_dir / file).string(), &want)) {
      m.reason = "missing golden file (record with `scenario record`)";
      report.mismatches.push_back(std::move(m));
      continue;
    }
    if (want == bytes) continue;
    m.reason = "differs from golden";
    first_diverging_line(want, bytes, &m);
    report.mismatches.push_back(std::move(m));
  }
  return report;
}

bool record_scenario(const ScenarioSpec& spec,
                     const ScenarioArtifacts& artifacts, bool force,
                     std::string* error) {
  const fs::path expected_dir = fs::path(spec.dir) / "expected";
  if (!force) {
    for (const auto& [file, bytes] : artifacts.files) {
      std::error_code ec;
      if (fs::exists(expected_dir / file, ec)) {
        if (error) {
          *error = (expected_dir / file).string() +
                   ": golden exists (use --force to re-record)";
        }
        return false;
      }
    }
  }
  std::error_code ec;
  fs::create_directories(expected_dir, ec);
  if (ec) {
    if (error) *error = expected_dir.string() + ": " + ec.message();
    return false;
  }
  for (const auto& [file, bytes] : artifacts.files) {
    std::ofstream out(expected_dir / file, std::ios::binary);
    out << bytes;
    if (!out) {
      if (error) *error = (expected_dir / file).string() + ": write failed";
      return false;
    }
  }
  return true;
}

std::vector<std::string> discover_scenarios(const std::string& root) {
  std::vector<std::string> dirs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory()) continue;
    std::error_code exists_ec;
    if (fs::exists(entry.path() / "scenario.json", exists_ec)) {
      dirs.push_back(entry.path().string());
    }
  }
  std::sort(dirs.begin(), dirs.end());
  return dirs;
}

}  // namespace svcdisc::core
