#include "figures.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "core/scenario.h"
#include "util/json.h"

namespace svcdisc::bench {
namespace {

// `over` merged into `base`: objects merge member by member, any other
// value replaces.
util::JsonValue merge(const util::JsonValue& base,
                      const util::JsonValue& over) {
  if (!base.is_object() || !over.is_object()) return over;
  std::vector<std::pair<std::string, util::JsonValue>> members;
  for (const auto& [key, value] : base.members()) {
    const util::JsonValue* replacement = over.find(key);
    members.emplace_back(key, replacement ? merge(value, *replacement)
                                          : value);
  }
  for (const auto& [key, value] : over.members()) {
    if (!base.find(key)) members.emplace_back(key, value);
  }
  return util::JsonValue::make_object(std::move(members));
}

bool parse(const std::string& text, const std::string& where,
           util::JsonValue* out, std::string* error) {
  std::string parse_error;
  auto json = util::parse_json(text, &parse_error);
  if (!json) {
    *error = where + ": " + parse_error;
    return false;
  }
  *out = std::move(*json);
  return true;
}

// The run's campaign as a job: its pack's document with the overrides
// merged in, resolved by the scenario loader.
bool resolve(const Run& run, const std::string& pack_root,
             core::CampaignJob* job, std::string* error) {
  const std::string dir = pack_root + "/" + run.pack;
  const std::string path = dir + "/scenario.json";
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = path + ": cannot read";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  util::JsonValue doc;
  if (!parse(text.str(), path, &doc, error)) return false;
  if (!run.overrides.empty()) {
    util::JsonValue over;
    if (!parse(run.overrides, "overrides", &over, error)) return false;
    doc = merge(doc, over);
  }
  core::ScenarioSpec spec;
  spec.dir = dir;
  spec.name = run.pack;
  if (!core::scenario_from_json(doc, &spec, error)) return false;
  *job = core::scenario_job(spec);
  return true;
}

}  // namespace

std::vector<Report> all_reports() {
  std::vector<Report> reports = table_reports();
  for (auto* family : {&figure_reports, &ablation_reports}) {
    for (Report& report : family()) reports.push_back(std::move(report));
  }
  return reports;
}

bool plan_jobs(const std::vector<Report>& reports,
               const std::string& pack_root, Plan* plan, std::string* error) {
  Plan out;
  std::map<std::pair<std::string, std::string>, std::size_t> shared;
  std::vector<std::vector<Hook>> setups;
  for (const Report& report : reports) {
    std::vector<std::size_t>& jobs = out.job_of.emplace_back();
    for (const Run& run : report.runs) {
      const auto key = std::make_pair(run.pack, run.overrides);
      if (!run.drive) {
        if (const auto it = shared.find(key); it != shared.end()) {
          jobs.push_back(it->second);
          if (run.setup) setups[it->second].push_back(run.setup);
          continue;
        }
      }
      core::CampaignJob job;
      if (!resolve(run, pack_root, &job, error)) {
        *error = report.name + ": " + *error;
        return false;
      }
      job.label = run.pack + (run.overrides.empty() ? "" : " " + run.overrides);
      if (run.drive) {
        job.label += " (" + report.name + " drive)";
        job.drive = run.drive;
      } else {
        shared.emplace(key, out.jobs.size());
      }
      jobs.push_back(out.jobs.size());
      out.jobs.push_back(std::move(job));
      setups.emplace_back();
      if (run.setup) setups.back().push_back(run.setup);
    }
  }
  for (std::size_t i = 0; i < out.jobs.size(); ++i) {
    if (setups[i].empty()) continue;
    out.jobs[i].setup = [hooks = std::move(setups[i])](
                            workload::Campus& campus,
                            core::DiscoveryEngine& engine) {
      for (const Hook& hook : hooks) hook(campus, engine);
    };
  }
  *plan = std::move(out);
  return true;
}

void on_each_discovery(
    core::DiscoveryEngine& engine,
    std::function<void(const passive::ServiceKey&, util::TimePoint)> fn) {
  const auto chain = [&fn](auto& slot) {
    slot = [prev = std::move(slot), fn](const passive::ServiceKey& key,
                                        util::TimePoint t) {
      if (prev) prev(key, t);
      fn(key, t);
    };
  };
  chain(engine.monitor().on_discovery);
  chain(engine.prober().on_discovery);
}

void print_header(const std::string& title,
                  const core::CampaignResult& result) {
  const auto& cfg = result.campus->config();
  std::printf("== %s ==\n", title.c_str());
  std::printf(
      "scenario: %zu probe targets, %.0f-day campaign, seed %llu\n\n",
      result.campus->scan_targets().size(), cfg.duration.days(),
      static_cast<unsigned long long>(cfg.seed));
}

}  // namespace svcdisc::bench
