// Scenario packs: self-contained, replayable workload bundles.
//
// A scenario is a directory holding a `scenario.json` spec (dataset
// preset + campus/engine/impairment overrides + seed) and, once
// recorded, an `expected/` subdirectory of golden artifacts. Running a
// scenario executes one deterministic campaign and renders every
// artifact the campaign publishes through the repo's byte-identical
// serializers:
//
//   summary.txt       completeness/categorization/table-size digest
//   passive_table.tsv the passive monitor's service table (table_io)
//   active_table.tsv  the prober's service table (table_io)
//   metrics.json      the metrics snapshot (wall time omitted)
//   provenance.jsonl  the evidence ledger, audited against the tables
//
// verify compares a fresh run byte-for-byte against the goldens —
// because a campaign is a pure function of (config, seed), any diff is
// a real behavioural change. The checked-in zoo under tests/scenarios/
// is enumerated into ctest under the `scenario` label, making every
// network shape a standing regression. See DESIGN.md §12.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "workload/campus.h"

namespace svcdisc::core {

/// Artifact filenames in render order (fixed: goldens and reports stay
/// diffable across scenarios).
inline constexpr const char* kScenarioArtifactNames[] = {
    "summary.txt", "passive_table.tsv", "active_table.tsv", "metrics.json",
    "provenance.jsonl"};

/// A parsed scenario.json mapped onto the existing config structs.
struct ScenarioSpec {
  std::string dir;   ///< directory the spec was loaded from
  std::string name;  ///< defaults to the directory basename
  std::string description;
  std::string preset{"tiny"};
  workload::CampusConfig campus;  ///< preset with overrides applied
  EngineConfig engine;            ///< scan schedule + impairment resolved
};

/// Everything one scenario run produces, rendered to bytes.
struct ScenarioArtifacts {
  std::vector<std::pair<std::string, std::string>> files;

  const std::string* find(std::string_view name) const;
};

/// Loads `dir`/scenario.json. On failure returns false and describes the
/// problem (missing directory, malformed JSON with line/col, unknown
/// key, bad value) in `*error`.
bool load_scenario(const std::string& dir, ScenarioSpec* spec,
                   std::string* error);

/// Runs the campaign the spec describes and renders all artifacts. The
/// provenance ledger is audited 1:1 against the final tables before
/// export; an audit failure is a run error.
bool run_scenario(const ScenarioSpec& spec, ScenarioArtifacts* out,
                  std::string* error);

/// One artifact's divergence from its golden.
struct ScenarioMismatch {
  std::string file;
  std::string reason;  ///< "missing golden file" or "differs"
  std::size_t line{0};           ///< 1-based first diverging line (0 = n/a)
  std::string want;              ///< the golden's line
  std::string got;               ///< the fresh run's line
};

struct VerifyReport {
  std::vector<ScenarioMismatch> mismatches;

  bool ok() const { return mismatches.empty(); }
  /// Human-readable report, one mismatch per paragraph.
  std::string to_string() const;
};

/// Byte-compares `got` against the goldens under `spec.dir`/expected/.
VerifyReport verify_scenario(const ScenarioSpec& spec,
                             const ScenarioArtifacts& got);

/// Writes `artifacts` as the goldens under `spec.dir`/expected/. Refuses
/// to overwrite existing goldens unless `force` (re-recording must be a
/// deliberate act — it redefines what "correct" means).
bool record_scenario(const ScenarioSpec& spec,
                     const ScenarioArtifacts& artifacts, bool force,
                     std::string* error);

/// Subdirectories of `root` containing a scenario.json, sorted by name.
std::vector<std::string> discover_scenarios(const std::string& root);

}  // namespace svcdisc::core
