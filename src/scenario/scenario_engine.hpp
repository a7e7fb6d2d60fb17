// Scenario engine: runs an expanded scenario case list through one
// core::SolverSession, so repeat (shape, operator) pairs reuse grids,
// side channels, thread pools and the tuning cache instead of paying
// construction per case.
//
// Per case the engine opens an obs trace span ("scenario.case"),
// observes the wall time into the scenario.case.seconds histogram, and
// — when telemetry is on — streams one model-vs-measured RunRow into
// the run database, tagged with the scenario and case ids.  That makes
// a scenario sweep land in the same tb_runs.jsonl rows the benches and
// examples write, with no new output format.
#pragma once

#include <string>
#include <vector>

#include "core/session.hpp"
#include "scenario/scenario_config.hpp"

namespace tb::scenario {

/// Outcome of one case.
struct CaseResult {
  CaseSpec spec;
  core::RunStats stats{};    ///< timing of the advance() call alone
  double wall_seconds = 0.0;  ///< the whole run_case: level-0 fill, solve,
                              ///< mean and telemetry
  bool reused = false;       ///< solver came from the session pool
  std::string resolved_variant;  ///< concrete variant after meta resolution
  std::string resolved_config;   ///< pipeline tunables that ran (resolved
                                 ///< depth included); empty when unblocked
  double mean = 0.0;         ///< mean of the final solution (sanity value)
};

/// Per-engine knobs beyond the session's.
struct EngineOptions {
  core::SessionOptions session{};
  bool print_cases = false;  ///< one stdout line per case (the runner's UI)
};

class ScenarioEngine {
 public:
  explicit ScenarioEngine(EngineOptions opts = {});

  /// Runs one case through the session.  Throws on invalid specs
  /// (unknown names, impossible geometry/operator combinations).
  CaseResult run_case(const CaseSpec& spec);

  /// Runs every case of the scenario in document order and returns the
  /// per-case results.  Run rows are tagged scenario=<config.name()>.
  std::vector<CaseResult> run(const ScenarioConfig& config);

  [[nodiscard]] core::SolverSession& session() { return session_; }

 private:
  EngineOptions opts_;
  core::SolverSession session_;
  std::string scenario_name_ = "unnamed";  ///< tags the run rows
};

/// Convenience entry the runner and the scenario-capable examples
/// share: load `path`, run every case with per-case stdout lines and a
/// summary, return a process exit code (0 ok, 1 on any error, printed
/// to stderr).  `tune_cache` seeds SessionOptions::tune_cache_path.
/// `consumers` are registered on the config before loading, so files
/// may carry their sections (e.g. "cluster" sweeps); a file consisting
/// only of consumer sections runs zero solver cases, which is fine.
int run_scenario_file(const std::string& path,
                      const std::string& tune_cache = {},
                      const std::vector<IScenarioConsumer*>& consumers = {});

}  // namespace tb::scenario
