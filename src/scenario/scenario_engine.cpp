#include "scenario/scenario_engine.hpp"

#include <cstdio>
#include <utility>

#include "core/registry.hpp"
#include "obs/accounting.hpp"
#include "obs/registry.hpp"
#include "obs/rundb.hpp"
#include "obs/trace.hpp"
#include "perfmodel/model_api.hpp"
#include "scenario/grids.hpp"
#include "topo/machine.hpp"
#include "util/timer.hpp"

namespace tb::scenario {

namespace {

/// SolverConfig for a case: physics knobs and the thread count mapped
/// onto every variant's block (the registry then picks whichever the
/// variant reads).  Block defaults mirror the quickstart example.  The
/// pipeline depth T stays unset: SolverSession::solve resolves it to the
/// model's choice for the case's step count (core::resolve_depth).
core::SolverConfig config_for(const CaseSpec& spec) {
  core::SolverConfig cfg;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = spec.threads;
  cfg.pipeline.block = {spec.nx, 16, 16};
  cfg.baseline.threads = spec.threads;
  cfg.wavefront.threads = spec.threads;
  cfg.lbm.omega = spec.omega;
  cfg.lbm.lid_velocity = {spec.ulid, 0.0, 0.0};
  cfg.lbm_geometry_from_aux = geometry_is_codes(spec);
  return cfg;
}

// Must stay a serial sum in k/j/i order: perfbench's engine_mean
// (perfbench/driver/check.hpp) mirrors it bit for bit to check
// CaseResult::mean, so a parallel or reordered sum breaks that check.
double solution_mean(const core::Grid3& g) {
  double sum = 0.0;
  for (int k = 0; k < g.nz(); ++k)
    for (int j = 0; j < g.ny(); ++j)
      for (int i = 0; i < g.nx(); ++i) sum += g.at(i, j, k);
  return sum / static_cast<double>(g.size());
}

}  // namespace

ScenarioEngine::ScenarioEngine(EngineOptions opts)
    : opts_(std::move(opts)), session_(opts_.session) {}

CaseResult ScenarioEngine::run_case(const CaseSpec& spec) {
  const obs::Span span("scenario.case", "scenario");
  obs::ScopedTimer timer(
      obs::enabled()
          ? &obs::Registry::global().histogram("scenario.case.seconds")
          : nullptr);
  const util::Timer wall;

  // Row sources, not grids: the pooled solver writes level 0 (and the
  // aux field it decodes) itself, on its own team.
  core::SolveRequest req;
  req.variant = spec.variant;
  req.op = spec.op;
  req.cfg = config_for(spec);
  req.initial = level0(spec);
  req.aux = aux_source(spec);
  req.steps = spec.steps;

  const core::SolveResult solved = session_.solve(req);

  CaseResult out;
  out.spec = spec;
  out.stats = solved.stats;
  out.reused = solved.reused;
  if (solved.solver != nullptr) {
    const core::SolverConfig& rcfg = solved.solver->config();
    out.resolved_variant = core::variant_name(rcfg);
    if (rcfg.variant == core::Variant::kPipelined)
      out.resolved_config = rcfg.pipeline.describe();
    out.mean = solution_mean(solved.solver->solution());
  }

  if (obs::enabled() && solved.solver != nullptr) {
    // Same model-vs-measured row the examples append, so one run
    // database holds benches, examples and scenario sweeps uniformly.
    const core::SolverConfig& rcfg = solved.solver->config();
    const std::string opname = core::operator_name(rcfg);
    const perfmodel::NodeModel model(topo::host_machine());
    obs::RunRow row;
    row.name = spec.name;
    row.bytes_per_lup = obs::model_bytes_per_lup(rcfg, opname);
    row.mlups = solved.stats.mlups();
    row.predicted_mlups = obs::predicted_solver_mlups(rcfg, opname, model,
                                                      spec.nx, spec.ny);
    row.phases = obs::phase_seconds_snapshot();
    row.tags = {{"scenario", scenario_name_},
                {"op", opname},
                {"variant", out.resolved_variant},
                {"reused", solved.reused ? "1" : "0"}};
    if (!out.resolved_config.empty())
      row.tags.emplace_back("config", out.resolved_config);
    obs::append_run_rows(obs::default_rundb_path(), {row});
  }

  out.wall_seconds = wall.elapsed();
  if (opts_.print_cases)
    std::printf("  %-44s %7.3f s wall %7.3f s advance %8.1f MLUP/s%s%s%s\n",
                spec.name.c_str(), out.wall_seconds, out.stats.seconds,
                out.stats.mlups(), out.reused ? "  (pool hit)" : "",
                out.resolved_config.empty() ? "" : "  ",
                out.resolved_config.c_str());
  return out;
}

std::vector<CaseResult> ScenarioEngine::run(const ScenarioConfig& config) {
  scenario_name_ = config.name();
  std::vector<CaseResult> results;
  results.reserve(config.cases().size());
  for (const CaseSpec& spec : config.cases())
    results.push_back(run_case(spec));
  return results;
}

void run_scenario_file(const std::string& path,
                       const std::string& tune_cache,
                       const std::vector<IScenarioConsumer*>& consumers) {
  ScenarioConfig config;
  for (IScenarioConsumer* c : consumers) config.register_consumer(c);
  // Consumer sections (cluster sweeps etc.) run during the load.
  config.load_file(path);

  EngineOptions opts;
  opts.print_cases = true;
  opts.session.tune_cache_path = tune_cache;
  ScenarioEngine engine(opts);

  std::printf("scenario %s: %zu cases\n", config.name().c_str(),
              config.cases().size());
  const std::vector<CaseResult> results = engine.run(config);

  double wall = 0.0, advance = 0.0;
  for (const CaseResult& r : results) {
    wall += r.wall_seconds;
    advance += r.stats.seconds;
  }
  const core::SolverSession& session = engine.session();
  std::printf(
      "scenario %s done: %zu cases in %.3f s wall (%.3f s advance), "
      "%llu solvers built, %llu pool hits\n",
      config.name().c_str(), results.size(), wall, advance,
      static_cast<unsigned long long>(session.solvers_created()),
      static_cast<unsigned long long>(session.solvers_reused()));
}

}  // namespace tb::scenario
