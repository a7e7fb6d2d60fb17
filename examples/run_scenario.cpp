// Scenario runner: executes a JSON scenario file — a whole batch of
// (operator, variant, shape) cases, sweeps and repeats — through ONE
// re-entrant solver session in one process.
//
//   $ ./run_scenario --scenario scenarios/sweep.json
//
// Repeat (shape, config) pairs reuse the pooled solver (grids, side
// channels, thread pools) via StencilSolver::reset, and "auto" cases
// share the session's tuning cache, so repeat shapes replay their plan
// with zero probes.  With TB_TELEMETRY=1 every case appends one
// model-vs-measured row to the run database ($TB_RUNDB) and records a
// scenario.case trace span — the same sinks the benches and examples
// use.  This binary replaces the one-main()-per-workload pattern: new
// workloads are .json files under scenarios/, not new C++.
#include <stdexcept>
#include <string>

#include "scenario/cluster_section.hpp"
#include "scenario/scenario_engine.hpp"
#include "tune/planner.hpp"  // linking tb_tune registers --variant auto
#include "util/args.hpp"

namespace {

int run(const tb::util::Args& args) {
  const std::string scenario =
      args.get("scenario", "", "scenario file to run (required)");
  const std::string tune_cache = args.get(
      "tune-cache", "", "tuning cache of \"auto\" cases (\"\": default)");
  args.finish();
  if (scenario.empty())
    throw std::invalid_argument("--scenario <file.json> is required");
  // "cluster" sections route modeled scaling sweeps through the
  // discrete-event simnet backend; their rows land in BENCH_simnet.json
  // (and the run database when telemetry is on) next to the case rows.
  tb::scenario::ClusterSection cluster({/*verbose=*/true,
                                        /*bench=*/"simnet"});
  tb::scenario::run_scenario_file(scenario, tune_cache, {&cluster});
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return tb::util::run_main(argc, argv, run); }
