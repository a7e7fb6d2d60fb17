// Quickstart: solve a 3-D boundary value problem with pipelined temporal
// blocking in ~40 lines.
//
//   $ ./quickstart [--n 128] [--steps 64] [--teams 1] [--threads 2] [--T 2]
//                  [--variant pipelined] [--operator jacobi]
//   $ ./quickstart --scenario scenarios/quickstart.json
//
// Sets up a cubic domain with a hot x=0 face, advances `steps` sweeps of
// the selected (variant, operator) combination — any registry pair works,
// e.g. --variant wavefront --operator varcoef — and reports performance
// and the center temperature.  With --scenario the flags are ignored and
// the whole JSON case batch runs through the scenario engine instead.
#include <cstdio>

#include "core/registry.hpp"
#include "scenario/scenario_engine.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  const tb::util::Args args(argc, argv);
  tb::util::StandardFlags flags;
  flags.n = 128;
  flags.steps = 64;
  flags.parse(args);
  if (!flags.scenario.empty())
    return tb::scenario::run_scenario_file(flags.scenario);
  const int n = flags.n;
  const int steps = flags.steps;

  // Initial condition: zero interior, hot (T = 1) face at x = 0.
  tb::core::Grid3 initial(n, n, n);
  initial.fill(0.0);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j) initial.at(0, j, k) = 1.0;

  // Configure the solver: one team of t threads sharing a cache, each
  // performing T in-cache updates per block (see README for tuning).
  tb::core::SolverConfig cfg;
  cfg.pipeline.teams = static_cast<int>(args.get_int("teams", 1));
  cfg.pipeline.team_size = flags.threads;  // --threads (alias --t)
  cfg.pipeline.steps_per_thread = static_cast<int>(args.get_int("T", 2));
  cfg.pipeline.block = {n, 16, 16};
  cfg.pipeline.du = 4;
  cfg.baseline.threads = cfg.pipeline.total_threads();
  cfg.wavefront.threads = cfg.pipeline.total_threads();
  tb::core::configure_from_args(cfg, args);  // --variant / --operator

  // The varcoef operator diffuses through a material field; default to
  // the standard conductive slab across the domain's middle third.
  tb::core::Grid3 kappa;
  if (cfg.op == tb::core::Operator::kVarCoef)
    kappa = tb::core::make_slab_kappa(n, n, n);

  tb::core::StencilSolver solver = tb::core::make_solver(
      tb::core::variant_name(cfg), to_string(cfg.op), cfg, initial, &kappa);
  const tb::core::RunStats stats = solver.advance(steps);

  // Report the *resolved* configuration: with --variant auto the solver
  // carries the tuned schedule, not the defaults set above.
  const tb::core::SolverConfig& used = solver.config();
  const tb::core::Grid3& u = solver.solution();
  std::printf("grid %d^3, %d sweeps with %s/%s (%s)\n", n, steps,
              tb::core::variant_name(used).c_str(), to_string(used.op),
              used.pipeline.describe().c_str());
  std::printf("wall time      : %.3f s\n", stats.seconds);
  std::printf("performance    : %.1f MLUP/s (host)\n", stats.mlups());
  std::printf("center value   : %.6f\n", u.at(n / 2, n / 2, n / 2));
  std::printf("near-hot value : %.6f\n", u.at(1, n / 2, n / 2));
  return 0;
}
