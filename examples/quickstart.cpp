// Quickstart: solve a 3-D boundary value problem with pipelined temporal
// blocking in ~40 lines.
//
// Sets up a cubic domain with a hot x=0 face, advances `steps` sweeps of
// the selected (variant, operator) combination — any registry pair works,
// e.g. --variant wavefront --operator varcoef — and reports performance
// and the center temperature; --T defaults to the model's depth for the
// step count (core::resolve_depth).  The same problem as a JSON case
// batch: `run_scenario --scenario scenarios/quickstart.json`.
#include <cstdio>

#include "core/registry.hpp"
#include "util/args.hpp"

namespace {

int run(const tb::util::Args& args) {
  // Teams of t threads sharing a cache, each performing T in-cache
  // updates per block (see README for tuning).  Without --T the
  // performance model picks T for the step count.
  tb::core::SolverConfig cfg;
  const int n = args.get_int("n", 128, "cubic grid extent");
  const int steps = args.get_int("steps", 64, "time levels to advance");
  cfg.pipeline.teams = args.get_int("teams", 1, "thread teams");
  cfg.pipeline.team_size = args.get_int("threads", 2, "threads per team");
  cfg.pipeline.steps_per_thread =
      args.get_int("T", 0, "updates per thread and block (0: the model's)");
  const std::string variant = args.get_choice(
      "variant", "pipelined", tb::core::selectable_variants(), "schedule");
  const std::string op = args.get_choice(
      "operator", "jacobi", tb::core::registered_operators(), "stencil");
  args.finish();

  cfg.pipeline.block = {n, 16, 16};
  cfg.pipeline.du = 4;
  cfg.baseline.threads = cfg.pipeline.total_threads();
  cfg.wavefront.threads = cfg.pipeline.total_threads();
  tb::core::apply_variant(cfg, variant);  // the depth depends on the scheme
  tb::core::resolve_depth(cfg.pipeline, op, steps);

  // The varcoef operator diffuses through a material field; default to
  // the standard conductive slab across the domain's middle third.
  tb::core::Grid3 kappa;
  if (op == "varcoef") kappa = tb::core::make_slab_kappa(n, n, n);

  // Initial condition: zero interior, hot (T = 1) face at x = 0.
  tb::core::StencilSolver solver = tb::core::make_solver(
      variant, op, cfg, tb::core::hot_face_source(n, n, n), &kappa);
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

}  // namespace

int main(int argc, char** argv) { return tb::util::run_main(argc, argv, run); }
