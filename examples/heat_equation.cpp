// Heat-equation example: iterate a stencil solver to steady state with a
// convergence criterion, comparing every registry variant for both
// correctness and host wall time.
//
// The physical setup is a box with one hot face (x = 0, T = 1) and cold
// walls elsewhere; the steady state is a smooth temperature gradient
// (with --operator varcoef, through a conductive mid-height slab).
// Convergence is monitored on the maximum change per `check` sweeps.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

struct Outcome {
  int steps = 0;
  double seconds = 0.0;
  double mlups = 0.0;
  double residual = 0.0;
  double center = 0.0;
};

Outcome solve(tb::core::StencilSolver solver, const tb::core::Grid3& init,
              double tol, int max_steps, int check) {
  tb::core::Grid3 prev = init.clone();

  Outcome out;
  tb::util::Timer timer;
  long long updates = 0;
  while (out.steps < max_steps) {
    const tb::core::RunStats st = solver.advance(check);
    out.steps += check;
    updates += st.cell_updates;
    const tb::core::Grid3& cur = solver.solution();
    out.residual = tb::core::max_abs_diff(cur, prev);
    if (out.residual < tol) break;
    for (int k = 0; k < init.nz(); ++k)
      for (int j = 0; j < init.ny(); ++j)
        for (int i = 0; i < init.nx(); ++i)
          prev.at(i, j, k) = cur.at(i, j, k);
  }
  out.seconds = timer.elapsed();
  out.mlups = static_cast<double>(updates) / out.seconds / 1e6;
  const tb::core::Grid3& u = solver.solution();
  out.center = u.at(init.nx() / 2, init.ny() / 2, init.nz() / 2);
  return out;
}

int run(const tb::util::Args& args) {
  const int n = args.get_int("n", 96, "cubic grid extent");
  const double tol =
      args.get_double("tol", 1e-5, "stop when a check changes T by less");
  const int max_steps =
      args.get_int("max-steps", 2000, "give up after this many steps");
  const int threads = args.get_int("threads", 2, "threads");
  std::vector<std::string> variants = tb::core::registered_variants();
  {
    // Concrete names sweep; meta names ("auto") are selectable too.
    std::vector<std::string> any = tb::core::selectable_variants();
    any.emplace_back("all");
    const std::string v = args.get_choice(
        "variant", "all", any, "compared against reference, or all");
    if (v == "reference") {
      variants = {"reference"};
    } else if (v != "all") {
      variants = {"reference", v};  // reference anchors the comparison
    }
  }
  const std::string op = args.get_choice(
      "operator", "jacobi", tb::core::registered_operators(), "stencil");
  args.finish();

  const tb::core::Grid3 init =
      tb::core::hot_face_source(n, n, n).materialize();
  const tb::core::Grid3 kappa = tb::core::make_slab_kappa(n, n, n);

  tb::core::SolverConfig cfg;
  cfg.baseline.threads = threads;
  cfg.baseline.block = {n, 16, 16};
  // Non-temporal stores force every sweep to memory; they only pay off
  // when the grid is much larger than the last-level cache (Sec. 1.1).
  // Example-sized grids usually fit in cache on workstations, so keep the
  // cache hierarchy in play here.
  cfg.baseline.nontemporal = false;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = threads;
  cfg.pipeline.steps_per_thread = 2;
  cfg.pipeline.block = {n, 12, 12};
  cfg.pipeline.du = 4;
  cfg.wavefront.threads = threads;

  // The convergence check interval must be a multiple of every variant's
  // team-sweep depth so no variant falls back to remainder sweeps.
  const int check =
      4 * cfg.pipeline.levels_per_sweep() * cfg.wavefront.threads;

  std::printf("heat equation: %d^3 box, hot x=0 face, operator %s, tol "
              "%.1e\n\n",
              n, op.c_str(), tol);
  tb::util::TableWriter t(
      {"variant", "steps", "seconds", "MLUP/s", "residual", "center T"});
  Outcome expected{};
  bool first = true;
  bool all_match = true;
  for (const std::string& name : variants) {
    const Outcome o =
        solve(tb::core::make_solver(name, op, cfg, init, &kappa), init, tol,
              max_steps, check);
    t.add(name, o.steps, o.seconds, o.mlups, o.residual, o.center);
    if (first) {
      expected = o;
      first = false;
    } else if (o.steps != expected.steps ||
               std::abs(o.center - expected.center) > 0) {
      all_match = false;
    }
  }
  t.print();
  std::printf("\nall variants bit-identical: %s\n",
              all_match ? "yes" : "NO (bug!)");
  return all_match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return tb::util::run_main(argc, argv, run); }
