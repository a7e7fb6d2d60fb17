// Heterogeneous-diffusion example: steady-state temperature of a composite
// block (insulating matrix with conductive fibers) solved with the
// variable-coefficient stencil on the pipelined temporal-blocking engine.
//
// Demonstrates that the paper's scheme is not Jacobi-specific: any update
// reading only the 3^3 neighborhood of the previous level runs through
// the same team pipeline (see core/stencil_op.hpp) — and through any
// other registry variant selected with --variant.  The fiber array is
// the scenario engine's "fibers" geometry (scenario::aux_source), so this
// run and scenarios/composite.json share one material field.
#include <cstdio>

#include "core/grid_io.hpp"
#include "core/norms.hpp"
#include "core/registry.hpp"
#include "scenario/grids.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

namespace {

int run(const tb::util::Args& args) {
  tb::scenario::CaseSpec fibers;  // the material: varcoef over "fibers"
  fibers.op = "varcoef";
  fibers.geometry = "fibers";
  const int n = args.get_int("n", 48, "cubic grid extent");
  fibers.nx = fibers.ny = fibers.nz = n;
  fibers.kfiber = args.get_double("kfiber", 100.0, "fiber conductivity");
  const int steps_requested =
      args.get_int("steps", 600, "time levels (whole team sweeps)");
  tb::core::SolverConfig cfg;
  cfg.pipeline.team_size = args.get_int("threads", 2, "threads");
  const std::string variant = args.get_choice(
      "variant", "pipelined", tb::core::selectable_variants(), "schedule");
  const std::string vtk =
      args.get("vtk", "", "write the temperature field to this VTK file");
  args.finish();

  cfg.pipeline.teams = 1;
  cfg.pipeline.steps_per_thread = 2;
  cfg.pipeline.block = {n, 12, 12};
  cfg.pipeline.du = 3;
  cfg.baseline.threads = cfg.pipeline.total_threads();
  cfg.wavefront.threads = cfg.pipeline.total_threads();
  const int steps =
      std::max(1, steps_requested / cfg.pipeline.levels_per_sweep()) *
      cfg.pipeline.levels_per_sweep();

  // Hot x = 0 face, cold everywhere else.
  tb::core::StencilSolver solver =
      make_solver(variant, "varcoef", cfg, tb::core::hot_face_source(n, n, n),
                  tb::scenario::aux_source(fibers));

  tb::util::Timer timer;
  const tb::core::RunStats st = solver.advance(steps);
  const tb::core::Grid3& u = solver.solution();

  std::printf(
      "composite block %d^3 (%s), fiber kappa %.0f, %d steps: %.3f s, "
      "%.1f MLUP/s (host)\n",
      n, variant.c_str(), fibers.kfiber, st.levels, timer.elapsed(),
      st.mlups());

  // Heat penetrates much deeper along the fibers.  Probe a fiber away
  // from the cold walls (fibers sit at multiples of the pitch) and a
  // matrix point at a comparable distance from the walls.
  const int deep = 3 * n / 4;
  const int pitch = tb::scenario::fiber_pitch(n);
  const int jf = (n / 2 / pitch) * pitch;            // mid-domain fiber
  const double t_fiber = u.at(deep, jf, jf);
  const double t_matrix =
      u.at(deep, jf + pitch / 2, jf + pitch / 2);    // in the matrix
  std::printf("temperature at x = %d: fiber %.4f vs matrix %.4f (x%.1f)\n",
              deep, t_fiber, t_matrix,
              t_matrix > 0 ? t_fiber / t_matrix : 0.0);

  if (!vtk.empty() && tb::core::write_vtk(u, vtk, "temperature"))
    std::printf("wrote %s\n", vtk.c_str());
  return t_fiber > t_matrix ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return tb::util::run_main(argc, argv, run); }
