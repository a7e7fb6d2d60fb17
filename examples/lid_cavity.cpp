// Lid-driven cavity flow through the registry: the lattice-Boltzmann
// application the paper announces as the follow-up to its Jacobi
// prototype, now just `--operator lbm` on the unified solver stack.
//
// A cubic box of fluid, all walls no-slip except the top (z = max) lid
// moving in +x.  Any scheme of the variant x operator matrix (including
// the autotuned "auto") advances the same D3Q19 stream-collide update;
// the solver facade reports the evolved density field, and the lbm
// side-channel state provides the flow diagnostics: the classic u_x
// profile along the vertical center line (recirculation vortex) plus
// mass conservation.
//
// With --ranks N > 1 the same flow runs rank-decomposed on the simnet
// runtime ("dist:lbm", dist/registry.hpp): the multi-layer halo exchange
// ships the 19 distribution fields alongside the density carrier, the
// final lattice is gathered back, and the diagnostics are computed from
// it — bit-identical to the shared-memory run, whatever the process
// grid.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/registry.hpp"
#include "dist/registry.hpp"
#include "lbm/stencil_op.hpp"
#include "obs/accounting.hpp"
#include "obs/obs.hpp"
#include "obs/rundb.hpp"
#include "perfmodel/cluster_model.hpp"  // dims_create
#include "topo/machine.hpp"
#include "util/args.hpp"

namespace {

/// Prints the center-line u_x profile and vortex signature from a
/// lattice (shared by the shared-memory and distributed paths).
void print_profile(const tb::lbm::Lattice& result, int n, double ulid) {
  std::printf("u_x / u_lid along the vertical center line:\n");
  std::printf("%6s  %10s\n", "z/n", "u_x/u_lid");
  for (int k = 1; k < n - 1; k += std::max(1, (n - 2) / 16)) {
    const auto u = result.velocity(n / 2, n / 2, k);
    std::printf("%6.3f  %10.4f\n", static_cast<double>(k) / (n - 1),
                u[0] / ulid);
  }

  // The signature of the cavity vortex: forward flow under the lid,
  // reverse flow near the bottom.
  const auto top = result.velocity(n / 2, n / 2, n - 2);
  const auto bottom = result.velocity(n / 2, n / 2, 1 + n / 8);
  std::printf("\nnear-lid u_x = %.4f, lower-cavity u_x = %.4f %s\n",
              top[0], bottom[0],
              (top[0] > 0 && bottom[0] < top[0]) ? "(vortex forming)"
                                                 : "");
}

int run(const tb::util::Args& args) {
  const int n = args.get_int("n", 32, "cubic lattice extent");
  const int steps = args.get_int("steps", 400, "time steps to advance");
  const int t = args.get_int("threads", 2, "threads");
  const int ranks = args.get_int("ranks", 1, "ranks (> 1: dist:lbm)");
  tb::core::SolverConfig cfg;
  cfg.lbm.omega = args.get_double("omega", 1.2, "relaxation rate");
  cfg.lbm.lid_velocity = {args.get_double("ulid", 0.05, "lid speed (x)"),
                          0.0, 0.0};
  const std::string variant =
      args.get_choice("variant", "pipelined", tb::core::selectable_variants(),
                      "schedule (ignored with --ranks > 1)");
  args.finish();

  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = t;
  cfg.pipeline.steps_per_thread = 2;
  cfg.pipeline.block = {n, 8, 8};
  cfg.pipeline.du = 3;
  cfg.baseline.threads = t;
  cfg.wavefront.threads = t;

  // Initial state: fluid at rest, unit density everywhere; the operator
  // derives the cavity geometry (closed box, moving top lid) from the
  // grid shape.
  tb::core::Grid3 initial(n, n, n);
  initial.fill(1.0);

  if (ranks > 1) {
    // Rank-decomposed run: the distributed solver always runs the
    // pipelined scheme rank-locally, so --variant does not apply here.
    tb::dist::DistConfig dcfg;
    dcfg.proc_dims = tb::perfmodel::dims_create(ranks);
    dcfg.pipeline = cfg.pipeline;
    dcfg.lbm = cfg.lbm;
    const int h = dcfg.pipeline.levels_per_sweep();
    const int epochs = std::max(1, steps / h);

    tb::core::Grid3 density = initial.clone();
    std::vector<tb::core::Grid3> fields;
    tb::dist::run_distributed_named("dist:lbm", ranks, dcfg, initial,
                                    epochs, &density, nullptr, &fields);

    // Rebuild the gathered final-level lattice for the diagnostics.
    tb::lbm::Lattice result(n, n, n);
    for (int q = 0; q < tb::lbm::kQ; ++q)
      for (int k = 0; k < n; ++k)
        for (int j = 0; j < n; ++j)
          for (int i = 0; i < n; ++i)
            result.f(q).at(i, j, k) =
                fields[static_cast<std::size_t>(q)].at(i, j, k);

    const tb::lbm::LbmState state0(tb::lbm::Geometry::cavity(n, n, n),
                                   cfg.lbm, initial);
    const double mass0 = state0.current(0).total_mass(state0.geometry());

    std::printf(
        "lid-driven cavity %d^3 (dist:lbm, %d ranks = %dx%dx%d, h = %d), "
        "omega=%.2f, u_lid=%.3f, %d steps\n",
        n, ranks, dcfg.proc_dims[0], dcfg.proc_dims[1], dcfg.proc_dims[2],
        h, cfg.lbm.omega, cfg.lbm.lid_velocity[0], epochs * h);
    std::printf(
        "gathered density + 19 distribution fields, mass drift %.2e\n\n",
        result.total_mass(state0.geometry()) / mass0 - 1.0);
    print_profile(result, n, cfg.lbm.lid_velocity[0]);
    return 0;
  }

  tb::core::StencilSolver solver =
      tb::core::make_solver(variant, "lbm", cfg, initial);
  const tb::lbm::LbmState* state = solver.lbm_state();
  const double mass0 =
      state->current(0).total_mass(state->geometry());

  const tb::core::RunStats st = solver.advance(steps);
  const tb::lbm::Lattice& result = state->current(solver.levels_done());

  std::printf(
      "lid-driven cavity %d^3 (%s), omega=%.2f, u_lid=%.3f, %d steps\n",
      n, variant.c_str(), cfg.lbm.omega, cfg.lbm.lid_velocity[0], steps);
  std::printf("wall time %.3f s, %.1f MLUP/s (host), mass drift %.2e\n\n",
              st.seconds, st.mlups(),
              result.total_mass(state->geometry()) / mass0 - 1.0);

  // Model-vs-measured accounting: with telemetry on (TB_TELEMETRY=1 or
  // cfg.telemetry) the run appends one row to the run database carrying
  // the NodeModel expectation next to the achieved rate plus the
  // per-phase seconds the instrumented solver recorded.
  if (tb::obs::enabled()) {
    const tb::core::SolverConfig& rcfg = solver.config();
    const std::string opname =
        rcfg.lbm_storage == tb::lbm::LbmStorage::kAA ? "lbm:aa" : "lbm";
    const tb::perfmodel::NodeModel model(tb::topo::host_machine());
    tb::obs::RunRow row;
    row.name = variant + "/" + opname;
    row.bytes_per_lup = tb::obs::model_bytes_per_lup(rcfg, opname);
    row.mlups = st.mlups();
    row.predicted_mlups =
        tb::obs::predicted_solver_mlups(rcfg, opname, model, n, n);
    row.phases = tb::obs::phase_seconds_snapshot();
    row.tags = {{"example", "lid_cavity"}, {"variant", variant},
                {"op", opname}};
    tb::obs::append_run_rows(tb::obs::default_rundb_path(), {row});
    std::printf("model-vs-measured: NodeModel %.1f MLUP/s, achieved %.1f "
                "MLUP/s (row appended to %s)\n\n",
                row.predicted_mlups, row.mlups,
                tb::obs::default_rundb_path().c_str());
  }

  print_profile(result, n, cfg.lbm.lid_velocity[0]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return tb::util::run_main(argc, argv, run); }
