// Temporal blocking for lattice-Boltzmann (the paper's Sec. 3 outlook).
//
// D3Q19 moves 19 distributions per update — a code balance an order of
// magnitude worse than the Jacobi prototype — so the memory-bound ceiling
// Eq. (2)-style is far lower and temporal blocking has correspondingly
// more to win before the in-core collision cost binds.  This bench runs
// the calibrated node simulator with the D3Q19 kernel traits and a host
// correctness cross-check of the executing pipelined LBM.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "lbm/stencil_op.hpp"
#include "obs/accounting.hpp"
#include "obs/rundb.hpp"
#include "perfmodel/model_api.hpp"
#include "sim/node_sim.hpp"
#include "topo/machine.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

int run(const tb::util::Args& args) {
  const int n = args.get_int("n", 300, "simulated cubic grid extent");
  const int hn = args.get_int("host_n", 64, "grid extent of the host runs");
  const int hsteps = args.get_int("host_steps", 8, "steps per host sample");
  const int threads = args.get_int("threads", 2, "threads of the host runs");
  args.finish();
  const std::array<int, 3> grid{n, n, n};

  tb::sim::SimMachine socket = tb::sim::nehalem(1), node = tb::sim::nehalem(2);
  socket.kernel = node.kernel = tb::sim::KernelTraits::d3q19();

  const double p0 = socket.spec.mem_bw_socket /
                    tb::lbm::bytes_per_update_nt() / 1e6;
  std::printf(
      "=== Temporally blocked LBM (simulated Nehalem EP, %d^3) ===\n"
      "memory-bound expectation (Eq.2 analogue): %.1f MLUP/s per socket\n\n",
      n, p0);

  tb::util::TableWriter t(
      {"variant", "Socket [MLUP/s]", "Node [MLUP/s]", "socket speedup"});
  const double std_s = tb::sim::simulate_standard(socket, grid, 4, 2).mlups;
  const double std_n = tb::sim::simulate_standard(node, grid, 8, 2).mlups;
  t.add("Standard LBM", std_s, std_n, 1.0);

  for (int T : {1, 2, 4}) {
    tb::core::PipelineConfig pc = tb::sim::paper_schedule(1, T);
    pc.block = {60, 10, 10};  // 19 fields: much smaller blocks fit cache
    pc.du = 2;
    const double s = tb::sim::simulate_pipeline(socket, pc, grid, 1).mlups;
    pc.teams = 2;
    const double nn = tb::sim::simulate_pipeline(node, pc, grid, 1).mlups;
    char name[32];
    std::snprintf(name, sizeof name, "Pipelined T=%d", T);
    t.add(name, s, nn, s / std_s);
  }
  t.print();
  t.write_csv("lbm_blocking.csv");

  // Host cross-check: every scheme of the registry matrix runs the lbm
  // operator bit-identically to the naive reference — both the density
  // carrier and the full distribution lattices.
  {
    const int m = 16;
    tb::core::SolverConfig cfg;
    cfg.lbm.lid_velocity = {0.05, 0, 0};
    cfg.pipeline.teams = 1;
    cfg.pipeline.team_size = 2;
    cfg.pipeline.steps_per_thread = 2;
    cfg.pipeline.block = {6, 5, 4};
    cfg.baseline.threads = 2;
    cfg.wavefront.threads = 2;
    tb::core::Grid3 initial(m, m, m);
    initial.fill(1.0);
    const int steps = 3 * cfg.pipeline.levels_per_sweep();

    tb::core::StencilSolver ref =
        tb::core::make_solver("reference", "lbm", cfg, initial);
    ref.advance(steps);

    bool all_ok = true;
    for (const char* op : {"lbm", "lbm:aa"}) {
      for (const std::string& v : tb::core::registered_variants()) {
        if (v == "reference" && std::string(op) == "lbm") continue;
        tb::core::StencilSolver solver =
            tb::core::make_solver(v, op, cfg, initial);
        solver.advance(steps);
        double diff =
            tb::core::max_abs_diff(solver.solution(), ref.solution());
        diff = std::max(
            diff, solver.lbm_state()->current(steps).max_abs_diff(
                      ref.lbm_state()->current(steps)));
        std::printf("\nhost cross-check %-10s %-6s (16^3 cavity, %d "
                    "levels): max |diff| = %g %s",
                    v.c_str(), op, steps, diff,
                    diff == 0.0 ? "(bit-identical)" : "(MISMATCH!)");
        all_ok = all_ok && diff == 0.0;
      }
    }
    std::printf("\n");
    if (!all_ok) return 1;
  }

  // Host storage-policy throughput: one lattice updated in place (AA
  // pattern) versus the two-lattice ping-pong, same baseline schedule.
  // The modeled traffic drops from 480+8 to 328+8 bytes/LUP, so the AA
  // rows should land well above the two-lattice ones on any
  // memory-bound host.  Emitted as BENCH_lbm.json for the CI perf gate.
  {
    tb::core::Grid3 initial(hn, hn, hn);
    initial.fill(1.0);
    tb::core::SolverConfig cfg;
    cfg.lbm.lid_velocity = {0.05, 0, 0};
    cfg.baseline.threads = threads;
    cfg.baseline.block = {hn, 8, 8};

    std::printf("\n=== storage policy, host baseline run (%d^3, %d "
                "steps, %d threads) ===\n",
                hn, hsteps, threads);
    tb::util::TableWriter st(
        {"storage", "MLUP/s (host)", "bytes/LUP (model)"});
    const tb::perfmodel::NodeModel model(tb::topo::host_machine());
    std::vector<tb::obs::RunRow> report;
    double two = 0.0, aa = 0.0;
    for (const char* op : {"lbm", "lbm:aa"}) {
      tb::core::StencilSolver solver =
          tb::core::make_solver("baseline", op, cfg, initial);
      const double bpl = tb::obs::model_bytes_per_lup(solver.config(), op);
      solver.advance(1);  // warm-up: faults the lattices in
      // Best over >= 3 reps and >= 0.5 s of samples: steal time on a
      // shared host only ever subtracts from a throughput measurement.
      double best = 0.0, spent = 0.0;
      for (int rep = 0; rep < 3 || spent < 0.5; ++rep) {
        const tb::core::RunStats st = solver.advance(hsteps);
        best = std::max(best, st.mlups());
        spent += st.seconds;
      }
      (std::string(op) == "lbm" ? two : aa) = best;
      st.add(op, best, bpl);
      tb::obs::RunRow row;
      row.name = std::string("baseline/") + op;
      row.bytes_per_lup = bpl;
      row.mlups = best;
      row.predicted_mlups = tb::obs::predicted_solver_mlups(
          solver.config(), op, model, hn, hn);
      row.tags = {{"variant", "baseline"}, {"op", op}};
      report.push_back(std::move(row));
    }
    st.print();
    std::printf("AA speedup over two-lattice: %.2fx\n", aa / two);
    tb::obs::write_bench_json("lbm", report);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return tb::util::run_main(argc, argv, run); }
