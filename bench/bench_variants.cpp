// Full-matrix host bench: every (variant x operator) combination of the
// registry, measured on a real grid, cross-checked bit-identically
// against the naive reference of the same operator, and emitted as
// machine-readable BENCH_variants.json for the CI perf trajectory.
//
// The bytes/LUP column is the modeled main-memory traffic per update:
// 3 words (read + write + write-allocate) for a two-grid sweep, 2 words
// when streaming stores or the compressed grid avoid the allocation,
// amortized over the team-sweep depth for the temporally blocked
// variants; the varcoef operator streams its six coefficient fields once
// per team sweep on top.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/stencil_op.hpp"
#include "obs/accounting.hpp"
#include "obs/rundb.hpp"
#include "perfmodel/model_api.hpp"
#include "topo/machine.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace tb::core;

// Steal time on shared runners swamps a single-shot timing of the fast
// combinations (one 64^3 Jacobi sweep-set is a few milliseconds), so each
// measurement repeats until it has accumulated `min_seconds` of samples
// (at least three) and keeps the best — the usual practice for a
// throughput metric, where interference only ever subtracts.
double best_mlups(StencilSolver& solver, int steps, double min_seconds) {
  double best = 0.0, spent = 0.0;
  int reps = 0;
  while (reps < 3 || spent < min_seconds) {
    const RunStats st = solver.advance(steps);
    best = std::max(best, st.mlups());
    spent += st.seconds;
    ++reps;
  }
  return best;
}

int run(const tb::util::Args& args) {
  const int n = args.get_int("n", 64, "cubic grid extent");
  const int steps = args.get_int("steps", 8, "time levels per run");
  const int threads = args.get_int("threads", 2, "threads");
  std::vector<std::string> variants = registered_variants();
  std::vector<std::string> operators = registered_operators();
  {
    std::vector<std::string> any = variants;
    any.emplace_back("all");
    const std::string v =
        args.get_choice("variant", "all", any, "one variant, or all");
    if (v != "all") variants = {v};
    any = operators;
    any.emplace_back("all");
    const std::string o =
        args.get_choice("operator", "all", any, "one operator, or all");
    if (o != "all") operators = {o};
  }
  args.finish();

  const GridSource initial = hot_face_source(n, n, n);
  const Grid3 kappa = make_slab_kappa(n, n, n);

  std::printf("=== variant x operator matrix, %d^3 grid, %d steps ===\n\n",
              n, steps);
  tb::util::TableWriter t(
      {"variant", "operator", "MLUP/s (host)", "bytes/LUP (model)", "ok"});
  const tb::perfmodel::NodeModel model(tb::topo::host_machine());
  std::vector<tb::obs::RunRow> report;
  bool all_ok = true;

  for (const std::string& opname : operators) {
    // One reference solution per operator; every variant must match it
    // bit for bit.
    SolverConfig refc;
    refc.variant = Variant::kReference;
    StencilSolver ref = make_solver("reference", opname, refc, initial,
                                    &kappa);
    ref.advance(steps);

    for (const std::string& vname : variants) {
      SolverConfig cfg;
      cfg.baseline.threads = threads;
      cfg.baseline.block = {n, 8, 8};
      cfg.pipeline.teams = 1;
      cfg.pipeline.team_size = threads;
      cfg.pipeline.steps_per_thread = 2;
      cfg.pipeline.block = {n, 8, 8};
      cfg.pipeline.du = 4;
      cfg.wavefront.threads = threads;

      StencilSolver solver = make_solver(vname, opname, cfg, initial,
                                         &kappa);
      const RunStats st = solver.advance(steps);
      // Bit-identity is checked at exactly `steps` levels; the repeated
      // timing advances below keep stepping the same solver, which does
      // not disturb throughput.
      const bool ok =
          max_abs_diff(solver.solution(), ref.solution()) == 0.0;
      all_ok = all_ok && ok;
      const double mlups =
          std::max(st.mlups(), best_mlups(solver, steps, 0.5));

      const double bpl =
          tb::obs::model_bytes_per_lup(solver.config(), opname);
      t.add(vname, opname, mlups, bpl, ok ? "yes" : "NO");
      tb::obs::RunRow row;
      row.name = vname + "/" + opname;
      row.bytes_per_lup = bpl;
      row.mlups = mlups;
      row.predicted_mlups =
          tb::obs::predicted_solver_mlups(solver.config(), opname, model, n, n);
      row.tags = {{"variant", vname}, {"op", opname}};
      report.push_back(std::move(row));
    }
  }
  t.print();
  tb::obs::write_bench_json("variants", report);

  std::printf("\nall combinations bit-identical to reference: %s\n",
              all_ok ? "yes" : "NO (bug!)");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return tb::util::run_main(argc, argv, run); }
