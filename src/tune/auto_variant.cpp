// The "auto" registry meta variant: make_solver("auto", op, cfg, grid)
// tunes the problem through tune::plan() — cache hit or model-pruned
// probes — and constructs the winning concrete variant.  Only the shape
// of the level-0 source is read here; its data goes to the winner.
//
// Registration happens in a static initializer so that linking tb_tune
// is all an executable needs for `--variant auto` to work; tb_tune is an
// OBJECT library precisely so this translation unit can never be dropped
// by archive-selective linking.

#include <cstdio>

#include "core/registry.hpp"
#include "tune/planner.hpp"

namespace tb::tune {

namespace {

core::StencilSolver make_auto_solver(std::string_view op,
                                     core::SolverConfig cfg,
                                     const core::GridSource& initial,
                                     const core::GridSource& kappa) {
  Problem p;
  p.nx = initial.nx();
  p.ny = initial.ny();
  p.nz = initial.nz();
  p.op = std::string(op);

  // The session layer routes its shared cache file through the config
  // (SolverConfig::tune_cache_path) so that every auto solve of one
  // session replays the same cache; empty keeps the planner's default
  // resolution (TB_TUNE_CACHE env, else the built-in path).
  PlanOptions opts;
  opts.cache_path = cfg.tune_cache_path;
  const Plan pl = plan(p, opts);
  std::printf("tune: auto -> %s for %s (%s, %.1f MLUP/s in probe)\n",
              pl.best.describe().c_str(), p.describe().c_str(),
              pl.from_cache
                  ? "cache hit, 0 probes"
                  : ("tuned now, " + std::to_string(pl.probes_run) +
                     " probes")
                        .c_str(),
              pl.best.measured_mlups);
  pl.best.apply(cfg);
  return core::make_solver(pl.best.variant, op, cfg, initial, kappa);
}

[[maybe_unused]] const bool kAutoInstalled = install_auto_variant();

}  // namespace

bool install_auto_variant() {
  core::register_meta_variant("auto", &make_auto_solver);
  return true;
}

}  // namespace tb::tune
