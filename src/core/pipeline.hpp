// Pipelined temporal blocking, two-grid scheme (the paper's main method),
// generic over the stencil operator.
//
// Grids A and B alternate as source and destination: even time levels live
// in A, odd levels in B.  A team sweep advances the whole domain by
// n*t*T levels while each block crosses the memory interface only once.
#pragma once

#include <vector>

#include "core/engine.hpp"
#include "core/grid.hpp"
#include "core/kernels.hpp"
#include "core/stencil_op.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace tb::core {

/// Result of a solver run.
struct RunStats {
  double seconds = 0.0;
  long long cell_updates = 0;  ///< lattice site updates performed
  int levels = 0;              ///< time levels advanced

  [[nodiscard]] double mlups() const {
    return seconds > 0 ? static_cast<double>(cell_updates) / seconds / 1e6
                       : 0.0;
  }
};

/// Shared-memory pipelined solver on two grids, templated on the
/// StencilOp (see core/stencil_op.hpp).  The row loop is instantiated per
/// operator, so it stays inlined and auto-vectorized.
///
/// Usage:
///   PipelinedSolver<JacobiOp> solver(cfg, nx, ny, nz);
///   // a = level 0 data, b = same boundary values
///   RunStats st = solver.run(a, b, sweeps);
///   Grid3& result = solver.result(a, b, sweeps);
///
/// The custom-clip constructor is used by the distributed solver, whose
/// update regions shrink into the ghost layers level by level.
template <class Op>
class PipelinedSolver {
 public:
  /// Plain interior solve of an nx*ny*nz grid with Dirichlet boundaries.
  PipelinedSolver(const PipelineConfig& cfg, int nx, int ny, int nz,
                  Op op = Op{})
      : PipelinedSolver(cfg,
                        interior_clips(nx, ny, nz, cfg.levels_per_sweep()),
                        op) {}

  /// Custom per-level clip regions (1-based level -> clips[level-1]).
  PipelinedSolver(const PipelineConfig& cfg, std::vector<LevelClip> clips,
                  Op op = Op{})
      : op_(op), engine_(cfg, BlockPlan(cfg.block, clips)) {
    if (cfg.scheme != GridScheme::kTwoGrid)
      throw std::invalid_argument(
          "PipelinedSolver: use CompressedSolver for the compressed scheme");
  }

  /// Runs `sweeps` team sweeps.  `a` must hold the starting time level,
  /// `base_level` is that level's global index (even levels live in `a`,
  /// odd in `b`; pass base_level=0 when `a` is the initial state).
  RunStats run(Grid3& a, Grid3& b, int sweeps, int base_level = 0) {
    Grid3* grids[2] = {&a, &b};  // grids[L % 2] holds time level L
    const int levels_per_sweep = engine_.config().levels_per_sweep();

    RunStats stats;
    const bool tel = obs::enabled();
    obs::Histogram* sweep_h =
        tel ? &obs::Registry::global().histogram("core.sweep.seconds")
            : nullptr;
    util::Timer timer;
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      obs::ScopedTimer st(sweep_h);
      obs::Span span("pipelined.sweep", "core");
      const int sweep_base = base_level + sweep * levels_per_sweep;
      engine_.run_sweep(
          /*forward=*/true, [&](int /*thread*/, int level, const Box& w) {
            const int global = sweep_base + level;
            const Grid3& src = *grids[(global + 1) % 2];
            Grid3& dst = *grids[global % 2];
            apply_box(op_, src, dst, w, global);
          });
    }
    stats.seconds = timer.elapsed();
    stats.levels = sweeps * levels_per_sweep;

    // Cell updates: every level updates its full clip region once.
    for (int s = 1; s <= levels_per_sweep; ++s) {
      const LevelClip& c = engine_.plan().clip(s);
      const long long cells = 1LL * std::max(0, c.hi[0] - c.lo[0]) *
                              std::max(0, c.hi[1] - c.lo[1]) *
                              std::max(0, c.hi[2] - c.lo[2]);
      stats.cell_updates += cells * sweeps;
    }
    if (tel && sweeps > 0) {
      obs::Registry& reg = obs::Registry::global();
      reg.counter("core.lups").add(
          static_cast<std::uint64_t>(stats.cell_updates));
      reg.counter("core.sweeps").add(static_cast<std::uint64_t>(sweeps));
    }
    return stats;
  }

  /// Grid holding the final level after `run(a, b, sweeps, base_level)`.
  [[nodiscard]] Grid3& result(Grid3& a, Grid3& b, int sweeps,
                              int base_level = 0) const {
    const int final_level =
        base_level + sweeps * engine_.config().levels_per_sweep();
    return final_level % 2 == 0 ? a : b;
  }

  [[nodiscard]] const PipelineConfig& config() const {
    return engine_.config();
  }

  /// The sweep team (PipelineEngine::pool).
  [[nodiscard]] util::ThreadPool& pool() { return engine_.pool(); }

 private:
  Op op_;
  PipelineEngine engine_;
};

}  // namespace tb::core
