// Failure-injection and stress tests of the pipeline engine: random
// artificial delays inside the per-window callback perturb the thread
// interleaving; the relaxed-sync distance rules must still produce the
// exact reference result.  On an oversubscribed host (more pipeline
// threads than cores) this exercises the yield-based backoff paths too.
#include <gtest/gtest.h>

#include <atomic>
#include <ostream>
#include <random>
#include <thread>

#include "support/grid_test_utils.hpp"
#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "core/reference.hpp"
#include "core/solver.hpp"

namespace tb::core {
namespace {

using tb::test::make_initial;
using tb::test::reference_result;

/// Runs the engine directly with jacobi windows plus injected delays.
void run_with_delays(const PipelineConfig& cfg, Grid3& a, Grid3& b,
                     int sweeps, unsigned seed, int max_delay_us) {
  const int n = a.nx();
  PipelineEngine engine(
      cfg, BlockPlan(cfg.block,
                     interior_clips(n, a.ny(), a.nz(),
                                    cfg.levels_per_sweep())));
  Grid3* grids[2] = {&a, &b};
  std::atomic<unsigned> salt{seed};
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const int base = sweep * cfg.levels_per_sweep();
    engine.run_sweep(true, [&](int thread, int level, const Box& w) {
      // Deterministic-ish per-call jitter: stalls one thread while its
      // neighbours run ahead into their distance bounds.
      unsigned h = salt.fetch_add(1) * 2654435761u + thread * 97u;
      if ((h >> 7) % 3 == 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds((h >> 11) % (max_delay_us + 1)));
      }
      const int global = base + level;
      apply_box(JacobiOp{}, *grids[(global + 1) % 2], *grids[global % 2], w,
                global);
    });
  }
}

struct StressCase {
  int teams, t, T, dl, du, dt;
  int max_delay_us;

  friend std::ostream& operator<<(std::ostream& os, const StressCase& c) {
    return os << "n" << c.teams << "t" << c.t << "T" << c.T << "_dl" << c.dl
              << "du" << c.du << "dt" << c.dt << "_delay" << c.max_delay_us
              << "us";
  }
};

class EngineStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(EngineStress, DelaysNeverBreakEquivalence) {
  const StressCase c = GetParam();
  const int n = 16;
  const Grid3 initial = make_initial(n);
  PipelineConfig cfg;
  cfg.teams = c.teams;
  cfg.team_size = c.t;
  cfg.steps_per_thread = c.T;
  cfg.dl = c.dl;
  cfg.du = c.du;
  cfg.dt = c.dt;
  cfg.block = {5, 4, 3};

  for (unsigned seed : {1u, 7u, 1234u}) {
    Grid3 a = initial.clone(), b = initial.clone();
    run_with_delays(cfg, a, b, 2, seed, c.max_delay_us);
    const int steps = 2 * cfg.levels_per_sweep();
    Grid3& got = steps % 2 == 0 ? a : b;
    ASSERT_EQ(max_abs_diff(got, reference_result(initial, steps)), 0.0)
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineStress,
    ::testing::Values(StressCase{1, 4, 1, 1, 1, 0, 200},   // tight lockstep
                      StressCase{1, 4, 2, 1, 4, 0, 200},
                      StressCase{2, 2, 1, 1, 2, 3, 300},   // team delay
                      StressCase{2, 4, 1, 2, 6, 1, 100},   // 8 threads
                      StressCase{4, 2, 1, 1, 3, 0, 150}));

TEST(EngineStress, ManySweepsOversubscribed) {
  // 12 pipeline threads on (typically) fewer cores, many short sweeps:
  // shakes out lost-wakeup and ABA-style bugs in the counter protocol.
  const int n = 12;
  const Grid3 initial = make_initial(n);
  PipelineConfig cfg;
  cfg.steps_per_thread = 1;
  cfg.teams = 3;
  cfg.team_size = 4;
  cfg.block = {4, 3, 3};
  cfg.du = 2;
  SolverConfig sc;
  sc.variant = Variant::kPipelined;
  sc.pipeline = cfg;
  StencilSolver solver(sc, initial);
  const int steps = 8 * cfg.levels_per_sweep();
  solver.advance(steps);
  EXPECT_EQ(max_abs_diff(solver.solution(), reference_result(initial, steps)),
            0.0);
}

TEST(EngineStress, EngineRejectsMismatchedPlanDepth) {
  PipelineConfig cfg;
  cfg.steps_per_thread = 1;
  cfg.team_size = 2;  // 2 levels
  EXPECT_THROW(
      PipelineEngine(cfg, BlockPlan(cfg.block,
                                    interior_clips(10, 10, 10, 5))),
      std::invalid_argument);
}

}  // namespace
}  // namespace tb::core
