// Build-up smoke tests: pipeline vs reference equivalence on tiny grids.
#include <gtest/gtest.h>

#include "core/compressed.hpp"
#include "core/reference.hpp"
#include "core/solver.hpp"
#include "support/grid_test_utils.hpp"

namespace tb::core {
namespace {

using tb::test::make_initial;
using tb::test::reference_result;

TEST(Smoke, PipelinedTwoGridMatchesReference) {
  const int n = 20;
  Grid3 initial = make_initial(n);

  PipelineConfig pc;
  pc.teams = 2;
  pc.team_size = 2;
  pc.steps_per_thread = 1;
  pc.block = {6, 5, 4};
  pc.du = 3;
  SolverConfig sc;
  sc.variant = Variant::kPipelined;
  sc.pipeline = pc;

  StencilSolver solver(sc, initial);
  const int steps = 2 * pc.levels_per_sweep();
  solver.advance(steps);
  Grid3 expected = reference_result(initial, steps);
  EXPECT_EQ(max_abs_diff(solver.solution(), expected), 0.0);
}

TEST(Smoke, CompressedMatchesReference) {
  const int n = 18;
  Grid3 initial = make_initial(n);

  PipelineConfig pc;
  pc.teams = 1;
  pc.team_size = 3;
  pc.steps_per_thread = 2;
  pc.block = {5, 4, 6};
  pc.du = 2;
  pc.scheme = GridScheme::kCompressed;
  SolverConfig sc;
  sc.variant = Variant::kPipelined;
  sc.pipeline = pc;

  StencilSolver solver(sc, initial);
  const int steps = 3 * pc.levels_per_sweep();  // odd sweeps: ends backward
  solver.advance(steps);
  Grid3 expected = reference_result(initial, steps);
  EXPECT_EQ(max_abs_diff(solver.solution(), expected), 0.0);
}

TEST(Smoke, BaselineMatchesReference) {
  const int n = 16;
  Grid3 initial = make_initial(n);
  SolverConfig sc;
  sc.variant = Variant::kBaseline;
  sc.baseline.threads = 3;
  sc.baseline.block = {7, 3, 5};
  StencilSolver solver(sc, initial);
  solver.advance(5);
  Grid3 expected = reference_result(initial, 5);
  EXPECT_EQ(max_abs_diff(solver.solution(), expected), 0.0);
}

TEST(Smoke, BarrierSyncMatchesReference) {
  const int n = 15;
  Grid3 initial = make_initial(n);
  PipelineConfig pc;
  pc.steps_per_thread = 1;
  pc.teams = 1;
  pc.team_size = 4;
  pc.block = {4, 4, 4};
  pc.sync = SyncMode::kBarrier;
  pc.dt = 2;
  SolverConfig sc;
  sc.variant = Variant::kPipelined;
  sc.pipeline = pc;
  StencilSolver solver(sc, initial);
  const int steps = pc.levels_per_sweep();
  solver.advance(steps);
  Grid3 expected = reference_result(initial, steps);
  EXPECT_EQ(max_abs_diff(solver.solution(), expected), 0.0);
}

}  // namespace
}  // namespace tb::core
