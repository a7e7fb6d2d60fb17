// The central correctness property of the whole library:
//
//   Every solver variant — for every pipeline shape (n, t, T), both sync
//   modes, both grid schemes, any admissible (d_l, d_u, d_t) and block
//   geometry — produces results *bit-identical* to the naive reference
//   Jacobi after the same number of time levels.
//
// Bit-identity holds because each cell update evaluates the identical
// floating-point expression; only the schedule differs, and a correct
// schedule respects all data dependencies.  Any race, off-by-one in the
// skewed windows, or wrong clip region shows up as a mismatch.
#include <gtest/gtest.h>

#include <ostream>
#include <utility>

#include "support/grid_test_utils.hpp"
#include "core/reference.hpp"
#include "core/solver.hpp"
#include "util/thread_pool.hpp"

namespace tb::core {
namespace {

using tb::test::reference_result;

struct Case {
  int teams = 1, t = 1, T = 1;
  int dl = 1, du = 4, dt = 0;
  SyncMode sync = SyncMode::kRelaxed;
  GridScheme scheme = GridScheme::kTwoGrid;
  BlockSize block{6, 5, 4};
  std::array<int, 3> grid{16, 16, 16};
  int sweeps = 2;

  friend std::ostream& operator<<(std::ostream& os, const Case& c) {
    return os << "n" << c.teams << "t" << c.t << "T" << c.T << "_dl" << c.dl
              << "du" << c.du << "dt" << c.dt << "_"
              << (c.sync == SyncMode::kBarrier ? "bar" : "rel") << "_"
              << (c.scheme == GridScheme::kCompressed ? "comp" : "two")
              << "_b" << c.block.bx << "x" << c.block.by << "x" << c.block.bz
              << "_g" << c.grid[0] << "x" << c.grid[1] << "x" << c.grid[2];
  }
};

class Equivalence : public ::testing::TestWithParam<Case> {};

TEST_P(Equivalence, BitIdenticalToReference) {
  const Case c = GetParam();
  Grid3 initial(c.grid[0], c.grid[1], c.grid[2]);
  fill_test_pattern(initial);

  SolverConfig cfg;
  cfg.variant = Variant::kPipelined;
  cfg.pipeline.teams = c.teams;
  cfg.pipeline.team_size = c.t;
  cfg.pipeline.steps_per_thread = c.T;
  cfg.pipeline.dl = c.dl;
  cfg.pipeline.du = c.du;
  cfg.pipeline.dt = c.dt;
  cfg.pipeline.sync = c.sync;
  cfg.pipeline.scheme = c.scheme;
  cfg.pipeline.block = c.block;

  StencilSolver solver(cfg, initial);
  const int steps = c.sweeps * cfg.pipeline.levels_per_sweep();
  solver.advance(steps);
  const Grid3 expected = reference_result(initial, steps);
  ASSERT_EQ(max_abs_diff(solver.solution(), expected), 0.0) << c;
}

// Pipeline shape sweep: team counts, team sizes, steps per thread.
INSTANTIATE_TEST_SUITE_P(
    Shapes, Equivalence,
    ::testing::Values(
        Case{.teams = 1, .t = 1, .T = 1},                    // degenerate
        Case{.teams = 1, .t = 1, .T = 5},                    // serial skew
        Case{.teams = 1, .t = 2, .T = 1}, Case{.teams = 1, .t = 3, .T = 2},
        Case{.teams = 1, .t = 4, .T = 1}, Case{.teams = 1, .t = 4, .T = 2},
        Case{.teams = 2, .t = 1, .T = 2}, Case{.teams = 2, .t = 2, .T = 1},
        Case{.teams = 2, .t = 2, .T = 2}, Case{.teams = 3, .t = 2, .T = 1},
        Case{.teams = 4, .t = 1, .T = 1}, Case{.teams = 2, .t = 3, .T = 1}));

// Distance-bound sweep: lockstep, loose, asymmetric, with team delays.
INSTANTIATE_TEST_SUITE_P(
    Distances, Equivalence,
    ::testing::Values(
        Case{.teams = 2, .t = 2, .dl = 1, .du = 1},           // lockstep
        Case{.teams = 2, .t = 2, .dl = 1, .du = 2},
        Case{.teams = 2, .t = 2, .dl = 1, .du = 64},          // unbounded-ish
        Case{.teams = 2, .t = 2, .dl = 2, .du = 3},           // dl > 1
        Case{.teams = 2, .t = 2, .dl = 1, .du = 4, .dt = 1},
        Case{.teams = 2, .t = 2, .dl = 1, .du = 4, .dt = 7},  // deadlock regr.
        Case{.teams = 3, .t = 2, .dl = 2, .du = 5, .dt = 3}));

// Sync mode and grid scheme cross product.
INSTANTIATE_TEST_SUITE_P(
    Modes, Equivalence,
    ::testing::Values(
        Case{.teams = 2, .t = 2, .T = 2, .sync = SyncMode::kBarrier},
        Case{.teams = 2, .t = 2, .T = 2, .dt = 3,
             .sync = SyncMode::kBarrier},
        Case{.teams = 1, .t = 4, .T = 1, .scheme = GridScheme::kCompressed},
        Case{.teams = 2, .t = 2, .T = 2, .scheme = GridScheme::kCompressed},
        Case{.teams = 1, .t = 2, .T = 3, .scheme = GridScheme::kCompressed,
             .sweeps = 3},  // odd sweep count: ends after a backward sweep
        Case{.teams = 1, .t = 3, .T = 1, .sync = SyncMode::kBarrier,
             .scheme = GridScheme::kCompressed},
        Case{.teams = 2, .t = 2, .T = 1, .dt = 2,
             .sync = SyncMode::kBarrier,
             .scheme = GridScheme::kCompressed},
        // The same schedule on both schemes: compressed == two-grid.
        Case{.teams = 1, .t = 2, .T = 2, .block = {8, 6, 6},
             .grid = {24, 24, 24}},
        Case{.teams = 1, .t = 2, .T = 2, .scheme = GridScheme::kCompressed,
             .block = {8, 6, 6}, .grid = {24, 24, 24}}));

// Block geometry: degenerate 1-cell blocks, slabs, pencils, oversized.
INSTANTIATE_TEST_SUITE_P(
    Blocks, Equivalence,
    ::testing::Values(
        Case{.teams = 1, .t = 2, .block = {1, 1, 1}, .grid = {8, 8, 8}},
        Case{.teams = 1, .t = 2, .block = {16, 16, 1}},
        Case{.teams = 1, .t = 2, .block = {1, 16, 16}},
        Case{.teams = 1, .t = 2, .block = {16, 1, 16}},
        Case{.teams = 1, .t = 2, .block = {64, 64, 64}},  // one giant block
        Case{.teams = 1, .t = 2, .block = {7, 3, 5}},
        Case{.teams = 2, .t = 2, .scheme = GridScheme::kCompressed,
             .block = {3, 9, 2}}));

// Grid shapes: non-cubic, minimal, prime extents.
INSTANTIATE_TEST_SUITE_P(
    Grids, Equivalence,
    ::testing::Values(
        Case{.teams = 1, .t = 2, .grid = {5, 5, 5}, .sweeps = 1},
        Case{.teams = 1, .t = 2, .grid = {32, 8, 8}},
        Case{.teams = 1, .t = 2, .grid = {8, 8, 32}},
        Case{.teams = 1, .t = 2, .grid = {13, 17, 11}},
        Case{.teams = 2, .t = 2, .scheme = GridScheme::kCompressed,
             .grid = {13, 17, 11}},
        Case{.teams = 1, .t = 4, .T = 2, .grid = {9, 40, 9}},
        Case{.teams = 1, .t = 2, .grid = {4, 4, 4}, .sweeps = 1},
        // Pipeline deeper than the grid extent: windows clip heavily.
        Case{.teams = 2, .t = 4, .T = 2, .grid = {10, 10, 10},
             .sweeps = 1}));

// ---- scheme-independence properties ----------------------------------

TEST(EquivalenceProps, ResultIndependentOfDu) {
  Grid3 initial(18, 14, 12);
  fill_test_pattern(initial);
  Grid3 anchor(1, 1, 1);
  bool first = true;
  for (int du : {1, 2, 3, 8, 100}) {
    SolverConfig cfg;
    cfg.variant = Variant::kPipelined;
    cfg.pipeline.teams = 2;
    cfg.pipeline.team_size = 2;
    cfg.pipeline.steps_per_thread = 1;
    cfg.pipeline.du = du;
    cfg.pipeline.block = {5, 4, 3};
    StencilSolver s(cfg, initial);
    s.advance(2 * cfg.pipeline.levels_per_sweep());
    if (first) {
      anchor = s.solution().clone();
      first = false;
    } else {
      EXPECT_EQ(max_abs_diff(s.solution(), anchor), 0.0) << "du=" << du;
    }
  }
}

TEST(EquivalenceProps, BarrierAndRelaxedIdentical) {
  Grid3 initial(16, 16, 16);
  fill_test_pattern(initial);
  SolverConfig cfg;
  cfg.variant = Variant::kPipelined;
  cfg.pipeline.teams = 2;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.steps_per_thread = 1;
  cfg.pipeline.block = {6, 4, 5};

  StencilSolver relaxed(cfg, initial);
  cfg.pipeline.sync = SyncMode::kBarrier;
  StencilSolver barrier(cfg, initial);
  const int steps = 2 * cfg.pipeline.levels_per_sweep();
  relaxed.advance(steps);
  barrier.advance(steps);
  EXPECT_EQ(max_abs_diff(relaxed.solution(), barrier.solution()), 0.0);
}

TEST(EquivalenceProps, RepeatedRunsAreDeterministic) {
  Grid3 initial(14, 14, 14);
  fill_test_pattern(initial);
  SolverConfig cfg;
  cfg.variant = Variant::kPipelined;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 4;
  cfg.pipeline.steps_per_thread = 1;
  cfg.pipeline.block = {4, 4, 4};
  Grid3 anchor(1, 1, 1);
  for (int run = 0; run < 3; ++run) {
    StencilSolver s(cfg, initial);
    s.advance(cfg.pipeline.levels_per_sweep());
    if (run == 0) {
      anchor = s.solution().clone();
    } else {
      EXPECT_EQ(max_abs_diff(s.solution(), anchor), 0.0);
    }
  }
}

TEST(EquivalenceProps, BoundariesNeverChange) {
  Grid3 initial(12, 12, 12);
  fill_test_pattern(initial);
  SolverConfig cfg;
  cfg.variant = Variant::kPipelined;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.steps_per_thread = 1;
  cfg.pipeline.scheme = GridScheme::kCompressed;
  cfg.pipeline.block = {4, 4, 4};
  StencilSolver s(cfg, initial);
  s.advance(4 * cfg.pipeline.levels_per_sweep());
  const Grid3& u = s.solution();
  for (int k = 0; k < 12; ++k)
    for (int j = 0; j < 12; ++j) {
      EXPECT_EQ(u.at(0, j, k), initial.at(0, j, k));
      EXPECT_EQ(u.at(11, j, k), initial.at(11, j, k));
    }
  for (int k = 0; k < 12; ++k)
    for (int i = 0; i < 12; ++i) {
      EXPECT_EQ(u.at(i, 0, k), initial.at(i, 0, k));
      EXPECT_EQ(u.at(i, 11, k), initial.at(i, 11, k));
    }
}

// ---- compressed load/store on a thread team ----------------------------

// load and store copy rows over k-slabs of the facade's team; the copies
// must land at the same margins and the same bits as the serial path.
// nz = 10 on a team of 3 gives uneven slabs.
TEST(CompressedLoadStore, TeamCopiesMatchSerialBitwise) {
  PipelineConfig pc;
  pc.teams = 1;
  pc.team_size = 2;
  pc.steps_per_thread = 2;  // S = 4
  pc.scheme = GridScheme::kCompressed;
  pc.block = {4, 4, 4};
  const int nx = 13, ny = 11, nz = 10, S = pc.levels_per_sweep();
  const Grid3 initial = tb::test::make_initial(nx, ny, nz);

  // load, one sweep, store; then the same again from the stored level.
  auto round_trips = [&](util::ThreadPool* team) {
    CompressedSolver<JacobiOp> solver(pc, nx, ny, nz);
    auto sweep = [&](const Grid3& in, Grid3& out) {
      solver.load(in, team);
      EXPECT_EQ(solver.margin(), S);
      solver.run(1);  // an odd sweep count drifts the window to 0
      EXPECT_EQ(solver.margin(), 0);
      solver.store(out, team);
    };
    Grid3 first(nx, ny, nz), second(nx, ny, nz);
    sweep(initial, first);
    sweep(first, second);
    return std::pair{std::move(first), std::move(second)};
  };

  util::ThreadPool team(3);
  const auto serial = round_trips(nullptr);
  const auto teamed = round_trips(&team);
  tb::test::expect_grids_bitwise_equal(teamed.first, serial.first);
  tb::test::expect_grids_bitwise_equal(teamed.second, serial.second);
  tb::test::expect_grids_bitwise_equal(serial.second,
                                       reference_result(initial, 2 * S));
}

}  // namespace
}  // namespace tb::core
