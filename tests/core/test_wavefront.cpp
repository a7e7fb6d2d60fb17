// Tests of the wavefront comparator (Ref. [2]): the facade's plane-block
// plan of the pipelined solver, and the capacity model behind it.
#include <gtest/gtest.h>

#include <ostream>

#include "support/grid_test_utils.hpp"
#include "core/registry.hpp"
#include "perfmodel/wavefront_model.hpp"

namespace tb::core {
namespace {

using tb::test::make_initial;
using tb::test::reference_result;

struct WaveCase {
  int threads;
  int extra_steps;  ///< levels past the whole sweeps: remainder sweeps
  std::array<int, 3> grid;
  int sweeps;

  friend std::ostream& operator<<(std::ostream& os, const WaveCase& c) {
    return os << "t" << c.threads << "_g" << c.grid[0] << "x" << c.grid[1]
              << "x" << c.grid[2] << "_s" << c.sweeps << "_extra"
              << c.extra_steps;
  }
};

class Wavefront : public ::testing::TestWithParam<WaveCase> {};

TEST_P(Wavefront, BitIdenticalToReference) {
  const WaveCase c = GetParam();
  const Grid3 initial = make_initial(c.grid[0], c.grid[1], c.grid[2]);
  SolverConfig cfg;
  cfg.wavefront.threads = c.threads;
  StencilSolver solver = make_solver("wavefront", "jacobi", cfg, initial);
  const int steps = c.sweeps * c.threads + c.extra_steps;
  solver.advance(steps);
  EXPECT_EQ(max_abs_diff(solver.solution(), reference_result(initial, steps)),
            0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Wavefront,
    ::testing::Values(WaveCase{1, 4, {12, 12, 12}, 3},
                      WaveCase{2, 4, {14, 12, 16}, 2},
                      WaveCase{3, 2, {16, 10, 18}, 2},  // remainder 2
                      WaveCase{4, 16, {12, 18, 20}, 1},
                      // Wave deeper than the plane count (6 levels over 4
                      // interior planes): heavy clipping, remainder 4.
                      WaveCase{6, 4, {10, 10, 6}, 2},
                      WaveCase{2, 100, {12, 12, 12}, 2}));

TEST(Wavefront, ConfigReportsThePlanThatRuns) {
  SolverConfig cfg;
  cfg.wavefront.threads = 4;
  const StencilSolver solver =
      make_solver("wavefront", "jacobi", cfg, make_initial(14, 12, 10));
  EXPECT_EQ(solver.config().pipeline.describe(),
            wavefront_plan(cfg.wavefront, 14, 12).describe());
  EXPECT_EQ(solver.config().variant, Variant::kWavefront);
}

TEST(Wavefront, RejectsBadConfig) {
  SolverConfig cfg;
  cfg.wavefront.threads = 0;
  EXPECT_THROW(make_solver("wavefront", "jacobi", cfg, make_initial(8)),
               std::invalid_argument);
}

TEST(Wavefront, WorkingSetGrowsWithDepthAndPlane) {
  const std::size_t small = perfmodel::wavefront_working_set(64, 64, 2);
  const std::size_t deep = perfmodel::wavefront_working_set(64, 64, 4);
  const std::size_t wide = perfmodel::wavefront_working_set(128, 128, 4);
  EXPECT_GT(deep, small);
  EXPECT_GT(wide, deep);
}

TEST(WavefrontModel, CapacityCrossover) {
  const topo::MachineSpec m = topo::nehalem_ep_socket();
  // 600^2 planes (2.9 MiB) cannot host a 4-deep wave in 8 MiB L3; small
  // planes can.
  EXPECT_FALSE(perfmodel::wavefront_fits(m, 600, 600, 4));
  EXPECT_TRUE(perfmodel::wavefront_fits(m, 150, 150, 4));
  EXPECT_EQ(perfmodel::max_wavefront_depth(m, 600, 600), 0);
  EXPECT_GE(perfmodel::max_wavefront_depth(m, 150, 150), 4);
}

TEST(WavefrontModel, SpilledWaveLosesTheSpeedup) {
  const topo::MachineSpec m = topo::nehalem_ep_socket();
  const double fits = perfmodel::wavefront_lups_socket(m, 150, 150, 4);
  const double spills = perfmodel::wavefront_lups_socket(m, 600, 600, 4);
  EXPECT_GT(fits, perfmodel::baseline_lups_socket(m));
  EXPECT_LT(spills, perfmodel::baseline_lups_socket(m));
}

}  // namespace
}  // namespace tb::core
