// The distributed solver's contract: for any process grid, any pipeline
// shape, and either exchange mode (sequential blocking or overlapped
// 26-neighbour), the decomposed multi-layer-halo solver is *bit-identical*
// to the single-rank run — and the single-rank run matches the naive
// reference oracle.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

#include "core/registry.hpp"
#include "dist/registry.hpp"
#include "support/grid_test_utils.hpp"

namespace tb::dist {
namespace {

using tb::test::make_initial;
using tb::test::reference_result;

struct DecompCase {
  std::array<int, 3> dims{1, 1, 1};
  int t = 1, T = 1;
  bool overlap = false;

  friend std::ostream& operator<<(std::ostream& os, const DecompCase& c) {
    return os << c.dims[0] << "x" << c.dims[1] << "x" << c.dims[2] << "_t"
              << c.t << "T" << c.T << (c.overlap ? "_overlap" : "_blocking");
  }
};

class Decomposition : public ::testing::TestWithParam<DecompCase> {};

TEST_P(Decomposition, BitIdenticalToReference) {
  const DecompCase c = GetParam();
  const int n = 26;  // 24 interior cells: divisible by 1, 2, 3, 4
  const core::Grid3 initial = make_initial(n);

  DistConfig cfg;
  cfg.proc_dims = c.dims;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = c.t;
  cfg.pipeline.steps_per_thread = c.T;
  cfg.pipeline.block = {8, 4, 4};
  cfg.overlap = c.overlap;
  const int ranks = c.dims[0] * c.dims[1] * c.dims[2];
  const int epochs = 3;

  core::Grid3 result = initial.clone();
  run_distributed_named("jacobi", ranks, cfg, initial, epochs, &result);
  const int steps = epochs * cfg.pipeline.levels_per_sweep();
  tb::test::expect_grids_bitwise_equal(result, reference_result(initial, steps));
}

INSTANTIATE_TEST_SUITE_P(
    ProcessGrids, Decomposition,
    ::testing::Values(DecompCase{{1, 1, 1}, 2, 2},
                      DecompCase{{2, 1, 1}, 1, 2},
                      DecompCase{{1, 2, 1}, 2, 1},
                      DecompCase{{1, 1, 2}, 2, 2},
                      DecompCase{{2, 2, 1}, 1, 1},
                      DecompCase{{2, 2, 2}, 1, 2},
                      DecompCase{{3, 2, 1}, 2, 1},
                      DecompCase{{4, 2, 2}, 1, 1}));

INSTANTIATE_TEST_SUITE_P(
    Overlapped, Decomposition,
    ::testing::Values(DecompCase{{2, 1, 1}, 1, 2, true},
                      DecompCase{{2, 2, 1}, 1, 1, true},
                      DecompCase{{2, 2, 2}, 1, 2, true},
                      DecompCase{{3, 2, 1}, 2, 1, true}));

// ---- operator axis ----------------------------------------------------

/// The distributed solver is generic over the StencilOp: the varcoef
/// instantiation rebuilds its face coefficients from each rank's local
/// kappa window and must stay bit-identical to the single-rank oracle.
class VarCoefDecomposition : public ::testing::TestWithParam<DecompCase> {};

TEST_P(VarCoefDecomposition, BitIdenticalToReference) {
  const DecompCase c = GetParam();
  const int n = 26;
  const core::Grid3 initial = make_initial(n);
  core::Grid3 kappa(n, n, n);
  kappa.fill(1.0);
  for (int k = n / 3; k < 2 * n / 3; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) kappa.at(i, j, k) = 50.0;

  DistConfig cfg;
  cfg.proc_dims = c.dims;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = c.t;
  cfg.pipeline.steps_per_thread = c.T;
  cfg.pipeline.block = {8, 4, 4};
  cfg.overlap = c.overlap;
  const int ranks = c.dims[0] * c.dims[1] * c.dims[2];
  const int epochs = 3;

  core::Grid3 result = initial.clone();
  run_distributed_named("varcoef", ranks, cfg, initial, epochs, &result,
                        &kappa);

  const int steps = epochs * cfg.pipeline.levels_per_sweep();
  const core::DiffusionCoefficients coeffs(kappa);
  core::Grid3 a = initial.clone(), b = initial.clone();
  const core::Grid3& expected =
      core::reference_solve_op(core::VarCoefOp{&coeffs}, a, b, steps);
  tb::test::expect_grids_bitwise_equal(result, expected);
}

INSTANTIATE_TEST_SUITE_P(
    ProcessGrids, VarCoefDecomposition,
    ::testing::Values(DecompCase{{1, 1, 1}, 2, 2},
                      DecompCase{{2, 1, 1}, 1, 2},
                      DecompCase{{2, 2, 1}, 2, 1},
                      DecompCase{{2, 2, 2}, 1, 2},
                      DecompCase{{2, 2, 1}, 1, 1, true},
                      DecompCase{{3, 2, 1}, 2, 1, true}));

// ---- lbm: the multi-field state exchange -------------------------------

/// Geometry codes of a cavity with a two-cell interior obstacle (wall
/// hull, moving top lid, bounce-back blocks in the middle) — decoded via
/// the aux-grid path, so the rank windows must cut the same flags the
/// single-rank solver sees.
core::Grid3 obstacle_cavity_codes(int n) {
  core::Grid3 codes(n, n, n);
  codes.fill(0.0);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        if (i == 0 || j == 0 || k == 0 || i == n - 1 || j == n - 1 ||
            k == n - 1)
          codes.at(i, j, k) = 1.0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) codes.at(i, j, n - 1) = 2.0;
  codes.at(n / 2, n / 2, n / 2) = 1.0;
  codes.at(n / 2 + 1, n / 2, n / 2) = 1.0;
  return codes;
}

/// Bitwise comparison over the global interior [1, n-1)^3 — what the
/// state gather owns (the boundary layer of the gathered field grids is
/// zero-filled by contract, while the single-rank lattice keeps its
/// never-updated initial equilibrium there).
void expect_interior_bitwise_equal(const core::Grid3& a,
                                   const core::Grid3& b) {
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  ASSERT_EQ(a.nz(), b.nz());
  for (int k = 1; k < a.nz() - 1; ++k)
    for (int j = 1; j < a.ny() - 1; ++j)
      for (int i = 1; i < a.nx() - 1; ++i) {
        std::uint64_t ba = 0, bb = 0;
        std::memcpy(&ba, &a.at(i, j, k), sizeof(ba));
        std::memcpy(&bb, &b.at(i, j, k), sizeof(bb));
        ASSERT_EQ(ba, bb) << "at (" << i << "," << j << "," << k << ")";
      }
}

struct LbmDecompCase {
  std::array<int, 3> dims{1, 1, 1};
  int n = 20;  ///< 21 makes every 2-way split uneven (19 interior cells)
  int t = 1, T = 2;
  bool overlap = false;

  friend std::ostream& operator<<(std::ostream& os, const LbmDecompCase& c) {
    return os << c.dims[0] << "x" << c.dims[1] << "x" << c.dims[2] << "_n"
              << c.n << "_t" << c.t << "T" << c.T
              << (c.overlap ? "_overlap" : "_blocking");
  }
};

class LbmDecomposition : public ::testing::TestWithParam<LbmDecompCase> {};

TEST_P(LbmDecomposition, DensityAndLatticesMatchSingleRankPipelined) {
  const LbmDecompCase c = GetParam();
  const core::Grid3 codes = obstacle_cavity_codes(c.n);
  core::Grid3 initial(c.n, c.n, c.n);
  initial.fill(1.0);

  DistConfig cfg;
  cfg.proc_dims = c.dims;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = c.t;
  cfg.pipeline.steps_per_thread = c.T;
  cfg.pipeline.block = {8, 4, 4};
  cfg.overlap = c.overlap;
  cfg.lbm.omega = 1.3;
  cfg.lbm.lid_velocity = {0.05, 0.01, 0.0};
  cfg.lbm_geometry_from_aux = true;
  const int ranks = c.dims[0] * c.dims[1] * c.dims[2];
  const int epochs = 3;
  const int steps = epochs * cfg.pipeline.levels_per_sweep();

  // Anchor: the single-rank pipelined + lbm run of the registry matrix.
  core::SolverConfig scfg;
  scfg.pipeline = cfg.pipeline;
  scfg.lbm = cfg.lbm;
  scfg.lbm_geometry_from_aux = true;
  core::StencilSolver anchor =
      core::make_solver("pipelined", "lbm", scfg, initial, &codes);
  anchor.advance(steps);

  core::Grid3 density = initial.clone();
  std::vector<core::Grid3> lattices;
  run_distributed_named("dist:lbm", ranks, cfg, initial, epochs, &density,
                        &codes, &lattices);

  // Gathered density carrier, bit for bit (the boundary layer is the
  // untouched initial state on both sides).
  tb::test::expect_grids_bitwise_equal(density, anchor.solution());

  // Gathered distribution lattices, bit for bit over the interior.
  ASSERT_EQ(lattices.size(), static_cast<std::size_t>(lbm::kQ));
  const lbm::Lattice& expected =
      anchor.lbm_state()->current(anchor.levels_done());
  for (int q = 0; q < lbm::kQ; ++q)
    expect_interior_bitwise_equal(lattices[static_cast<std::size_t>(q)],
                                  expected.f(q));
}

INSTANTIATE_TEST_SUITE_P(
    ProcessGrids, LbmDecomposition,
    ::testing::Values(LbmDecompCase{{1, 1, 1}, 20, 2, 2},
                      LbmDecompCase{{1, 1, 2}, 20, 2, 2},
                      LbmDecompCase{{2, 2, 1}, 20, 1, 2},
                      LbmDecompCase{{2, 2, 2}, 20, 1, 2},
                      // 19 interior cells over 2 ranks per dimension:
                      // shares of 9 and 10, every split uneven.
                      LbmDecompCase{{2, 2, 1}, 21, 2, 1},
                      LbmDecompCase{{2, 1, 2}, 21, 1, 2},
                      // 26-neighbour overlapped exchange moves the same
                      // 20 fields per direction message.
                      LbmDecompCase{{2, 2, 1}, 20, 1, 2, true},
                      LbmDecompCase{{2, 2, 2}, 21, 1, 1, true}));

TEST(LbmDecomposition, RejectsSubdomainThinnerThanHaloOnEveryRank) {
  // Same global-geometry admissibility rule as the scalar operators: 7
  // interior cells over 2 ranks with h = 4 must throw on *every* rank
  // (shares of 3 and 4 — a per-rank check would deadlock the 4-share
  // rank in the multi-field exchange).
  core::Grid3 initial(9, 9, 9);
  initial.fill(1.0);
  simnet::World world(2);
  DistConfig cfg;
  cfg.proc_dims = {2, 1, 1};
  cfg.pipeline.team_size = 4;  // h = 4
  EXPECT_THROW(world.run([&](simnet::Comm& comm) {
                 auto solver = make_distributed("dist:lbm", comm, cfg,
                                                initial);
                 solver->advance(1);  // deadlocks here if ranks disagree
               }),
               std::invalid_argument);
}

TEST(Distributed, VarCoefWithoutKappaThrows) {
  const core::Grid3 initial = make_initial(12);
  simnet::World world(1);
  DistConfig cfg;
  EXPECT_THROW(world.run([&](simnet::Comm& comm) {
                 DistributedStencil solver(core::Operator::kVarCoef, comm,
                                           cfg, initial);
               }),
               std::invalid_argument);
}

TEST(Distributed, GatherReassemblesOwnedCells) {
  const core::Grid3 initial = make_initial(18);
  DistConfig cfg;
  cfg.proc_dims = {2, 2, 1};
  simnet::World world(4);
  core::Grid3 out = initial.clone();
  world.run([&](simnet::Comm& comm) {
    DistributedStencil solver(core::Operator::kJacobi, comm, cfg, initial);
    solver.gather(comm.rank() == 0 ? &out : nullptr);
  });
  // No epochs advanced: the gathered grid must be the initial state.
  tb::test::expect_grids_bitwise_equal(out, initial);
}

TEST(Distributed, AdvanceReportsLevelsAndVolume) {
  const core::Grid3 initial = make_initial(18);
  DistConfig cfg;
  cfg.proc_dims = {2, 1, 1};
  cfg.pipeline.team_size = 2;  // h = 2
  simnet::World world(2);
  world.run([&](simnet::Comm& comm) {
    DistributedStencil solver(core::Operator::kJacobi, comm, cfg, initial);
    const DistStats st = solver.advance(3);
    EXPECT_EQ(st.levels, 6);
    // One neighbour, one face message per epoch.
    EXPECT_EQ(st.comm.messages, 3u);
    EXPECT_GT(st.comm.bytes, 0u);
    EXPECT_GT(st.sim_seconds, 0.0);
  });
}

TEST(Distributed, UnevenPartitionBitIdentical) {
  // 19 interior cells over 2 ranks per dim: shares of 9 and 10.
  const core::Grid3 initial = make_initial(21);
  DistConfig cfg;
  cfg.proc_dims = {2, 2, 1};
  cfg.pipeline.team_size = 2;  // h = 2
  core::Grid3 result = initial.clone();
  run_distributed_named("jacobi", 4, cfg, initial, 2, &result);
  tb::test::expect_grids_bitwise_equal(result, reference_result(initial, 4));
}

TEST(Distributed, RejectsBadGeometry) {
  const core::Grid3 initial = make_initial(10);
  simnet::World world(8);
  DistConfig cfg;
  cfg.proc_dims = {2, 2, 2};
  cfg.pipeline.team_size = 8;  // h = 8 > 4 owned cells per rank
  EXPECT_THROW(world.run([&](simnet::Comm& comm) {
                 DistributedStencil solver(core::Operator::kJacobi, comm,
                                           cfg, initial);
               }),
               std::invalid_argument);
}

TEST(Distributed, RejectsThinUnevenPartitionOnEveryRank) {
  // Regression: 7 interior cells over 2 ranks gives shares 3 and 4 with
  // h = 4.  The admissibility check must fire on *every* rank (it depends
  // only on global geometry) — a per-rank check would throw on the
  // 3-share rank only and deadlock the others in the halo exchange.
  const core::Grid3 initial = make_initial(9);
  simnet::World world(2);
  DistConfig cfg;
  cfg.proc_dims = {2, 1, 1};
  cfg.pipeline.team_size = 4;  // h = 4
  EXPECT_THROW(world.run([&](simnet::Comm& comm) {
                 DistributedStencil solver(core::Operator::kJacobi, comm,
                                           cfg, initial);
                 solver.advance(1);  // deadlocks here if ranks disagree
               }),
               std::invalid_argument);
}

}  // namespace
}  // namespace tb::dist
