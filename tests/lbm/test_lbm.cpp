// Tests of the D3Q19 lattice-Boltzmann operator: model invariants,
// physics sanity, and bit-equivalence of every scheme of the registry
// matrix — carrier density AND full distribution lattices — against a
// naive oracle built directly on the cell kernel.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
#include <string>

#include "core/registry.hpp"
#include "lbm/stencil_op.hpp"

namespace tb::lbm {
namespace {

/// Naive stream-collide advance on raw lattices (the pre-StencilOp
/// oracle): even levels in `a`, odd levels in `b`.
void naive_run(const Geometry& geo, const LbmConfig& cfg, Lattice& a,
               Lattice& b, int steps, int base_level = 0) {
  core::Box all;
  all.lo = {1, 1, 1};
  all.hi = {geo.nx() - 1, geo.ny() - 1, geo.nz() - 1};
  Lattice* lat[2] = {&a, &b};
  for (int s = 0; s < steps; ++s) {
    const int global = base_level + s + 1;
    stream_collide_box(geo, cfg, *lat[(global + 1) % 2],
                       *lat[global % 2], all);
  }
}

// ---- model invariants --------------------------------------------------

TEST(D3Q19, WeightsSumToOne) {
  const double sum = std::accumulate(kWeights.begin(), kWeights.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-15);
}

TEST(D3Q19, VelocitiesHaveNoCornerDirections) {
  // The temporal-blocking dependency proof requires |e| != (1,1,1).
  for (const auto& e : kVelocities) {
    const int nonzero = (e[0] != 0) + (e[1] != 0) + (e[2] != 0);
    EXPECT_LE(nonzero, 2);
  }
}

TEST(D3Q19, VelocitiesSumToZero) {
  int sx = 0, sy = 0, sz = 0;
  for (const auto& e : kVelocities) {
    sx += e[0];
    sy += e[1];
    sz += e[2];
  }
  EXPECT_EQ(sx, 0);
  EXPECT_EQ(sy, 0);
  EXPECT_EQ(sz, 0);
}

TEST(D3Q19, OppositeIsInvolutionAndNegates) {
  for (int q = 0; q < kQ; ++q) {
    const int o = opposite(q);
    EXPECT_EQ(opposite(o), q);
    for (int d = 0; d < 3; ++d)
      EXPECT_EQ(kVelocities[static_cast<std::size_t>(o)][static_cast<std::size_t>(d)],
                -kVelocities[static_cast<std::size_t>(q)][static_cast<std::size_t>(d)]);
  }
}

TEST(D3Q19, EquilibriumMomentsAreExact) {
  // Zeroth and first moments of f_eq must reproduce rho and rho*u.
  const double rho = 1.1, ux = 0.03, uy = -0.02, uz = 0.01;
  double m0 = 0, mx = 0, my = 0, mz = 0;
  for (int q = 0; q < kQ; ++q) {
    const double feq = equilibrium(q, rho, ux, uy, uz);
    m0 += feq;
    mx += feq * kVelocities[static_cast<std::size_t>(q)][0];
    my += feq * kVelocities[static_cast<std::size_t>(q)][1];
    mz += feq * kVelocities[static_cast<std::size_t>(q)][2];
  }
  EXPECT_NEAR(m0, rho, 1e-14);
  EXPECT_NEAR(mx, rho * ux, 1e-14);
  EXPECT_NEAR(my, rho * uy, 1e-14);
  EXPECT_NEAR(mz, rho * uz, 1e-14);
}

TEST(LbmConfig, ValidatesOmega) {
  LbmConfig cfg;
  cfg.omega = 2.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.omega = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(LbmState, DecodesGeometryCodesAndRejectsGarbage) {
  core::Grid3 codes(4, 4, 4);
  codes.fill(1.0);
  codes.at(1, 1, 1) = 0.0;
  codes.at(2, 2, 2) = 2.0;
  const Geometry geo = geometry_from_codes(codes);
  EXPECT_EQ(geo.at(1, 1, 1), Cell::kFluid);
  EXPECT_EQ(geo.at(2, 2, 2), Cell::kLid);
  EXPECT_EQ(geo.at(0, 0, 0), Cell::kWall);
  codes.at(3, 3, 3) = 0.5;
  EXPECT_THROW((void)geometry_from_codes(codes), std::invalid_argument);
}

// ---- physics sanity ----------------------------------------------------

TEST(Lbm, EquilibriumAtRestIsStationary) {
  const int n = 10;
  Geometry geo(n, n, n);
  geo.close_box();
  LbmConfig cfg;
  cfg.lid_velocity = {0, 0, 0};
  Lattice a(n, n, n), b(n, n, n);
  a.init_equilibrium(1.0, {0, 0, 0});
  b.init_equilibrium(1.0, {0, 0, 0});
  naive_run(geo, cfg, a, b, 4);
  // Still at rest, density 1 everywhere in the fluid.
  for (int k = 1; k < n - 1; ++k)
    for (int j = 1; j < n - 1; ++j)
      for (int i = 1; i < n - 1; ++i) {
        EXPECT_NEAR(a.density(i, j, k), 1.0, 1e-13);
        const auto u = a.velocity(i, j, k);
        EXPECT_NEAR(u[0], 0.0, 1e-14);
      }
}

TEST(Lbm, MassConservedInClosedCavity) {
  const int n = 12;
  Geometry geo = Geometry::cavity(n, n, n);
  LbmConfig cfg;
  cfg.omega = 1.2;
  Lattice a(n, n, n), b(n, n, n);
  a.init_equilibrium(1.0, {0, 0, 0});
  b.init_equilibrium(1.0, {0, 0, 0});
  const double m0 = a.total_mass(geo);
  naive_run(geo, cfg, a, b, 20);
  // 20 steps: final level in lattice a (even).
  EXPECT_NEAR(a.total_mass(geo) / m0, 1.0, 1e-12);
}

TEST(Lbm, LidDrivesFlow) {
  const int n = 14;
  Geometry geo = Geometry::cavity(n, n, n);
  LbmConfig cfg;
  cfg.omega = 1.0;
  cfg.lid_velocity = {0.08, 0, 0};
  Lattice a(n, n, n), b(n, n, n);
  a.init_equilibrium(1.0, {0, 0, 0});
  b.init_equilibrium(1.0, {0, 0, 0});
  naive_run(geo, cfg, a, b, 60);
  // Fluid just below the lid moves in +x; return flow appears lower down.
  const auto near_lid = a.velocity(n / 2, n / 2, n - 2);
  EXPECT_GT(near_lid[0], 0.005);
  const auto mid = a.velocity(n / 2, n / 2, n / 3);
  EXPECT_LT(mid[0], near_lid[0] * 0.5);  // recirculation: much slower/reversed
}

TEST(Lbm, StokesFlowIsSymmetricInY) {
  // The cavity setup is symmetric under y-reflection; at low lid speed
  // (Stokes regime) the velocity field must inherit the symmetry.
  const int n = 12;
  Geometry geo = Geometry::cavity(n, n, n);
  LbmConfig cfg;
  cfg.lid_velocity = {0.02, 0, 0};
  Lattice a(n, n, n), b(n, n, n);
  a.init_equilibrium(1.0, {0, 0, 0});
  b.init_equilibrium(1.0, {0, 0, 0});
  naive_run(geo, cfg, a, b, 30);
  for (int k = 1; k < n - 1; ++k)
    for (int j = 1; j < n / 2; ++j) {
      const auto u1 = a.velocity(n / 2, j, k);
      const auto u2 = a.velocity(n / 2, n - 1 - j, k);
      EXPECT_NEAR(u1[0], u2[0], 1e-11);
      EXPECT_NEAR(u1[1], -u2[1], 1e-11);
    }
}

// ---- the StencilOp expression of stream-collide ------------------------

/// Geometry codes of a cavity with a two-cell interior obstacle: wall
/// everywhere on the hull, lid on top, bounce-back inside the blocks.
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

struct LbmCase {
  std::string variant;
  int teams = 1, t = 2, T = 2;
  core::SyncMode sync = core::SyncMode::kRelaxed;
  core::BlockSize block{5, 4, 3};
  int steps = 8;

  friend std::ostream& operator<<(std::ostream& os, const LbmCase& c) {
    return os << c.variant << "_n" << c.teams << "t" << c.t << "T" << c.T
              << "_s" << c.steps;
  }
};

class LbmEquivalence : public ::testing::TestWithParam<LbmCase> {};

TEST_P(LbmEquivalence, SchemeMatchesNaiveOracle) {
  const LbmCase c = GetParam();
  const int n = 14;
  const core::Grid3 codes = obstacle_cavity_codes(n);
  core::Grid3 initial(n, n, n);
  initial.fill(1.0);

  core::SolverConfig cfg;
  cfg.lbm.omega = 1.3;
  cfg.lbm.lid_velocity = {0.05, 0.01, 0};
  cfg.lbm_geometry_from_aux = true;
  cfg.pipeline.teams = c.teams;
  cfg.pipeline.team_size = c.t;
  cfg.pipeline.steps_per_thread = c.T;
  cfg.pipeline.sync = c.sync;
  cfg.pipeline.block = c.block;
  cfg.pipeline.du = 3;
  cfg.baseline.threads = c.teams * c.t;
  cfg.baseline.block = {6, 5, 4};
  cfg.wavefront.threads = 3;

  core::StencilSolver solver =
      core::make_solver(c.variant, "lbm", cfg, initial, &codes);
  solver.advance(c.steps);

  // Oracle: the identical LbmState advanced by the naive cell loop.
  LbmState oracle(geometry_from_codes(codes), cfg.lbm, initial);
  core::Grid3 carrier = initial.clone();
  reference_advance(oracle, carrier, c.steps);

  // Carrier density and the full distribution lattices, bit for bit.
  EXPECT_EQ(core::max_abs_diff(solver.solution(), carrier), 0.0) << c;
  ASSERT_NE(solver.lbm_state(), nullptr);
  EXPECT_EQ(solver.lbm_state()->current(c.steps).max_abs_diff(
                oracle.current(c.steps)),
            0.0)
      << c;

  // The in-place AA storage under the SAME schedule and obstacle
  // geometry must reproduce the two-lattice oracle bit for bit —
  // carrier AND decoded distributions.
  core::StencilSolver aa =
      core::make_solver(c.variant, "lbm:aa", cfg, initial, &codes);
  aa.advance(c.steps);
  EXPECT_EQ(core::max_abs_diff(aa.solution(), carrier), 0.0)
      << c << " (aa)";
  ASSERT_NE(aa.lbm_state(), nullptr);
  EXPECT_EQ(aa.lbm_state()->storage(), LbmStorage::kAA);
  EXPECT_EQ(aa.lbm_state()->current(c.steps).max_abs_diff(
                oracle.current(c.steps)),
            0.0)
      << c << " (aa)";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LbmEquivalence,
    ::testing::Values(
        LbmCase{"baseline", 1, 2, 1},
        LbmCase{"pipelined", 1, 1, 1}, LbmCase{"pipelined", 1, 2, 1},
        LbmCase{"pipelined", 1, 2, 2}, LbmCase{"pipelined", 2, 2, 1},
        LbmCase{"pipelined", 1, 4, 1},
        LbmCase{"pipelined", 1, 3, 2, core::SyncMode::kRelaxed,
                core::BlockSize{5, 4, 3}, 12},
        LbmCase{"pipelined", 2, 2, 1, core::SyncMode::kBarrier},
        LbmCase{"pipelined", 1, 2, 2, core::SyncMode::kRelaxed,
                core::BlockSize{14, 14, 2}},
        LbmCase{"pipelined", 1, 2, 2, core::SyncMode::kRelaxed,
                core::BlockSize{2, 2, 2}},
        LbmCase{"compressed", 1, 2, 2},
        LbmCase{"compressed", 1, 2, 2, core::SyncMode::kRelaxed,
                core::BlockSize{2, 2, 2}, 12},
        LbmCase{"wavefront", 1, 2, 2},
        // Remainder steps: 7 is a multiple of neither depth 4 nor 3.
        LbmCase{"pipelined", 1, 2, 2, core::SyncMode::kRelaxed,
                core::BlockSize{5, 4, 3}, 7},
        LbmCase{"compressed", 1, 2, 2, core::SyncMode::kRelaxed,
                core::BlockSize{5, 4, 3}, 7},
        LbmCase{"wavefront", 1, 2, 2, core::SyncMode::kRelaxed,
                core::BlockSize{5, 4, 3}, 7}));

TEST(Lbm, IncrementalAdvanceMatchesOneShot) {
  // The facade's LevelOrigin bookkeeping: chained advances must keep the
  // distribution parity and the carrier in lock step.
  const int n = 12;
  core::Grid3 initial(n, n, n);
  initial.fill(1.0);
  core::SolverConfig cfg;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.steps_per_thread = 2;
  cfg.pipeline.block = {5, 4, 3};
  core::StencilSolver once = core::make_solver("pipelined", "lbm", cfg,
                                               initial);
  once.advance(9);
  core::StencilSolver stepwise = core::make_solver("pipelined", "lbm", cfg,
                                                   initial);
  stepwise.advance(4);  // 1 sweep
  stepwise.advance(5);  // 1 sweep + 1 remainder
  EXPECT_EQ(core::max_abs_diff(once.solution(), stepwise.solution()), 0.0);
  EXPECT_EQ(once.lbm_state()->current(9).max_abs_diff(
                stepwise.lbm_state()->current(9)),
            0.0);
}

TEST(Lbm, DefaultGeometryIsTheLidDrivenCavity) {
  const int n = 10;
  core::Grid3 initial(n, n, n);
  initial.fill(1.0);
  core::SolverConfig cfg;
  core::StencilSolver solver = core::make_solver("baseline", "lbm", cfg,
                                                 initial);
  const LbmState* state = solver.lbm_state();
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->geometry().at(n / 2, n / 2, n - 1), Cell::kLid);
  EXPECT_EQ(state->geometry().at(0, n / 2, n / 2), Cell::kWall);
  EXPECT_EQ(state->geometry().at(n / 2, n / 2, n / 2), Cell::kFluid);
  const double mass0 = state->current(0).total_mass(state->geometry());
  solver.advance(12);
  EXPECT_NEAR(state->current(12).total_mass(state->geometry()) / mass0,
              1.0, 1e-12);
}

TEST(Lbm, CodeBalanceMotivation) {
  // D3Q19 moves ~19x more bytes per update than the Jacobi stencil —
  // the reason the paper motivates temporal blocking with LBM.
  EXPECT_EQ(bytes_per_update_nt(), 19 * 16.0);
  EXPECT_GT(bytes_per_update_two_lattice() / 24.0, 15.0);
  // The AA pattern halves that again: one lattice, no write-allocate.
  EXPECT_EQ(bytes_per_update_aa(), 19 * 16.0);
  EXPECT_LT(bytes_per_update_aa() / bytes_per_update_two_lattice(), 0.7);
}

// ---- the in-place AA storage policy ------------------------------------

TEST(LbmAa, RequiresAFullySolidOuterLayer) {
  const int n = 8;
  core::Grid3 initial(n, n, n);
  initial.fill(1.0);
  // Puncture each of the six faces in turn: the check scans the faces
  // only, so every one of them must be covered.
  const int m = n / 2, e = n - 1;
  const int punctures[6][3] = {{0, m, m}, {e, m, m}, {m, 0, m},
                               {m, e, m}, {m, m, 0}, {m, m, e}};
  for (const auto& p : punctures) {
    Geometry geo = Geometry::cavity(n, n, n);
    geo.set(p[0], p[1], p[2], Cell::kFluid);
    // The ping-pong tolerates the (frozen) fluid hull cell; AA cannot.
    EXPECT_NO_THROW(
        LbmState(geo, LbmConfig{}, initial, LbmStorage::kTwoLattice));
    EXPECT_THROW(LbmState(geo, LbmConfig{}, initial, LbmStorage::kAA),
                 std::invalid_argument)
        << p[0] << "," << p[1] << "," << p[2];
  }
  // The unpunctured cavity (wall hull + lid top) is fine.
  EXPECT_NO_THROW(LbmState(Geometry::cavity(n, n, n), LbmConfig{}, initial,
                           LbmStorage::kAA));
}

TEST(LbmAa, StorageLayoutContractsThrowLoudly) {
  const int n = 6;
  core::Grid3 initial(n, n, n);
  initial.fill(1.0);
  LbmState two(Geometry::cavity(n, n, n), LbmConfig{}, initial,
               LbmStorage::kTwoLattice);
  LbmState aa(Geometry::cavity(n, n, n), LbmConfig{}, initial,
              LbmStorage::kAA);
  // Parity is normalized: any even (odd) level selects the same lattice,
  // including negative parities (the old negative-% bug silently handed
  // out the odd lattice for every nonzero input).
  EXPECT_EQ(&two.lattice(-2), &two.lattice(0));
  EXPECT_EQ(&two.lattice(-1), &two.lattice(1));
  EXPECT_EQ(&two.lattice(3), &two.lattice(1));
  EXPECT_NE(&two.lattice(0), &two.lattice(1));
  // Layout accessors are storage-checked...
  EXPECT_THROW((void)two.aa(), std::logic_error);
  EXPECT_THROW((void)aa.lattice(0), std::logic_error);
  EXPECT_NO_THROW((void)aa.aa());
  // ...and current() takes an ABSOLUTE level for either storage.
  EXPECT_THROW((void)two.current(-1), std::invalid_argument);
  EXPECT_THROW((void)aa.current(-3), std::invalid_argument);
  EXPECT_NO_THROW((void)aa.current(0));
}

TEST(LbmAa, InitialDecodeMatchesTheTwoLatticeInit) {
  // Level 0 through the AA decode must be bitwise the equilibrium init
  // the ping-pong stores directly — including the rho<=0 fallback.
  const int n = 9;
  core::Grid3 initial(n, n, n);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        initial.at(i, j, k) = 0.9 + 0.01 * i - 0.02 * j + 0.005 * k;
  initial.at(2, 3, 4) = -1.0;  // exercises the cfg.rho0 fallback
  LbmState two(Geometry::cavity(n, n, n), LbmConfig{}, initial,
               LbmStorage::kTwoLattice);
  LbmState aa(Geometry::cavity(n, n, n), LbmConfig{}, initial,
              LbmStorage::kAA);
  EXPECT_EQ(aa.current(0).max_abs_diff(two.current(0)), 0.0);
}

// ---- geometry-aware throughput accounting ------------------------------

TEST(Lbm, FluidInteriorCountsExcludeSolidCells) {
  const int n = 14;
  core::Grid3 initial(n, n, n);
  initial.fill(1.0);
  const long long interior = 1LL * (n - 2) * (n - 2) * (n - 2);
  LbmState cavity(Geometry::cavity(n, n, n), LbmConfig{}, initial);
  EXPECT_EQ(cavity.fluid_interior_cells(), interior);
  // The obstacle geometry blocks two interior cells.
  LbmState obstacle(geometry_from_codes(obstacle_cavity_codes(n)),
                    LbmConfig{}, initial);
  EXPECT_EQ(obstacle.fluid_interior_cells(), interior - 2);
}

TEST(Lbm, RunStatsCountFluidUpdatesNotInteriorCells) {
  // MLUP/s for lbm must count the updates actually performed: solid
  // cells only copy the carrier through.  Both storages, and the
  // blocked variants' remainder phases, report the same count.
  const int n = 14, steps = 7;
  const core::Grid3 codes = obstacle_cavity_codes(n);
  core::Grid3 initial(n, n, n);
  initial.fill(1.0);
  const long long fluid = 1LL * (n - 2) * (n - 2) * (n - 2) - 2;
  for (const char* op : {"lbm", "lbm:aa"})
    for (const char* variant : {"reference", "baseline", "pipelined"}) {
      core::SolverConfig cfg;
      cfg.lbm_geometry_from_aux = true;
      cfg.baseline.threads = 2;
      cfg.pipeline.team_size = 2;
      cfg.pipeline.steps_per_thread = 2;
      cfg.pipeline.block = {5, 4, 3};
      core::StencilSolver solver =
          core::make_solver(variant, op, cfg, initial, &codes);
      const core::RunStats st = solver.advance(steps);
      EXPECT_EQ(st.cell_updates, fluid * steps)
          << variant << "/" << op;
      EXPECT_EQ(st.levels, steps) << variant << "/" << op;
    }
  // Geometry-oblivious operators keep the plain interior count.
  core::SolverConfig cfg;
  core::StencilSolver jacobi =
      core::make_solver("reference", "jacobi", cfg, initial);
  EXPECT_EQ(jacobi.advance(3).cell_updates,
            1LL * (n - 2) * (n - 2) * (n - 2) * 3);
}

}  // namespace
}  // namespace tb::lbm
