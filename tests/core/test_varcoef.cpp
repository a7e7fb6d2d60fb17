// Tests of the variable-coefficient diffusion stencil on the pipelined
// engine (generality of the scheme beyond constant-coefficient Jacobi).
#include <gtest/gtest.h>

#include <ostream>

#include "core/norms.hpp"
#include "core/pipeline.hpp"

namespace tb::core {
namespace {

/// Two-material kappa field: a high-conductivity slab inside background.
Grid3 make_kappa(int n) {
  Grid3 kappa(n, n, n);
  kappa.fill(1.0);
  for (int k = n / 3; k < 2 * n / 3; ++k)
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) kappa.at(i, j, k) = 50.0;
  return kappa;
}

Grid3 make_initial(int n) {
  Grid3 g(n, n, n);
  g.fill(0.0);
  for (int k = 0; k < n; ++k)
    for (int j = 0; j < n; ++j) g.at(0, j, k) = 1.0;  // hot face
  return g;
}

TEST(VarCoef, HarmonicFaceCoefficientsAreSymmetric) {
  const int n = 10;
  DiffusionCoefficients c(make_kappa(n));
  // Flux continuity: the +x face of cell i equals the -x face of i+1.
  for (int k = 2; k < n - 2; ++k)
    for (int j = 2; j < n - 2; ++j)
      for (int i = 2; i < n - 3; ++i)
        EXPECT_DOUBLE_EQ(c.face(1).at(i, j, k), c.face(0).at(i + 1, j, k));
}

TEST(VarCoef, UniformKappaReducesToJacobi) {
  const int n = 12;
  Grid3 kappa(n, n, n);
  kappa.fill(3.0);  // any uniform value: all face coefficients equal
  DiffusionCoefficients c(kappa);
  Grid3 u = make_initial(n);
  Grid3 j1 = u.clone(), j2 = u.clone();

  Box all;
  all.lo = {1, 1, 1};
  all.hi = {n - 1, n - 1, n - 1};
  apply_box(VarCoefOp{&c}, u, j1, all, 0);
  // Jacobi: arithmetic mean of the six neighbours.
  for (int k = 1; k < n - 1; ++k)
    for (int j = 1; j < n - 1; ++j)
      for (int i = 1; i < n - 1; ++i)
        j2.at(i, j, k) =
            (u.at(i - 1, j, k) + u.at(i + 1, j, k) + u.at(i, j - 1, k) +
             u.at(i, j + 1, k) + u.at(i, j, k - 1) + u.at(i, j, k + 1)) /
            6.0;
  EXPECT_LT(linf_diff(j1, j2), 1e-15);
}

struct VcCase {
  int teams, t, T;
  SyncMode sync;

  friend std::ostream& operator<<(std::ostream& os, const VcCase& c) {
    return os << "n" << c.teams << "t" << c.t << "T" << c.T << "_"
              << to_string(c.sync);
  }
};

class VarCoefEquivalence : public ::testing::TestWithParam<VcCase> {};

TEST_P(VarCoefEquivalence, PipelinedMatchesReference) {
  const VcCase c = GetParam();
  const int n = 16;
  PipelineConfig pc;
  pc.teams = c.teams;
  pc.team_size = c.t;
  pc.steps_per_thread = c.T;
  pc.sync = c.sync;
  pc.block = {5, 4, 3};
  pc.du = 3;

  const DiffusionCoefficients coeffs(make_kappa(n));
  const VarCoefOp op{&coeffs};
  PipelinedSolver<VarCoefOp> solver(pc, n, n, n, op);

  const Grid3 initial = make_initial(n);
  Grid3 pa = initial.clone(), pb = initial.clone();
  Grid3 ra = initial.clone(), rb = initial.clone();
  const int sweeps = 2;
  solver.run(pa, pb, sweeps);
  Grid3& got = solver.result(pa, pb, sweeps);
  Grid3& want =
      reference_solve_op(op, ra, rb, sweeps * pc.levels_per_sweep());
  EXPECT_EQ(max_abs_diff(got, want), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VarCoefEquivalence,
    ::testing::Values(VcCase{1, 2, 1, SyncMode::kRelaxed},
                      VcCase{1, 4, 2, SyncMode::kRelaxed},
                      VcCase{2, 2, 1, SyncMode::kRelaxed},
                      VcCase{2, 2, 2, SyncMode::kBarrier}));

TEST(VarCoef, ConductiveSlabCarriesMoreHeatInward) {
  // Physics sanity: versus a uniform medium, the high-kappa slab conducts
  // more heat from the hot face deep into the domain — the temperature
  // far from the hot face, at slab height, must be higher.
  const int n = 20;
  const int sweeps = 100;
  auto solve_with = [&](const Grid3& kappa) {
    PipelineConfig pc;
    pc.teams = 1;
    pc.team_size = 2;
    pc.block = {n, 6, 6};
    const DiffusionCoefficients coeffs(kappa);
    PipelinedSolver<VarCoefOp> solver(pc, n, n, n, VarCoefOp{&coeffs});
    const Grid3 initial = make_initial(n);
    Grid3 a = initial.clone(), b = initial.clone();
    solver.run(a, b, sweeps);
    return solver.result(a, b, sweeps).at(3 * n / 4, n / 2, n / 2);
  };
  Grid3 uniform(n, n, n);
  uniform.fill(1.0);
  const double t_uniform = solve_with(uniform);
  const double t_slab = solve_with(make_kappa(n));
  EXPECT_GT(t_slab, 1.5 * t_uniform);
}

TEST(VarCoef, RejectsCompressedScheme) {
  PipelineConfig pc;
  pc.scheme = GridScheme::kCompressed;
  Grid3 kappa(8, 8, 8);
  kappa.fill(1.0);
  const DiffusionCoefficients coeffs(kappa);
  EXPECT_THROW(PipelinedSolver<VarCoefOp>(pc, 8, 8, 8, VarCoefOp{&coeffs}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tb::core
