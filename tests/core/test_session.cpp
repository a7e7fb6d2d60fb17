// SolverSession: the re-entrant arena behind the scenario engine.
//
// The load-bearing property: running the FULL 5-variant x 6-operator
// matrix twice through one session gives (a) bit-identical solutions to
// a fresh StencilSolver per case, (b) ZERO new AlignedBuffer
// allocations on the second pass (every grid, lattice and coefficient
// buffer is reused in place), and (c) a pool hit per repeated case.
// Plus the reset() semantics the pool rests on: rewind-to-level-0
// equals fresh construction for every operator, including the stateful
// ones (varcoef face coefficients, lbm lattices/geometry, redblack
// level origin).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/session.hpp"
#include "core/solver.hpp"
#include "lbm/stencil_op.hpp"
#include "support/grid_test_utils.hpp"
#include "util/aligned_buffer.hpp"

namespace tb::core {
namespace {

using tb::test::expect_grids_bitwise_equal;
using tb::test::make_initial;
using tb::test::make_kappa;

const std::vector<std::string> kVariants{
    "reference", "baseline", "pipelined", "compressed", "wavefront"};
const std::vector<std::string> kOperators{"jacobi", "varcoef",  "box27",
                                          "redblack", "lbm", "lbm:aa"};

/// One matrix case through the session; aux grids where the operator
/// needs them (varcoef kappa; lbm runs the built-in cavity).
SolveRequest matrix_request(const std::string& variant,
                            const std::string& op, const Grid3& initial,
                            const Grid3& kappa, int steps) {
  SolveRequest req;
  req.variant = variant;
  req.op = op;
  req.cfg.pipeline.team_size = 2;
  req.cfg.pipeline.block = {initial.nx(), 8, 8};
  req.cfg.baseline.threads = 2;
  req.cfg.wavefront.threads = 2;
  req.initial = &initial;
  req.aux = op == "varcoef" ? &kappa : nullptr;
  req.steps = steps;
  return req;
}

TEST(SolverSession, FullMatrixTwiceBitIdenticalZeroRealloc) {
  const int n = 12, steps = 5;
  const Grid3 initial = make_initial(n);
  const Grid3 kappa = make_kappa(n);

  // Fresh-solver oracles, one per (variant, operator).
  std::vector<Grid3> expected;
  for (const std::string& v : kVariants)
    for (const std::string& op : kOperators) {
      const SolveRequest req =
          matrix_request(v, op, initial, kappa, steps);
      StencilSolver fresh =
          make_solver(v, op, req.cfg, initial, req.aux);
      fresh.advance(steps);
      expected.push_back(fresh.solution().clone());
    }

  SolverSession session;

  // Pass 1: every case constructs its solver and must already match the
  // fresh result bit for bit.
  std::size_t idx = 0;
  for (const std::string& v : kVariants)
    for (const std::string& op : kOperators) {
      const SolveRequest req =
          matrix_request(v, op, initial, kappa, steps);
      const SolveResult r = session.solve(req);
      ASSERT_NE(r.solver, nullptr) << v << "/" << op;
      EXPECT_FALSE(r.reused) << v << "/" << op;
      expect_grids_bitwise_equal(r.solver->solution(), expected[idx]);
      ++idx;
    }
  EXPECT_EQ(session.pool_size(), kVariants.size() * kOperators.size());
  EXPECT_EQ(session.solvers_created(),
            kVariants.size() * kOperators.size());
  EXPECT_EQ(session.solvers_reused(), 0u);

  // Pass 2: zero new buffer allocations — the arena high-water mark and
  // allocation count must not move — and every case is a pool hit,
  // still bit-identical.
  const std::uint64_t allocs_before = util::buffer_alloc_count();
  const std::uint64_t peak_before = util::buffer_bytes_high_water();
  idx = 0;
  for (const std::string& v : kVariants)
    for (const std::string& op : kOperators) {
      const SolveRequest req =
          matrix_request(v, op, initial, kappa, steps);
      const SolveResult r = session.solve(req);
      ASSERT_NE(r.solver, nullptr) << v << "/" << op;
      EXPECT_TRUE(r.reused) << v << "/" << op;
      expect_grids_bitwise_equal(r.solver->solution(), expected[idx]);
      ++idx;
    }
  EXPECT_EQ(util::buffer_alloc_count(), allocs_before)
      << "second pass must not allocate any grid/lattice buffer";
  EXPECT_EQ(util::buffer_bytes_high_water(), peak_before);
  EXPECT_EQ(session.solvers_reused(),
            kVariants.size() * kOperators.size());
  EXPECT_EQ(session.pool_size(), kVariants.size() * kOperators.size());
}

// ---- pipeline depth resolution ----------------------------------------

/// A t = 4 pipelined request with the depth left to the model.
SolveRequest depth_request(const std::string& variant, const std::string& op,
                           const Grid3& initial, const Grid3& kappa,
                           int steps) {
  SolveRequest req = matrix_request(variant, op, initial, kappa, steps);
  req.cfg.pipeline.team_size = 4;
  req.cfg.baseline.threads = 4;
  return req;
}

TEST(DepthResolution, StepCapPicksTheDeepestWholeSweep) {
  // On any host the model ranks deeper pipelines higher for a small
  // Jacobi block, so the step count alone decides.
  for (const auto& [steps, want] :
       {std::pair{16, 4}, std::pair{15, 2}, std::pair{8, 2},
        std::pair{7, 1}, std::pair{3, 1}}) {
    SolverConfig cfg;
    cfg.pipeline.team_size = 4;
    cfg.pipeline.block = {12, 8, 8};
    resolve_depth(cfg.pipeline, "jacobi", steps);
    EXPECT_EQ(cfg.pipeline.steps_per_thread, want) << steps << " steps";
  }
  SolverConfig uncapped;
  uncapped.pipeline.team_size = 4;
  uncapped.pipeline.block = {12, 8, 8};
  resolve_depth(uncapped.pipeline, "jacobi");
  EXPECT_EQ(uncapped.pipeline.steps_per_thread, kDepthLadder.back());
}

TEST(DepthResolution, SessionRunsTheResolvedDepthWithoutRemainder) {
  const Grid3 initial = make_initial(12);
  const Grid3 kappa = make_kappa(12);
  for (const char* variant : {"pipelined", "compressed"})
    for (const auto& [steps, want] : {std::pair{16, 4}, std::pair{8, 2}}) {
      SolverSession session;
      const SolveResult r = session.solve(
          depth_request(variant, "jacobi", initial, kappa, steps));
      ASSERT_NE(r.solver, nullptr);
      const PipelineConfig& ran = r.solver->config().pipeline;
      EXPECT_EQ(ran.steps_per_thread, want) << variant << " " << steps;
      EXPECT_EQ(steps % ran.levels_per_sweep(), 0)
          << variant << ": a remainder phase ran";
    }
}

TEST(DepthResolution, ExplicitDepthIsKept) {
  const Grid3 initial = make_initial(12);
  const Grid3 kappa = make_kappa(12);
  SolverSession session;
  SolveRequest req = depth_request("pipelined", "jacobi", initial, kappa, 16);
  req.cfg.pipeline.steps_per_thread = 1;
  EXPECT_EQ(session.solve(req).solver->config().pipeline.steps_per_thread, 1);

  SolverConfig cfg = req.cfg;
  cfg.pipeline.steps_per_thread = 2;
  resolve_depth(cfg.pipeline, "jacobi", 4);  // would cap an unset depth at T = 1
  EXPECT_EQ(cfg.pipeline.steps_per_thread, 2);
  StencilSolver solver(cfg, initial);
  EXPECT_EQ(solver.config().pipeline.steps_per_thread, 2);
}

TEST(DepthResolution, FacadeReportsTheResolvedDepth) {
  const Grid3 initial = make_initial(12);
  for (const char* variant : {"baseline", "pipelined", "compressed"}) {
    SolverConfig cfg;
    ASSERT_TRUE(apply_variant(cfg, variant));
    cfg.pipeline.team_size = 2;
    cfg.pipeline.block = {12, 8, 8};
    cfg.baseline.threads = 2;
    SolverConfig want = cfg;
    resolve_depth(want.pipeline, "jacobi");
    StencilSolver solver(cfg, initial);
    EXPECT_EQ(solver.config().pipeline.steps_per_thread,
              want.pipeline.steps_per_thread)
        << variant;
    EXPECT_GE(solver.config().pipeline.steps_per_thread, 1) << variant;
  }
}

TEST(DepthResolution, DefaultDepthRunsMatchTheReference) {
  const int n = 12;
  const Grid3 initial = make_initial(n);
  const Grid3 kappa = make_kappa(n);
  for (const std::string& op : kOperators)
    for (const int steps : {8, 16}) {
      const SolveRequest ref_req =
          depth_request("reference", op, initial, kappa, steps);
      StencilSolver ref =
          make_solver("reference", op, ref_req.cfg, initial, ref_req.aux);
      ref.advance(steps);
      for (const char* variant : {"pipelined", "compressed"}) {
        SolverSession session;
        const SolveResult r = session.solve(
            depth_request(variant, op, initial, kappa, steps));
        ASSERT_NE(r.solver, nullptr) << variant << "/" << op;
        EXPECT_GT(r.solver->config().pipeline.steps_per_thread, 1)
            << variant << "/" << op << " " << steps;
        expect_grids_bitwise_equal(r.solver->solution(), ref.solution());
      }
    }
}

/// Geometry codes of a closed box whose top z face is the lid, plus
/// an optional solid pillar through the middle column.
Grid3 box_codes(int nx, int ny, int nz, bool pillar) {
  Grid3 codes(nx, ny, nz);
  codes.fill(0.0);
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        if (i == 0 || j == 0 || k == 0 || i == nx - 1 || j == ny - 1 ||
            k == nz - 1)
          codes.at(i, j, k) = k == nz - 1 ? 2.0 : 1.0;
        else if (pillar && i == nx / 2 && j == ny / 2)
          codes.at(i, j, k) = 1.0;
      }
  return codes;
}

TEST(SolverSession, LbmGeometryCodesResetRebuildsGeometry) {
  const int n = 10, steps = 4;
  Grid3 density(n, n, n);
  density.fill(1.0);

  // The cavity, and the same box with a solid pillar: a genuinely
  // different flow.
  const Grid3 cavity = box_codes(n, n, n, false);
  const Grid3 pillar = box_codes(n, n, n, true);

  SolveRequest req;
  req.variant = "baseline";
  req.op = "lbm";
  req.cfg.lbm_geometry_from_aux = true;
  req.cfg.baseline.threads = 2;
  req.initial = &density;
  req.aux = &cavity;
  req.steps = steps;

  SolverSession session;
  const SolveResult first = session.solve(req);
  ASSERT_NE(first.solver, nullptr);

  // Same key, new geometry: the pooled solver must rebuild its masks
  // and match a fresh solver on the pillar geometry bit for bit.
  req.aux = &pillar;
  const SolveResult second = session.solve(req);
  ASSERT_NE(second.solver, nullptr);
  EXPECT_TRUE(second.reused);
  EXPECT_EQ(second.solver, first.solver);

  StencilSolver fresh(second.solver->config(), density, pillar);
  fresh.advance(steps);
  expect_grids_bitwise_equal(second.solver->solution(), fresh.solution());
}

/// Carrier, every lattice component of the current level and the update
/// count (a stale fluid count shows there) of two solvers agree bitwise.
void expect_lbm_solvers_equal(const StencilSolver& got,
                              const RunStats& got_stats,
                              const StencilSolver& want,
                              const RunStats& want_stats) {
  expect_grids_bitwise_equal(got.solution(), want.solution());
  EXPECT_EQ(got_stats.cell_updates, want_stats.cell_updates);
  const lbm::Lattice& a = got.lbm_state()->current(got.levels_done());
  const lbm::Lattice& b = want.lbm_state()->current(want.levels_done());
  for (int q = 0; q < lbm::kQ; ++q) expect_grids_bitwise_equal(a.f(q), b.f(q));
}

TEST(SolverSession, LbmResetMatchesFreshAcrossGeometriesAndThreads) {
  // 3 threads over 10 planes: uneven fill slabs.  The density includes
  // non-positive cells, which take the rho0 fallback.
  const int nx = 13, ny = 11, nz = 10, steps = 5;
  Grid3 density(nx, ny, nz);
  fill_test_pattern(density, 0.05);
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) density.at(i, j, k) += 1.0;
  density.at(4, 5, 3) = 0.0;
  density.at(6, 2, 7) = -0.5;
  density.at(0, 3, 4) = -1.0;   // hull cell: feeds AA's streamed slots
  density.at(12, 10, 9) = 0.0;  // corner
  const Grid3 cavity = box_codes(nx, ny, nz, false);
  const Grid3 pillar = box_codes(nx, ny, nz, true);

  for (const std::string& op : {std::string("lbm"), std::string("lbm:aa")})
    for (const std::string& variant :
         {std::string("baseline"), std::string("pipelined")}) {
      SCOPED_TRACE(variant + "/" + op);
      SolveRequest req;
      req.variant = variant;
      req.op = op;
      req.cfg.lbm_geometry_from_aux = true;
      req.cfg.baseline.threads = 3;
      req.cfg.pipeline.team_size = 3;
      req.cfg.pipeline.block = {nx, 4, 4};
      req.initial = &density;
      req.steps = steps;

      SolverSession session;
      StencilSolver* pooled = nullptr;
      const std::uint64_t* masks = nullptr;
      // cavity -> pillar -> cavity through the pool, then a reset with no
      // aux, which keeps the cavity geometry.
      for (const Grid3* codes : {&cavity, &pillar, &cavity,
                                 static_cast<const Grid3*>(nullptr)}) {
        RunStats stats;
        if (codes != nullptr) {
          req.aux = codes;
          const SolveResult r = session.solve(req);
          ASSERT_NE(r.solver, nullptr);
          EXPECT_EQ(r.reused, pooled != nullptr);
          pooled = r.solver;
          stats = r.stats;
        } else {
          pooled->reset(density);
          stats = pooled->advance(steps);
        }
        // Masks are rebuilt or kept in place, never reallocated.
        const std::uint64_t* row = pooled->lbm_state()->mask_row(1, 1);
        if (masks != nullptr) {
          EXPECT_EQ(row, masks);
        }
        masks = row;

        const Grid3& geometry = codes != nullptr ? *codes : cavity;
        StencilSolver fresh = make_solver(variant, op, pooled->config(),
                                          density, &geometry);
        const RunStats fresh_stats = fresh.advance(steps);
        expect_lbm_solvers_equal(*pooled, stats, fresh, fresh_stats);
      }
    }
}

TEST(SolverSession, VarcoefResetRebuildsCoefficients) {
  const int n = 10, steps = 4;
  const Grid3 initial = make_initial(n);
  const Grid3 slab = make_kappa(n);
  Grid3 uniform(n, n, n);
  uniform.fill(2.5);

  SolveRequest req;
  req.variant = "pipelined";
  req.op = "varcoef";
  req.cfg.pipeline.team_size = 2;
  req.cfg.pipeline.block = {n, 8, 8};
  req.initial = &initial;
  req.aux = &slab;
  req.steps = steps;

  SolverSession session;
  ASSERT_NE(session.solve(req).solver, nullptr);

  req.aux = &uniform;
  const SolveResult r = session.solve(req);
  ASSERT_TRUE(r.reused);

  StencilSolver fresh(r.solver->config(), initial, uniform);
  fresh.advance(steps);
  expect_grids_bitwise_equal(r.solver->solution(), fresh.solution());
}

TEST(SolverSession, DistinctShapesGetDistinctSolvers) {
  const Grid3 small = make_initial(8);
  const Grid3 big = make_initial(12);

  SolveRequest req;
  req.variant = "baseline";
  req.op = "jacobi";
  req.steps = 2;

  SolverSession session;
  req.initial = &small;
  const StencilSolver* s1 = session.solve(req).solver;
  req.initial = &big;
  const StencilSolver* s2 = session.solve(req).solver;
  EXPECT_NE(s1, s2);
  EXPECT_EQ(session.pool_size(), 2u);
  EXPECT_EQ(session.solvers_reused(), 0u);
}

TEST(SolverSession, MaxSolversBoundsThePool) {
  SessionOptions opts;
  opts.max_solvers = 1;
  SolverSession session(opts);

  const Grid3 a = make_initial(8);
  const Grid3 b = make_initial(10);
  SolveRequest req;
  req.variant = "reference";
  req.op = "jacobi";
  req.steps = 2;

  req.initial = &a;
  EXPECT_NE(session.solve(req).solver, nullptr);
  req.initial = &b;
  // Pool full: the solve still runs, but nothing is retained.
  EXPECT_EQ(session.solve(req).solver, nullptr);
  EXPECT_EQ(session.pool_size(), 1u);
  // The pooled key still hits.
  req.initial = &a;
  EXPECT_TRUE(session.solve(req).reused);
}

TEST(SolverSession, NullInitialThrows) {
  SolverSession session;
  SolveRequest req;
  req.variant = "baseline";
  req.op = "jacobi";
  EXPECT_THROW(session.solve(req), std::invalid_argument);
}

TEST(StencilSolverReset, ShapeMismatchThrows) {
  const Grid3 initial = make_initial(8);
  const Grid3 other = make_initial(10);
  SolverConfig cfg;
  cfg.variant = Variant::kReference;
  StencilSolver solver(cfg, initial);
  EXPECT_THROW(solver.reset(other), std::invalid_argument);
}

TEST(StencilSolverReset, RewindsAfterOddStepCounts) {
  // Odd step counts leave the facade with swapped parities internally;
  // reset must still reproduce a fresh solver exactly.
  for (const std::string& v :
       {std::string("baseline"), std::string("compressed"),
        std::string("wavefront")}) {
    const Grid3 initial = make_initial(9);
    SolverConfig cfg;
    cfg.pipeline.team_size = 2;
    cfg.pipeline.block = {9, 8, 8};
    cfg.baseline.threads = 2;
    cfg.wavefront.threads = 2;
    StencilSolver solver = make_solver(v, "jacobi", cfg, initial, nullptr);
    solver.advance(3);  // odd: parity swap path
    solver.reset(initial);
    EXPECT_EQ(solver.levels_done(), 0);
    solver.advance(5);

    StencilSolver fresh = make_solver(v, "jacobi", cfg, initial, nullptr);
    fresh.advance(5);
    expect_grids_bitwise_equal(solver.solution(), fresh.solution());
  }
}

}  // namespace
}  // namespace tb::core
