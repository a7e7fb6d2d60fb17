// Tests for the norms/reductions and grid persistence utilities.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/grid_test_utils.hpp"
#include "core/grid_io.hpp"
#include "core/norms.hpp"
#include "core/reference.hpp"
#include "core/solver.hpp"

namespace tb::core {
namespace {

using tb::test::make_initial;

// ---- norms -------------------------------------------------------------

TEST(Norms, LinfKnownValues) {
  Grid3 g(5, 5, 5);
  g.fill(0.0);
  g.at(2, 2, 2) = -7.5;
  g.at(0, 0, 0) = 100.0;  // boundary: excluded from interior norms
  EXPECT_DOUBLE_EQ(linf_norm(g), 7.5);
}

TEST(Norms, L2KnownValues) {
  Grid3 g(4, 4, 4);
  g.fill(0.0);
  g.at(1, 1, 1) = 3.0;
  g.at(2, 2, 2) = 4.0;
  EXPECT_DOUBLE_EQ(l2_norm(g), 5.0);
}

TEST(Norms, ThreadedMatchesSerial) {
  Grid3 g = make_initial(23);
  util::ThreadPool pool(4);
  // Max-reductions are grouping-independent: bitwise equal.
  EXPECT_EQ(linf_norm(g), linf_norm(g, &pool));
  EXPECT_EQ(jacobi_residual(g), jacobi_residual(g, &pool));
  // Sum-reductions regroup the FP additions: equal to rounding only.
  const double serial = l2_norm(g);
  EXPECT_NEAR(l2_norm(g, &pool), serial, 1e-12 * serial);
}

TEST(Norms, ThreadedIsDeterministicAcrossRuns) {
  Grid3 g = make_initial(17);
  util::ThreadPool pool(3);
  const double a = l2_norm(g, &pool);
  const double b = l2_norm(g, &pool);
  EXPECT_EQ(a, b);  // fixed partition + ordered combine
}

TEST(Norms, LinfDiffDetectsSingleCell) {
  Grid3 a = make_initial(10);
  Grid3 b = a.clone();
  EXPECT_EQ(linf_diff(a, b), 0.0);
  b.at(4, 5, 6) += 0.25;
  EXPECT_DOUBLE_EQ(linf_diff(a, b), 0.25);
}

TEST(Norms, JacobiResidualDecreasesUnderSweeps) {
  const Grid3 initial = make_initial(16);
  SolverConfig cfg;
  cfg.variant = Variant::kReference;
  StencilSolver solver(cfg, initial);
  const double r0 = jacobi_residual(solver.solution());
  solver.advance(50);
  const double r50 = jacobi_residual(solver.solution());
  EXPECT_LT(r50, 0.5 * r0);
}

TEST(Norms, ResidualZeroAtExactSolution) {
  // Linear field u = x is harmonic: the Jacobi update leaves it fixed.
  Grid3 g(8, 8, 8);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i) g.at(i, j, k) = static_cast<double>(i);
  EXPECT_NEAR(jacobi_residual(g), 0.0, 1e-15);
}

// ---- checkpoints --------------------------------------------------------

TEST(GridIo, CheckpointRoundTripIsExact) {
  const Grid3 g = make_initial(13);
  const std::string path = "/tmp/tb_ckpt_test.bin";
  ASSERT_TRUE(save_checkpoint(g, path));
  const LoadResult r = load_checkpoint(path);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(max_abs_diff(g, r.grid), 0.0);
  std::filesystem::remove(path);
}

TEST(GridIo, LoadRejectsGarbage) {
  const std::string path = "/tmp/tb_ckpt_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a checkpoint";
  }
  EXPECT_FALSE(load_checkpoint(path).ok);
  EXPECT_FALSE(load_checkpoint("/nonexistent/nope.bin").ok);
  std::filesystem::remove(path);
}

TEST(GridIo, LoadRejectsTruncated) {
  const Grid3 g = make_initial(10);
  const std::string path = "/tmp/tb_ckpt_trunc.bin";
  ASSERT_TRUE(save_checkpoint(g, path));
  std::filesystem::resize_file(path, 64);
  EXPECT_FALSE(load_checkpoint(path).ok);
  std::filesystem::remove(path);
}

TEST(GridIo, RestartContinuesBitIdentically) {
  const Grid3 initial = make_initial(12);
  SolverConfig cfg;
  cfg.variant = Variant::kPipelined;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.block = {4, 4, 4};

  // Uninterrupted run: 6 + 6 steps.
  StencilSolver full(cfg, initial);
  full.advance(12);

  // Interrupted run: checkpoint after 6, restart, 6 more.
  StencilSolver first(cfg, initial);
  first.advance(6);
  const std::string path = "/tmp/tb_ckpt_restart.bin";
  ASSERT_TRUE(save_checkpoint(first.solution(), path));
  const LoadResult r = load_checkpoint(path);
  ASSERT_TRUE(r.ok);
  StencilSolver second(cfg, r.grid);
  second.advance(6);
  std::filesystem::remove(path);

  EXPECT_EQ(max_abs_diff(full.solution(), second.solution()), 0.0);
}

TEST(GridIo, VtkFileHasExpectedStructure) {
  const Grid3 g = make_initial(6);
  const std::string path = "/tmp/tb_test.vtk";
  ASSERT_TRUE(write_vtk(g, path, "temperature"));
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("DIMENSIONS 6 6 6"), std::string::npos);
  EXPECT_NE(all.find("SCALARS temperature double 1"), std::string::npos);
  EXPECT_NE(all.find("POINT_DATA 216"), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tb::core
