// The benchmark's correctness check must catch a corrupted solution: a
// single flipped bit anywhere in the unpadded grid, a sign change of a
// zero, or a shape change all count as misses, and padding is ignored --
// compared in memory or streamed from the reference store.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "check.hpp"
#include "core/grid.hpp"
#include "oracle_store.hpp"

namespace {

using tb::core::Grid3;

Grid3 pattern(int nx, int ny, int nz) {
  Grid3 g(nx, ny, nz);
  tb::core::fill_test_pattern(g);
  return g;
}

void flip_lowest_bit(double& v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1u;
  std::memcpy(&v, &bits, sizeof bits);
}

TEST(PerfbenchCheck, IdenticalSolutionsPass) {
  const Grid3 want = pattern(13, 7, 5);
  const Grid3 got = want.clone();
  EXPECT_EQ(perfbench::first_mismatch(got, want), "");
  EXPECT_TRUE(perfbench::same_bits(perfbench::engine_mean(got),
                                   perfbench::engine_mean(want)));
}

TEST(PerfbenchCheck, OneUlpCorruptionIsCaughtEverywhere) {
  const Grid3 want = pattern(13, 7, 5);
  for (const auto& [i, j, k] : {std::array<int, 3>{0, 0, 0},
                                std::array<int, 3>{12, 6, 4},
                                std::array<int, 3>{6, 3, 2}}) {
    Grid3 got = want.clone();
    flip_lowest_bit(got.at(i, j, k));
    char cell[32];
    std::snprintf(cell, sizeof cell, "(%d,%d,%d) ", i, j, k);
    EXPECT_EQ(perfbench::first_mismatch(got, want).rfind(cell, 0), 0u);
  }
}

TEST(PerfbenchCheck, SignedZeroIsAMiss) {
  Grid3 want(8, 2, 2), got(8, 2, 2);
  want.fill(0.0);
  got.fill(0.0);
  got.at(3, 1, 1) = -0.0;
  EXPECT_NE(perfbench::first_mismatch(got, want), "");
}

TEST(PerfbenchCheck, PaddingIsIgnoredAndShapeIsNot) {
  const Grid3 want = pattern(13, 7, 5);  // rows padded to 16 doubles
  Grid3 got = want.clone();
  got.data()[13] = 42.0;  // first padding slot of row (0, 0)
  EXPECT_EQ("", perfbench::first_mismatch(got, want));
  EXPECT_EQ(perfbench::first_mismatch(pattern(13, 7, 4), want), "shape mismatch");
}

TEST(PerfbenchCheck, CorruptedSolutionChangesTheEngineMean) {
  const Grid3 want = pattern(40, 40, 40);
  Grid3 got = want.clone();
  got.at(20, 20, 20) += 1e-6;
  EXPECT_FALSE(perfbench::same_bits(perfbench::engine_mean(got),
                                    perfbench::engine_mean(want)));
}

TEST(PerfbenchCheck, StoredReferenceCatchesACorruptedSolution) {
  const perfbench::OracleStore store(testing::TempDir() + "perfbench_oracles");
  const Grid3 want = pattern(13, 7, 5);
  store.store("key", want);
  ASSERT_TRUE(store.mean("key", 13, 7, 5).has_value());
  EXPECT_TRUE(perfbench::same_bits(*store.mean("key", 13, 7, 5),
                                   perfbench::engine_mean(want)));
  EXPECT_FALSE(store.mean("key", 13, 7, 4).has_value());
  EXPECT_EQ(store.compare("key", want.clone()), "");

  Grid3 got = want.clone();
  flip_lowest_bit(got.at(5, 6, 4));
  EXPECT_EQ(store.compare("key", got).rfind("(5,6,4) ", 0), 0u);
  EXPECT_EQ(store.compare("key", pattern(13, 7, 4)), "shape mismatch");
  EXPECT_EQ(store.compare("other key", want), "reference missing");
}

}  // namespace
