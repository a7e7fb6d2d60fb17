// Unit and property tests for the block plan and the synchronization
// primitives.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <thread>

#include "core/blocks.hpp"
#include "core/config.hpp"
#include "core/sync.hpp"

namespace tb::core {
namespace {

// ---- BlockPlan -------------------------------------------------------

/// Property: for every level and direction, the (clipped) windows of all
/// blocks PARTITION the level's clip region — full coverage, no overlap.
void expect_partition(const BlockPlan& plan, bool forward) {
  for (int level = 1; level <= plan.levels(); ++level) {
    const LevelClip& clip = plan.clip(level);
    long long covered = 0;
    std::set<std::array<int, 3>> starts;
    for (long long c = 0; c < plan.num_blocks(); ++c) {
      const Box w = plan.window(c, level, forward);
      if (w.empty()) continue;
      covered += w.cells();
      EXPECT_TRUE(starts.insert(w.lo).second);  // no duplicate boxes
      for (int d = 0; d < 3; ++d) {
        EXPECT_GE(w.lo[static_cast<std::size_t>(d)],
                  clip.lo[static_cast<std::size_t>(d)]);
        EXPECT_LE(w.hi[static_cast<std::size_t>(d)],
                  clip.hi[static_cast<std::size_t>(d)]);
      }
    }
    long long clip_cells = 1;
    for (int d = 0; d < 3; ++d)
      clip_cells *= std::max(0, clip.hi[static_cast<std::size_t>(d)] -
                                    clip.lo[static_cast<std::size_t>(d)]);
    EXPECT_EQ(covered, clip_cells)
        << "level " << level << " forward=" << forward;
  }
}

struct PlanCase {
  BlockSize block;
  int nx, ny, nz, levels;

  friend std::ostream& operator<<(std::ostream& os, const PlanCase& c) {
    return os << "b" << c.block.bx << "x" << c.block.by << "x" << c.block.bz
              << "_g" << c.nx << "x" << c.ny << "x" << c.nz << "_L"
              << c.levels;
  }
};

class BlockPlanPartition : public ::testing::TestWithParam<PlanCase> {};

TEST_P(BlockPlanPartition, ForwardWindowsPartitionClip) {
  const PlanCase c = GetParam();
  BlockPlan plan(c.block,
                 interior_clips(c.nx, c.ny, c.nz, c.levels));
  expect_partition(plan, /*forward=*/true);
}

TEST_P(BlockPlanPartition, BidirectionalWindowsPartitionClip) {
  const PlanCase c = GetParam();
  BlockPlan plan(c.block, interior_clips(c.nx, c.ny, c.nz, c.levels),
                 /*bidirectional=*/true);
  expect_partition(plan, true);
  expect_partition(plan, false);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockPlanPartition,
    ::testing::Values(PlanCase{{4, 4, 4}, 12, 12, 12, 4},
                      PlanCase{{5, 3, 2}, 17, 11, 9, 6},
                      PlanCase{{1, 1, 1}, 6, 6, 6, 3},
                      PlanCase{{100, 100, 100}, 10, 10, 10, 2},
                      PlanCase{{7, 2, 9}, 23, 8, 31, 8},
                      PlanCase{{3, 3, 3}, 9, 14, 7, 12}));

TEST(BlockPlan, WindowsShiftByOnePerLevel) {
  BlockPlan plan({4, 4, 4}, interior_clips(20, 20, 20, 3));
  // A central block whose windows stay clear of the clip boundaries.
  const std::array<int, 3> central{2, 2, 2};
  const Box w1 = plan.window(central, 1);
  const Box w2 = plan.window(central, 2);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(w2.lo[static_cast<std::size_t>(d)],
              w1.lo[static_cast<std::size_t>(d)] - 1);
    EXPECT_EQ(w2.hi[static_cast<std::size_t>(d)],
              w1.hi[static_cast<std::size_t>(d)] - 1);
  }
}

TEST(BlockPlan, DecodeRoundTrip) {
  BlockPlan plan({3, 4, 5}, interior_clips(20, 21, 22, 2));
  const long long nb = plan.num_blocks();
  EXPECT_EQ(nb, 1LL * plan.nb(0) * plan.nb(1) * plan.nb(2));
  std::set<std::array<int, 3>> seen;
  for (long long c = 0; c < nb; ++c) {
    const auto b = plan.decode(c);
    EXPECT_TRUE(seen.insert(b).second);
    for (int d = 0; d < 3; ++d) {
      EXPECT_GE(b[static_cast<std::size_t>(d)], 0);
      EXPECT_LT(b[static_cast<std::size_t>(d)], plan.nb(d));
    }
  }
}

TEST(BlockPlan, DecodeIsLexicographicXFastest) {
  BlockPlan plan({2, 2, 2}, interior_clips(8, 8, 8, 1));
  const auto b0 = plan.decode(0);
  const auto b1 = plan.decode(1);
  EXPECT_EQ(b1[0], b0[0] + 1);  // x advances first
  EXPECT_EQ(b1[1], b0[1]);
  EXPECT_EQ(b1[2], b0[2]);
}

TEST(BlockPlan, RejectsBadInputs) {
  EXPECT_THROW(BlockPlan({0, 4, 4}, interior_clips(8, 8, 8, 1)),
               std::invalid_argument);
  EXPECT_THROW(BlockPlan({4, 4, 4}, {}), std::invalid_argument);
}

TEST(Box, EmptyAndCells) {
  Box b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.cells(), 0);
  b.lo = {0, 0, 0};
  b.hi = {2, 3, 4};
  EXPECT_FALSE(b.empty());
  EXPECT_EQ(b.cells(), 24);
  b.hi[1] = 0;
  EXPECT_TRUE(b.empty());
}

TEST(BlockSize, CellsAndBytes) {
  BlockSize b{120, 20, 20};
  EXPECT_EQ(b.cells(), 48000);
  EXPECT_EQ(b.bytes(2), 48000u * 8 * 2);
  EXPECT_EQ(b.dim(0), 120);
  EXPECT_EQ(b.dim(2), 20);
}

// ---- PipelineConfig --------------------------------------------------

TEST(PipelineConfig, LevelsAndThreads) {
  PipelineConfig pc;
  pc.teams = 2;
  pc.team_size = 4;
  pc.steps_per_thread = 2;
  EXPECT_EQ(pc.levels_per_sweep(), 16);
  EXPECT_EQ(pc.total_threads(), 8);
  EXPECT_NO_THROW(pc.validate());
}

TEST(PipelineConfig, ValidateCatchesEachField) {
  auto bad = [](auto mutate) {
    PipelineConfig pc;
    mutate(pc);
    EXPECT_THROW(pc.validate(), std::invalid_argument);
  };
  bad([](PipelineConfig& p) { p.teams = 0; });
  bad([](PipelineConfig& p) { p.team_size = 0; });
  bad([](PipelineConfig& p) { p.steps_per_thread = 0; });
  bad([](PipelineConfig& p) { p.block.bx = 0; });
  bad([](PipelineConfig& p) { p.dl = 0; });       // dl = 0 races
  bad([](PipelineConfig& p) { p.du = 0; });       // du < dl deadlocks
  bad([](PipelineConfig& p) { p.dl = 3; p.du = 2; });
  bad([](PipelineConfig& p) { p.dt = -1; });
}

TEST(PipelineConfig, DescribeMentionsKeyParams) {
  PipelineConfig pc;
  pc.du = 7;
  const std::string d = pc.describe();
  EXPECT_NE(d.find("du=7"), std::string::npos);
  EXPECT_NE(d.find("relaxed"), std::string::npos);
}

// ---- synchronization -------------------------------------------------

TEST(DistanceBounds, TeamDelayAppliedAtTeamEdges) {
  const auto b = make_distance_bounds(/*teams=*/2, /*team_size=*/3,
                                      /*dl=*/1, /*du=*/4, /*dt=*/5);
  ASSERT_EQ(b.size(), 6u);
  EXPECT_FALSE(b[0].check_lower);  // overall front
  EXPECT_TRUE(b[0].check_upper);
  EXPECT_FALSE(b[5].check_upper);  // overall rear
  EXPECT_EQ(b[3].dl, 6);           // second team's front: dl + dt
  EXPECT_EQ(b[2].du, 9);           // first team's rear: du + dt
  EXPECT_EQ(b[1].dl, 1);           // mid-team threads unchanged
  EXPECT_EQ(b[1].du, 4);
}

TEST(DistanceBounds, SingleThreadChecksNothing) {
  const auto b = make_distance_bounds(1, 1, 1, 4, 0);
  EXPECT_FALSE(b[0].check_lower);
  EXPECT_FALSE(b[0].check_upper);
}

TEST(ProgressCounters, PublishLoadRoundTrip) {
  ProgressCounters c(3);
  EXPECT_EQ(c.load(1), 0);
  c.publish(1, 7);
  EXPECT_EQ(c.load(1), 7);
  c.reset();
  EXPECT_EQ(c.load(1), 0);
}

TEST(ProgressCounters, CountersAreCacheLinePadded) {
  // Indirect check: container of 8 counters occupies >= 8 cache lines.
  ProgressCounters c(8);
  EXPECT_EQ(c.size(), 8);
  // (alignment is enforced by alignas on the element type)
}

TEST(WaitForClearance, PassesImmediatelyWhenAhead) {
  ProgressCounters c(2);
  const auto bounds = make_distance_bounds(1, 2, 1, 4, 0);
  c.publish(0, 5);
  wait_for_clearance(c, bounds, 1, 3, 100);  // prev is 2 ahead: no block
  SUCCEED();
}

TEST(WaitForClearance, FinishedPredecessorClearsLowerCondition) {
  // Regression for the dt-deadlock: prev saturated at total counts as
  // clearance even though the strict distance cannot be met.
  ProgressCounters c(2);
  auto bounds = make_distance_bounds(2, 1, 1, 4, /*dt=*/6);
  c.publish(0, 10);  // prev finished all 10 blocks
  wait_for_clearance(c, bounds, 1, 9, 10);  // 10 - 9 = 1 < dl+dt = 7
  SUCCEED();
}

TEST(WaitForClearance, ThreadedHandshakeProgresses) {
  constexpr long long kBlocks = 200;
  ProgressCounters c(2);
  const auto bounds = make_distance_bounds(1, 2, 1, 2, 0);
  std::thread t0([&] {
    for (long long i = 0; i < kBlocks; ++i) {
      wait_for_clearance(c, bounds, 0, i, kBlocks);
      c.publish(0, i + 1);
    }
  });
  std::thread t1([&] {
    for (long long i = 0; i < kBlocks; ++i) {
      wait_for_clearance(c, bounds, 1, i, kBlocks);
      c.publish(1, i + 1);
    }
  });
  t0.join();
  t1.join();
  EXPECT_EQ(c.load(0), kBlocks);
  EXPECT_EQ(c.load(1), kBlocks);
}

}  // namespace
}  // namespace tb::core
