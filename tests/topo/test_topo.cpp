// Unit tests for the topology substrate.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "topo/machine.hpp"
#include "topo/placement.hpp"

namespace tb::topo {

// Names each AllPolicies case by its policy instead of a byte dump.
inline void PrintTo(PagePlacement p, std::ostream* os) { *os << to_string(p); }

namespace {

TEST(MachineSpec, NehalemValuesMatchPaper) {
  const MachineSpec m = nehalem_ep();
  EXPECT_EQ(m.sockets, 2);
  EXPECT_EQ(m.cores_per_socket, 4);
  EXPECT_EQ(m.total_cores(), 8);
  EXPECT_DOUBLE_EQ(m.mem_bw_socket, 18.5e9);   // Ms
  EXPECT_DOUBLE_EQ(m.mem_bw_single, 10.0e9);   // Ms,1
  EXPECT_DOUBLE_EQ(m.cache_bw / m.mem_bw_single, 8.0);  // Mc/Ms,1 ~ 8
  EXPECT_EQ(m.shared_cache_bytes, 8u << 20);
  EXPECT_DOUBLE_EQ(m.mem_bw_node(), 37.0e9);
  EXPECT_NO_THROW(m.validate());
}

TEST(MachineSpec, SocketVariant) {
  const MachineSpec m = nehalem_ep_socket();
  EXPECT_EQ(m.sockets, 1);
  EXPECT_EQ(m.total_cores(), 4);
}

TEST(MachineSpec, BandwidthScalableHasScalingBus) {
  const MachineSpec m = bandwidth_scalable();
  EXPECT_DOUBLE_EQ(m.mem_bw_socket / m.mem_bw_single,
                   static_cast<double>(m.cores_per_socket));
}

TEST(MachineSpec, Core2LikeIsBandwidthStarved) {
  const MachineSpec m = core2_like();
  // One core nearly saturates the bus: Ms/Ms,1 close to 1.
  EXPECT_LT(m.mem_bw_socket / m.mem_bw_single, 1.2);
}

TEST(MachineSpec, BarrierCostGrowsWithThreads) {
  const MachineSpec m = nehalem_ep();
  EXPECT_GT(m.barrier_seconds(8), m.barrier_seconds(2));
  EXPECT_GT(m.barrier_seconds(1), 0.0);
}

TEST(MachineSpec, ValidateRejectsNonsense) {
  MachineSpec m = nehalem_ep();
  m.sockets = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = nehalem_ep();
  m.mem_bw_socket = -1;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = nehalem_ep();
  m.shared_cache_bytes = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(Placement, ToString) {
  EXPECT_STREQ(to_string(PagePlacement::kFirstTouch), "first-touch");
  EXPECT_STREQ(to_string(PagePlacement::kRoundRobin), "round-robin");
  EXPECT_STREQ(to_string(PagePlacement::kSerial), "serial");
}

class TouchPages : public ::testing::TestWithParam<PagePlacement> {};

TEST_P(TouchPages, ZeroesEverything) {
  const std::size_t n = 3 * kPageBytes / sizeof(double) + 17;
  std::vector<double> data(n, -1.0);
  touch_pages(data.data(), n, GetParam(), 3);
  for (double x : data) EXPECT_EQ(x, 0.0);
}

TEST_P(TouchPages, HandlesEmptyAndTiny) {
  touch_pages(nullptr, 0, GetParam(), 2);  // must not crash
  std::vector<double> one(1, -1.0);
  touch_pages(one.data(), 1, GetParam(), 4);
  EXPECT_EQ(one[0], 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, TouchPages,
                         ::testing::Values(PagePlacement::kFirstTouch,
                                           PagePlacement::kRoundRobin,
                                           PagePlacement::kSerial));

TEST(PageDomain, RoundRobinInterleaves) {
  const std::size_t per_page = kPageBytes / sizeof(double);
  EXPECT_EQ(page_domain(0, PagePlacement::kRoundRobin, 2, 0), 0);
  EXPECT_EQ(page_domain(per_page, PagePlacement::kRoundRobin, 2, 0), 1);
  EXPECT_EQ(page_domain(2 * per_page, PagePlacement::kRoundRobin, 2, 0), 0);
}

TEST(PageDomain, FirstTouchIsContiguous) {
  EXPECT_EQ(page_domain(10, PagePlacement::kFirstTouch, 2, 100), 0);
  EXPECT_EQ(page_domain(150, PagePlacement::kFirstTouch, 2, 100), 1);
  // Clamped to the last domain.
  EXPECT_EQ(page_domain(1000, PagePlacement::kFirstTouch, 2, 100), 1);
}

TEST(PageDomain, SingleDomain) {
  EXPECT_EQ(page_domain(12345, PagePlacement::kRoundRobin, 1, 0), 0);
}

}  // namespace
}  // namespace tb::topo
