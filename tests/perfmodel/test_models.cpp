// Tests of the analytic performance models (Eq. 2/4/5, Fig. 5 halo model,
// Fig. 6 cluster model).
#include <gtest/gtest.h>

#include "perfmodel/cluster_model.hpp"
#include "perfmodel/halo_model.hpp"
#include "perfmodel/model_api.hpp"
#include "perfmodel/single_cache_model.hpp"
#include "perfmodel/stream.hpp"

namespace tb::perfmodel {
namespace {

// ---- Eq. (2), (4), (5) -----------------------------------------------

topo::MachineSpec rounded_nehalem() {
  // The ratios the paper uses for its quoted numbers: Ms/Ms,1 = 2,
  // Mc/Ms,1 = 8.
  topo::MachineSpec m = topo::nehalem_ep_socket();
  m.mem_bw_single = m.mem_bw_socket / 2.0;
  m.cache_bw = 8.0 * m.mem_bw_single;
  return m;
}

TEST(SingleCacheModel, Eq2BaselineExpectation) {
  const topo::MachineSpec m = topo::nehalem_ep();
  // 18.5 GB/s per socket / 16 B = 1.156 GLUP/s; node = 2.3 GLUP/s.
  EXPECT_NEAR(baseline_lups_socket(m), 1.156e9, 1e6);
  EXPECT_NEAR(baseline_lups_node(m), 2.3125e9, 1e6);
}

TEST(SingleCacheModel, RfoCostsFiftyPercent) {
  const topo::MachineSpec m = topo::nehalem_ep();
  EXPECT_NEAR(baseline_lups_socket(m) / baseline_lups_socket_rfo(m), 1.5,
              1e-12);
}

TEST(SingleCacheModel, Eq5MatchesPaperQuotedFormula) {
  // With the rounded ratios, the paper states speedup = 16T/(7+4T) at
  // t = 4 — our Eq. (5) implementation must reproduce it exactly.
  const topo::MachineSpec m = rounded_nehalem();
  for (int T : {1, 2, 3, 4, 8, 32}) {
    EXPECT_NEAR(pipeline_speedup(m, 4, T), 16.0 * T / (7.0 + 4.0 * T),
                1e-12)
        << "T=" << T;
  }
  EXPECT_NEAR(pipeline_speedup(m, 4, 1), 1.4545, 1e-3);  // "1.45 at T = 1"
}

TEST(SingleCacheModel, Eq5AsymptoteIsMcOverMs) {
  const topo::MachineSpec m = topo::nehalem_ep();
  const double limit = pipeline_speedup_limit(m);
  EXPECT_NEAR(limit, m.cache_bw / m.mem_bw_socket, 1e-12);
  EXPECT_NEAR(pipeline_speedup(m, 4, 100000), limit, 1e-2 * limit);
  // "The maximum possible speedup on this CPU would be Mc/Ms ~ 4."
  EXPECT_NEAR(rounded_nehalem().cache_bw / rounded_nehalem().mem_bw_socket,
              4.0, 1e-12);
}

TEST(SingleCacheModel, SpeedupMonotonicInT) {
  const topo::MachineSpec m = topo::nehalem_ep();
  double prev = 0.0;
  for (int T = 1; T <= 64; T *= 2) {
    const double s = pipeline_speedup(m, 4, T);
    EXPECT_GT(s, prev);
    prev = s;
  }
}

TEST(SingleCacheModel, BandwidthScalableMachineGainsNothing) {
  // If Ms = t * Ms,1 the t in the numerator cancels: speedup stays ~1.
  const topo::MachineSpec m = topo::bandwidth_scalable();
  EXPECT_LT(pipeline_speedup(m, 4, 1), 1.05);
}

TEST(SingleCacheModel, Eq4TimeDecreasesPerUpdate) {
  const topo::MachineSpec m = topo::nehalem_ep();
  // Time per cell for t*T updates grows sublinearly in T.
  EXPECT_LT(team_time_per_cell(m, 4, 2), 2.0 * team_time_per_cell(m, 4, 1));
}

TEST(SingleCacheModel, MaxThreadDistanceEstimate) {
  const topo::MachineSpec m = topo::nehalem_ep();
  // 8 MiB cache, 4 threads, 768 KiB blocks (2 grids): 8/3 blocks.
  EXPECT_NEAR(max_thread_distance(m, 4, 768 * 1024), 8.0 / 3.0, 0.01);
  EXPECT_EQ(max_thread_distance(m, 4, 0), 0.0);
}

// ---- Fig. 5 halo model -------------------------------------------------

constexpr double kLups = 2000e6;

TEST(HaloModel, AdvantageApproachesOneAtLargeL) {
  const LinkParams link;
  for (int h : {2, 4, 8, 16, 32}) {
    const double a = multi_halo_advantage(1000.0, h, kLups, link);
    EXPECT_NEAR(a, 1.0, 0.12) << "h=" << h;
  }
}

TEST(HaloModel, MessageAggregationWinsAtSmallL) {
  const LinkParams link;
  EXPECT_GT(multi_halo_advantage(5.0, 2, kLups, link), 1.5);
  EXPECT_GT(multi_halo_advantage(5.0, 4, kLups, link), 2.0);
}

TEST(HaloModel, ExtraWorkDegradesMidRangeForDeepHalos) {
  // "a relevant impact can only be expected at h >~ 16" for 20 < L < 100.
  const LinkParams link;
  EXPECT_LT(multi_halo_advantage(40.0, 16, kLups, link), 0.9);
  EXPECT_LT(multi_halo_advantage(40.0, 32, kLups, link), 0.6);
  EXPECT_GT(multi_halo_advantage(40.0, 2, kLups, link), 0.9);
}

TEST(HaloModel, EpochWorkAccountsExactGeometricSum) {
  EpochParams p;
  p.extent = {10, 10, 10};
  p.halo = 3;
  const EpochCost c = halo_epoch_cost(p);
  // Updates: s=1 -> 14^3, s=2 -> 12^3, s=3 -> 10^3.
  EXPECT_DOUBLE_EQ(c.bulk_updates + c.extra_updates,
                   14.0 * 14 * 14 + 12.0 * 12 * 12 + 1000.0);
  EXPECT_DOUBLE_EQ(c.bulk_updates, 3000.0);
}

TEST(HaloModel, NoNeighborsMeansNoCommAndNoExtraWork) {
  EpochParams p;
  p.extent = {10, 10, 10};
  p.halo = 4;
  p.neighbors.lo = {false, false, false};
  p.neighbors.hi = {false, false, false};
  const EpochCost c = halo_epoch_cost(p);
  EXPECT_EQ(c.comm, 0.0);
  EXPECT_EQ(c.extra_updates, 0.0);
  EXPECT_EQ(c.bytes_sent, 0.0);
}

TEST(HaloModel, GhostExpansionGrowsLaterDirections) {
  EpochParams p;
  p.extent = {10, 10, 10};
  p.halo = 2;
  const EpochCost c = halo_epoch_cost(p);
  // x faces: 2*h*L^2; y: 2*h*(L+2h)L; z: 2*h*(L+2h)^2 (doubles).
  const double expect =
      8.0 * 2 * (2.0 * 100 + 2.0 * 14 * 10 + 2.0 * 14 * 14);
  EXPECT_DOUBLE_EQ(c.bytes_sent, expect);
}

TEST(HaloModel, CompRatioBounded) {
  const LinkParams link;
  for (double L : {1.0, 10.0, 100.0}) {
    const double r = computational_efficiency(L, 8, kLups, link);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
  // Strongly communication-limited at small L (Fig. 5 inset).
  EXPECT_LT(computational_efficiency(5.0, 2, kLups, link), 0.05);
  EXPECT_GT(computational_efficiency(300.0, 2, kLups, link), 0.85);
}

TEST(HaloModel, PackOverheadScalesComm) {
  EpochParams p;
  p.extent = {50, 50, 50};
  p.halo = 2;
  const double base = halo_epoch_cost(p).comm;
  p.pack_overhead = 1.0;
  EXPECT_DOUBLE_EQ(halo_epoch_cost(p).comm, 2.0 * base);
}

TEST(HaloModel, FieldBytesScaleVolumeNotMessages) {
  // Per-operator state multiplier: lbm's carrier + 19 distribution
  // fields travel aggregated in the same messages, so modeled bytes
  // scale 20x while the latency term (message count) stays put.
  EpochParams p;
  p.extent = {50, 50, 50};
  p.halo = 2;
  const EpochCost scalar = halo_epoch_cost(p);
  p.field_bytes = 8.0 * operator_traffic("lbm").halo_fields;
  const EpochCost lbm = halo_epoch_cost(p);
  EXPECT_DOUBLE_EQ(lbm.bytes_sent, 20.0 * scalar.bytes_sent);
  EXPECT_DOUBLE_EQ(lbm.comp, scalar.comp);  // work is per update, not per byte
  // comm = 6 * (latency + bytes/bw): only the bandwidth term scales.
  const double latency_total = 6.0 * p.link.latency;
  EXPECT_NEAR(lbm.comm - latency_total,
              20.0 * (scalar.comm - latency_total), 1e-12);
}

TEST(HaloModel, OperatorHaloFieldsTable) {
  EXPECT_DOUBLE_EQ(operator_traffic("jacobi").halo_fields, 1.0);
  EXPECT_DOUBLE_EQ(operator_traffic("varcoef").halo_fields, 1.0);
  EXPECT_DOUBLE_EQ(operator_traffic("redblack").halo_fields, 1.0);
  EXPECT_DOUBLE_EQ(operator_traffic("lbm").halo_fields, 20.0);
}

// ---- Fig. 6 cluster model ----------------------------------------------

TEST(ClusterModel, DimsCreateBalancedFactors) {
  EXPECT_EQ(dims_create(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(dims_create(27), (std::array<int, 3>{3, 3, 3}));
  EXPECT_EQ(dims_create(64), (std::array<int, 3>{4, 4, 4}));
  EXPECT_EQ(dims_create(1), (std::array<int, 3>{1, 1, 1}));
  EXPECT_EQ(dims_create(12), (std::array<int, 3>{3, 2, 2}));
  const auto d = dims_create(512);
  EXPECT_EQ(d[0] * d[1] * d[2], 512);
  EXPECT_EQ(d, (std::array<int, 3>{8, 8, 8}));
}

TEST(ClusterModel, SingleRankHasNoComm) {
  ClusterRun run;
  run.nodes = 1;
  run.ppn = 1;
  run.grid = 100;
  run.proc_lups = 1e9;
  const ClusterResult r = evaluate_cluster(run, ClusterParams{});
  EXPECT_EQ(r.epoch_comm, 0.0);
  EXPECT_NEAR(r.glups, 1.0, 1e-9);
}

TEST(ClusterModel, WeakScalingGrowsWithNodes) {
  ClusterParams params;
  ClusterRun run;
  run.ppn = 2;
  run.grid = 300;
  run.weak = true;
  run.halo = 8;
  run.proc_lups = 1.8e9;
  double prev = 0.0;
  for (int nodes : {1, 8, 27, 64}) {
    run.nodes = nodes;
    const double g = evaluate_cluster(run, params).glups;
    EXPECT_GT(g, prev);
    prev = g;
  }
}

TEST(ClusterModel, StrongScalingEfficiencyDegrades) {
  ClusterParams params;
  ClusterRun run;
  run.ppn = 8;
  run.grid = 600;
  run.weak = false;
  run.halo = 1;
  run.proc_lups = 289e6;
  run.nodes = 1;
  const double g1 = evaluate_cluster(run, params).glups;
  run.nodes = 64;
  const double g64 = evaluate_cluster(run, params).glups;
  EXPECT_LT(g64, 64.0 * g1);              // below ideal
  EXPECT_GT(g64, 0.5 * 64.0 * g1);        // but still scaling
}

TEST(ClusterModel, CommFractionGrowsUnderStrongScaling) {
  ClusterParams params;
  ClusterRun run;
  run.ppn = 2;
  run.grid = 600;
  run.halo = 8;
  run.proc_lups = 1.8e9;
  run.nodes = 1;
  const double eff1 = evaluate_cluster(run, params).comp_ratio();
  run.nodes = 64;
  const double eff64 = evaluate_cluster(run, params).comp_ratio();
  EXPECT_LT(eff64, eff1);
}

TEST(ClusterModel, MorePpnSharesTheNic) {
  // Same total work split over more processes per node: NIC contention
  // must not make the model *faster* than physically possible.
  ClusterParams params;
  ClusterRun run;
  run.grid = 600;
  run.weak = false;
  run.halo = 1;
  run.nodes = 8;
  run.ppn = 1;
  run.proc_lups = 2.3e9;
  const double one = evaluate_cluster(run, params).glups;
  run.ppn = 8;
  run.proc_lups = 2.3e9 / 8.0;
  const double eight = evaluate_cluster(run, params).glups;
  // Equal aggregate compute: results within a factor ~1.5 of each other.
  EXPECT_LT(std::abs(one - eight) / std::max(one, eight), 0.5);
}

TEST(ClusterModel, SubdomainReportedCorrectly) {
  ClusterRun run;
  run.nodes = 8;
  run.ppn = 1;
  run.grid = 600;
  const ClusterResult r = evaluate_cluster(run, ClusterParams{});
  EXPECT_EQ(r.proc_grid, (std::array<int, 3>{2, 2, 2}));
  EXPECT_DOUBLE_EQ(r.subdomain[0], 300.0);
}

}  // namespace
// ---- STREAM COPY measurements ------------------------------------------

TEST(StreamCopy, ReportsBytesBandwidthAndSpread) {
  const std::size_t elems = 1 << 14;
  const BandwidthResult best = stream_copy(elems, 2, /*nontemporal=*/false);
  EXPECT_EQ(best.bytes, 24 * elems);  // load + store + write-allocate
  EXPECT_GT(best.bytes_per_second, 0.0);
  EXPECT_DOUBLE_EQ(best.bytes_per_second,
                   static_cast<double>(best.bytes) / best.seconds);
  EXPECT_GE(best.relative_spread, 0.0);

  // Mc: 1/4 of the LLC over two arrays, 8 copies per repetition, median.
  const std::size_t llc = 1 << 20;
  const BandwidthResult mc = measure_mc(2, llc);
  EXPECT_EQ(mc.bytes, 24 * 8 * (llc / 4 / sizeof(double) / 2));
  EXPECT_GT(mc.bytes_per_second, 0.0);
  EXPECT_GE(mc.relative_spread, 0.0);
}

}  // namespace tb::perfmodel
