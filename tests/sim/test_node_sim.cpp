// Tests of the discrete-event node simulator: analytic anchors, shape
// properties the paper reports, and robustness of the scheduler.
#include <gtest/gtest.h>

#include "perfmodel/cluster_model.hpp"
#include "perfmodel/single_cache_model.hpp"
#include "sim/node_sim.hpp"

namespace tb::sim {
namespace {

constexpr std::array<int, 3> kGrid{600, 600, 600};

TEST(NodeSim, StandardSocketMatchesEq2) {
  // The memory-bound expectation P0 = Ms / 16 B (Eq. (2)).
  const SimMachine m = nehalem(1);
  const SimResult r = simulate_standard(m, kGrid, 4, 2);
  const double p0 = perfmodel::baseline_lups_socket(m.spec) / 1e6;
  EXPECT_NEAR(r.mlups, p0, 0.05 * p0);
}

TEST(NodeSim, StandardNodeMatchesEq2) {
  const SimMachine m = nehalem(2);
  const SimResult r = simulate_standard(m, kGrid, 8, 2);
  const double p0 = perfmodel::baseline_lups_node(m.spec) / 1e6;
  EXPECT_NEAR(r.mlups, p0, 0.05 * p0);
}

TEST(NodeSim, SingleThreadCannotSaturateTheBus) {
  // Ms,1 < Ms: one thread must be substantially slower than 4.
  const SimMachine m = nehalem(1);
  const SimResult one = simulate_standard(m, kGrid, 1, 1);
  const SimResult four = simulate_standard(m, kGrid, 4, 1);
  EXPECT_LT(one.mlups * 1.5, four.mlups);
}

TEST(NodeSim, PipelineT1MatchesEq5Prediction) {
  // "At T = 1 the prediction from the diagnostic performance model agrees
  // perfectly with our measurements."  The model is an upper-limit
  // estimate (Sec. 1.4) — the simulation must come close from below.
  // (The paper quotes 1.45 using rounded ratios Ms/Ms,1 = 2, Mc/Ms,1 = 8;
  // the exact spec values give 1.57.)
  const SimMachine m = nehalem(1);
  const SimResult r = simulate_pipeline(m, paper_schedule(1, 1), kGrid, 1);
  const double model = perfmodel::pipeline_lups_socket(m.spec, 4, 1) / 1e6;
  EXPECT_LE(r.mlups, 1.02 * model);
  EXPECT_GE(r.mlups, 0.85 * model);
}

TEST(NodeSim, PipelineSpeedupInPaperRange) {
  // 50-60 % speedup over the standard algorithm on one socket (T = 2).
  const SimMachine m = nehalem(1);
  const SimResult std4 = simulate_standard(m, kGrid, 4, 2);
  const SimResult pipe = simulate_pipeline(m, paper_schedule(1, 2), kGrid, 1);
  const double speedup = pipe.mlups / std4.mlups;
  EXPECT_GT(speedup, 1.40);
  EXPECT_LT(speedup, 1.75);
}

TEST(NodeSim, ModelFailsAtLargerT) {
  // Eq. (5) overpredicts at T >= 2 because execution decouples from
  // memory bandwidth (the in-core limit binds).
  const SimMachine m = nehalem(1);
  const SimResult r = simulate_pipeline(m, paper_schedule(1, 2), kGrid, 1);
  const double model = perfmodel::pipeline_lups_socket(m.spec, 4, 2) / 1e6;
  EXPECT_LT(r.mlups, 0.85 * model);
}

TEST(NodeSim, OptimalTIsTwoish) {
  // T = 2 clearly beats T = 1; T = 4 adds only a minor improvement.
  const SimMachine m = nehalem(1);
  const double t1 = simulate_pipeline(m, paper_schedule(1, 1), kGrid, 1).mlups;
  const double t2 = simulate_pipeline(m, paper_schedule(1, 2), kGrid, 1).mlups;
  const double t4 = simulate_pipeline(m, paper_schedule(1, 4), kGrid, 1).mlups;
  EXPECT_GT(t2, 1.05 * t1);
  EXPECT_GT(t4, t2 * 0.95);
  EXPECT_LT(t4, t2 * 1.15);
}

TEST(NodeSim, RelaxedBeatsBarrier) {
  const SimMachine m = nehalem(2);
  core::PipelineConfig pc = paper_schedule(2, 2);
  const double relaxed = simulate_pipeline(m, pc, kGrid, 1).mlups;
  pc.sync = core::SyncMode::kBarrier;
  const double barrier = simulate_pipeline(m, pc, kGrid, 1).mlups;
  EXPECT_GT(relaxed, barrier);
}

TEST(NodeSim, LoosenessHelpsThenHurts) {
  // Fig. 3 right: performance rises from lockstep (du = 1) to du ~ 4 and
  // degrades when blocks start falling out of cache.
  const SimMachine m = nehalem(2);
  core::PipelineConfig pc = paper_schedule(2, 2);
  auto at = [&](int du) {
    pc.du = du;
    return simulate_pipeline(m, pc, kGrid, 1).mlups;
  };
  const double lockstep = at(1);
  const double loose = at(4);
  const double too_loose = at(8);
  EXPECT_GT(loose, 1.15 * lockstep);  // substantial gain over lockstep
  EXPECT_LT(too_loose, loose);        // cache-capacity penalty
}

TEST(NodeSim, TeamDelayHasSlightImpact) {
  // "A finite team delay dt only has a very slight impact" (~3 %).
  const SimMachine m = nehalem(2);
  core::PipelineConfig pc = paper_schedule(2, 2);
  const double dt0 = simulate_pipeline(m, pc, kGrid, 1).mlups;
  pc.dt = 8;
  const double dt8 = simulate_pipeline(m, pc, kGrid, 1).mlups;
  EXPECT_NEAR(dt8, dt0, 0.10 * dt0);
}

TEST(NodeSim, NodeScalesImperfectly) {
  // ccNUMA placement cannot be enforced: node < 2 x socket, but > socket.
  const SimMachine sock = nehalem(1);
  const SimMachine node = nehalem(2);
  core::PipelineConfig pc = paper_schedule(1, 2);
  const double socket = simulate_pipeline(sock, pc, kGrid, 1).mlups;
  pc.teams = 2;
  const double both = simulate_pipeline(node, pc, kGrid, 1).mlups;
  EXPECT_GT(both, 1.3 * socket);
  EXPECT_LT(both, 1.95 * socket);
}

TEST(NodeSim, CompressedGridReducesMemoryTraffic) {
  const SimMachine m = nehalem(1);
  core::PipelineConfig two = paper_schedule(1, 2);
  core::PipelineConfig comp = two;
  comp.scheme = core::GridScheme::kCompressed;
  const SimResult r2 = simulate_pipeline(m, two, kGrid, 1);
  const SimResult rc = simulate_pipeline(m, comp, kGrid, 1);
  EXPECT_LT(rc.mem_bytes, r2.mem_bytes);
  EXPECT_GE(rc.mlups, 0.95 * r2.mlups);
}

TEST(NodeSim, DeterministicAcrossRuns) {
  const SimMachine m = nehalem(1);
  const double a = simulate_pipeline(m, paper_schedule(1, 2), kGrid, 1).mlups;
  const double b = simulate_pipeline(m, paper_schedule(1, 2), kGrid, 1).mlups;
  EXPECT_EQ(a, b);
}

TEST(NodeSim, BandwidthScalableMachineGainsLittle) {
  // Sec. 1.4: if memory bandwidth scales with core count, temporal
  // blocking is pointless (speedup factor t cancels).
  SimMachine m;
  m.spec = topo::bandwidth_scalable();
  const double std4 = simulate_standard(m, kGrid, 4, 1).mlups;
  const double pipe =
      simulate_pipeline(m, paper_schedule(1, 2), kGrid, 1).mlups;
  EXPECT_LT(pipe, 1.15 * std4);
}

TEST(NodeSim, TeamDelayDeadlockRegression) {
  // dt > 0 with relaxed sync once deadlocked at the end of the block
  // sequence (predecessor counter saturates below done + dl + dt).
  const SimMachine m = nehalem(2);
  core::PipelineConfig pc = paper_schedule(2, 1);
  pc.dt = 8;
  EXPECT_NO_THROW({
    const SimResult r = simulate_pipeline(m, pc, {100, 100, 100}, 1);
    EXPECT_GT(r.mlups, 0.0);
  });
}

TEST(NodeSim, RejectsMoreTeamsThanSockets) {
  const SimMachine m = nehalem(1);
  const core::PipelineConfig pc = paper_schedule(2, 1);  // one socket only
  EXPECT_THROW((void)simulate_pipeline(m, pc, {64, 64, 64}, 1),
               std::invalid_argument);
}

TEST(NodeSim, StarvedDesignsGainMoreThanNehalem) {
  // Sec. 3: "future multicore processors (just like the older Core 2
  // designs) can be expected to be less balanced, and thus profit more
  // from temporal blocking."  One cache group each, a team as wide as
  // the socket.
  auto gain = [](topo::MachineSpec spec) {
    spec.sockets = 1;
    SimMachine m;
    m.spec = spec;
    core::PipelineConfig pc = paper_schedule(1, 2);
    pc.team_size = spec.cores_per_socket;
    return simulate_pipeline(m, pc, kGrid, 1).mlups /
           simulate_standard(m, kGrid, spec.cores_per_socket, 2).mlups;
  };
  const double nehalem_gain = gain(topo::nehalem_ep_socket());
  EXPECT_GT(gain(topo::core2_like()), 1.5 * nehalem_gain);
  EXPECT_GT(gain(topo::starved_manycore()), 1.5 * nehalem_gain);
}

TEST(NodeSim, WeakScalingKeepsMostOfThePipelinedSpeedup) {
  // Fig. 6: at 64 nodes, weak scaling with 2 PPN keeps ~80 % of the
  // shared-memory speedup of pipelined (one process per socket) over
  // standard (one process per core).  Rates come from the node
  // simulator, epochs from the Sec. 2.1 cluster model.
  const double std_core = simulate_standard(nehalem(1), kGrid, 4, 2).mlups / 4;
  const core::PipelineConfig pc = paper_schedule(1, 2);
  const double pipe_socket =
      simulate_pipeline(nehalem(1), pc, kGrid, 1,
                        topo::PagePlacement::kFirstTouch)
          .mlups;
  const perfmodel::ClusterParams params;
  auto weak64 = [&](int ppn, int halo, double mlups) {
    return perfmodel::evaluate_cluster(
               {64, ppn, 600.0, true, halo, mlups * 1e6}, params)
        .glups;
  };
  const double dist_speedup = weak64(2, pc.levels_per_sweep(), pipe_socket) /
                              weak64(8, 1, std_core);
  const double shared_speedup = 2.0 * pipe_socket / (8.0 * std_core);
  const double retained = dist_speedup / shared_speedup;
  EXPECT_GE(retained, 0.7);
  EXPECT_LE(retained, 1.0);
}

}  // namespace
}  // namespace tb::sim
