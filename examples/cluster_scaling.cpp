// Cluster-scaling example: the two simulated-cluster backends side by
// side.
//
// Part 1 runs the *executing* distributed solver on the in-process rank
// runtime (tb::simnet::World, one thread per rank): domain decomposition,
// multi-layer halo exchange along x->y->z, per-rank pipelined temporal
// blocking with shrinking update regions — the code path a real MPI
// deployment would take, checked bit-compatible against the single-rank
// solver.  The operator comes from the distributed string registry
// (dist/registry.hpp), so even lbm runs decomposed, its 19 distribution
// fields riding the exchange alongside the density carrier.
//
// Part 2 validates the discrete-event backend against that thread-backed
// oracle: the same 2x2x2 halo-exchange schedule (one RankProgram per
// rank, built from the shared dist::Decomposition) replays through both
// worlds, and the per-epoch simulated times must agree to rounding.
//
// Part 3 is what the threads cannot do: a weak-scaling sweep to O(10^4)
// modeled ranks over the chosen fabric (--topology, default the paper's
// non-blocking fat-tree), each point cross-checked against the closed
// perfmodel::evaluate_cluster prediction and emitted as modeled rows
// into BENCH_simnet.json / the run database.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/reference.hpp"
#include "dist/rank_program.hpp"
#include "dist/registry.hpp"
#include "perfmodel/cluster_model.hpp"
#include "perfmodel/model_api.hpp"
#include "simnet/event/cluster_sweep.hpp"
#include "simnet/event/engine.hpp"
#include "simnet/rank_program.hpp"
#include "topo/fabric.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

struct RankView {
  double sim_seconds = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

/// Rank counts for the modeled sweep: x8 steps (each doubling every
/// dimension of the process grid) from 8 up to `max_ranks`, which is
/// always included as the final point.
std::vector<int> sweep_ranks(int max_ranks) {
  std::vector<int> out;
  for (int r = 8; r < max_ranks; r *= 8) out.push_back(r);
  if (out.empty() || out.back() != max_ranks) out.push_back(max_ranks);
  return out;
}

int run(const tb::util::Args& args) {
  const int n = args.get_int("n", 66, "global cubic grid extent (part 1)");
  const int epochs = args.get_int("epochs", 3, "halo-exchange epochs");
  tb::dist::DistConfig base_cfg;
  base_cfg.pipeline.team_size = args.get_int("threads", 2, "threads per rank");
  base_cfg.pipeline.steps_per_thread =
      args.get_int("T", 2, "updates per thread and block");
  const std::string op = args.get_choice(
      "operator", "jacobi", tb::core::registered_operators(), "stencil");
  const std::string topology =
      args.get_choice("topology", "fat-tree", tb::topo::fabric_kinds(),
                      "fabric of the modeled sweep (part 3)");
  const int max_ranks =
      args.get_int("ranks", 10000, "largest modeled rank count (part 3)");
  args.finish();

  tb::core::Grid3 initial(n, n, n);
  tb::core::fill_test_pattern(initial);
  const tb::core::Grid3 kappa = tb::core::make_slab_kappa(n, n, n);

  base_cfg.pipeline.teams = 1;
  base_cfg.pipeline.block = {16, 8, 8};
  base_cfg.pipeline.du = 3;
  base_cfg.proc_lups = 2.0e9;  // modeled per-rank rate
  const int h = base_cfg.pipeline.levels_per_sweep();
  const int steps = epochs * h;

  std::printf(
      "distributed pipelined %s: %d^3 global, h = %d layers, %d epochs "
      "(%d steps)\n\n",
      op.c_str(), n, h, epochs, steps);

  // ---- Part 1: executing solver on the thread-backed World ----------
  // Single-rank result is the correctness anchor.
  tb::core::Grid3 anchor = initial.clone();
  {
    tb::dist::DistConfig cfg = base_cfg;
    cfg.proc_dims = {1, 1, 1};
    tb::dist::run_distributed_named(op, 1, cfg, initial, epochs, &anchor,
                                    &kappa);
  }

  tb::util::TableWriter t({"ranks", "proc grid", "sim time [ms]",
                           "MB sent/rank", "msgs/rank", "max |diff|"});
  for (const std::array<int, 3>& dims :
       {std::array<int, 3>{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2},
        {4, 2, 2}}) {
    const int ranks = dims[0] * dims[1] * dims[2];
    tb::dist::DistConfig cfg = base_cfg;
    cfg.proc_dims = dims;

    tb::core::Grid3 result = initial.clone();
    RankView rank0;
    std::mutex m;
    tb::simnet::World world(ranks);
    world.run([&](tb::simnet::Comm& comm) {
      auto solver = tb::dist::make_distributed(op, comm, cfg, initial,
                                               &kappa);
      const tb::dist::DistStats st = solver->advance(epochs);
      solver->gather(comm.rank() == 0 ? &result : nullptr, 0);
      if (comm.rank() == 0) {
        const std::scoped_lock lock(m);
        rank0.sim_seconds = st.sim_seconds;
        rank0.bytes = st.comm.bytes;
        rank0.messages = st.comm.messages;
      }
    });

    t.add(ranks,
          std::to_string(dims[0]) + "x" + std::to_string(dims[1]) + "x" +
              std::to_string(dims[2]),
          world.max_sim_time() * 1e3,
          static_cast<double>(rank0.bytes) / 1e6,
          static_cast<double>(rank0.messages),
          tb::core::max_abs_diff(result, anchor));
  }
  t.print();
  std::printf(
      "\n(max |diff| must be exactly 0: the decomposed multi-halo solver is\n"
      "bit-compatible with the single-rank solver)\n\n");

  // ---- Part 2: event engine vs thread-backed oracle -----------------
  // The same 2x2x2 sequential halo schedule through both backends; on
  // the uncontended fat-tree the per-rank clocks must agree to rounding.
  const double fields = tb::perfmodel::operator_traffic(op).halo_fields;
  const tb::simnet::NetworkModel net;
  tb::dist::HaloProgramSpec prog;
  prog.global_n = {n, n, n};
  prog.proc_dims = {2, 2, 2};
  prog.halo = h;
  prog.fields = static_cast<int>(fields);
  prog.proc_lups = base_cfg.proc_lups;
  prog.epochs = epochs;
  const std::vector<tb::simnet::RankProgram> programs =
      tb::dist::build_halo_programs(prog);

  tb::simnet::World oracle(8, net);
  const tb::simnet::ReplayResult threaded =
      tb::simnet::replay_on_world(oracle, programs);
  const std::unique_ptr<tb::topo::ClusterFabric> fabric8 =
      tb::topo::make_fabric("fat-tree", 8,
                            tb::simnet::event::fabric_params_from(net));
  const tb::simnet::event::EngineResult evented =
      tb::simnet::event::run_programs(
          *fabric8, programs, tb::simnet::event::engine_config_from(net));

  double max_dev = 0.0;
  for (int r = 0; r < 8; ++r)
    max_dev = std::max(
        max_dev, std::abs(evented.final_times[static_cast<std::size_t>(r)] -
                          threaded.final_times[static_cast<std::size_t>(r)]));
  std::printf(
      "event-engine validation (8 ranks, 2x2x2, same RankPrograms):\n"
      "  thread-backed max clock %.9e s, event engine %.9e s,\n"
      "  max per-rank deviation %.3e s  [%s]\n\n",
      oracle.max_sim_time(), evented.max_time(), max_dev,
      max_dev < 1e-9 ? "agree" : "DISAGREE");

  // ---- Part 3: modeled weak-scaling sweep over the fabric -----------
  tb::simnet::event::ClusterSweepSpec spec;
  spec.topology = topology;
  spec.ranks = sweep_ranks(std::max(max_ranks, 8));
  spec.weak = true;
  spec.n = 32;
  spec.halo = h;
  spec.epochs = epochs;
  spec.op = op;
  spec.proc_lups = base_cfg.proc_lups;
  const tb::simnet::event::SweepResult sweep =
      tb::simnet::event::run_sweep(spec);

  std::printf("modeled weak scaling, %s fabric, %d^3 cells/rank:\n",
              topology.c_str(), spec.n);
  tb::util::TableWriter s({"ranks", "proc grid", "epoch [ms]", "GLUP/s",
                           "eff [%]", "model GLUP/s", "M events/s"});
  for (const tb::simnet::event::SweepPoint& pt : sweep.points) {
    // Closed-form cross-check: the same decomposition through
    // perfmodel::evaluate_cluster (whose defaults match NetworkModel's
    // fat-tree calibration).  The models differ in the effects they
    // carry (copy streams vs link contention), so this is a sanity
    // column, not an equality.
    tb::perfmodel::ClusterRun run;
    run.nodes = pt.ranks;
    run.ppn = 1;
    run.grid = spec.n;
    run.weak = true;
    run.halo = spec.halo;
    run.proc_lups = spec.proc_lups;
    run.field_bytes = 8.0 * fields;
    const tb::perfmodel::ClusterResult model =
        tb::perfmodel::evaluate_cluster(run, {});
    s.add(pt.ranks,
          std::to_string(pt.proc_dims[0]) + "x" +
              std::to_string(pt.proc_dims[1]) + "x" +
              std::to_string(pt.proc_dims[2]),
          pt.epoch_seconds * 1e3, pt.glups, pt.efficiency * 100.0,
          model.glups, pt.events_per_sec / 1e6);
  }
  s.print();

  tb::obs::write_bench_json("simnet", tb::simnet::event::sweep_rows(sweep));
  std::printf(
      "\n(modeled rows written to BENCH_simnet.json; thread-backed part 1\n"
      "stays the executing oracle — see README \"Simulated cluster\")\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return tb::util::run_main(argc, argv, run); }
