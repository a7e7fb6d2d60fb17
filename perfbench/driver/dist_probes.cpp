// Probes of the cluster layers, run by every traced run: one executing
// dist:jacobi solve on a 2x2x1 simnet::World (one pipeline thread per
// rank) whose gathered solution must match the single-rank reference bit
// for bit, the 8-rank halo schedule replayed on both cluster backends
// (thread-backed World and event engine, which must agree within
// 1e-9 s), and event-engine weak-scaling sweeps on every fabric.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "check.hpp"
#include "core/registry.hpp"
#include "dist/rank_program.hpp"
#include "dist/registry.hpp"
#include "obs/obs.hpp"
#include "scenario/grids.hpp"
#include "scenario/scenario_config.hpp"
#include "simnet/comm.hpp"
#include "simnet/event/cluster_sweep.hpp"
#include "simnet/event/engine.hpp"
#include "simnet/rank_program.hpp"
#include "topo/fabric.hpp"
#include "util/aligned_buffer.hpp"

namespace perfbench {
namespace {

using tb::core::Grid3;
using tb::scenario::CaseSpec;

constexpr std::array<int, 3> kProcDims{2, 2, 1};
constexpr int kRanks = kProcDims[0] * kProcDims[1] * kProcDims[2];

tb::dist::DistConfig dist_config(const CaseSpec& spec) {
  tb::dist::DistConfig cfg;
  cfg.proc_dims = kProcDims;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 1;  // one pipeline thread per rank
  cfg.pipeline.steps_per_thread = 2;
  cfg.pipeline.block = {spec.nx, 8, 8};
  cfg.pipeline.du = 2;
  return cfg;
}

struct Anchor {
  Grid3 solution;
  long long lups = 0;
};

/// Single-rank reference of the whole global problem.
Anchor compute_anchor(const CaseSpec& spec) {
  const Grid3 initial = tb::scenario::make_initial(spec);
  tb::core::StencilSolver ref =
      tb::core::Registry::global().make("reference", spec.op, {}, initial);
  const tb::core::RunStats st = ref.advance(spec.steps);
  return {ref.solution().clone(), st.cell_updates};
}

struct DistRun {
  double wall_s = 0.0;
  double construct_s = 0.0;  ///< World start + rank-window construction
  double advance_s = 0.0;    ///< until the last rank finished advance()
  double gather_s = 0.0;     ///< until the last rank finished gather()
  double sim_s = 0.0;        ///< simulated clock after advance, max rank
  long long bytes = 0, messages = 0;  ///< summed over ranks
  int epochs = 0;
  Grid3 gathered;
};

DistRun run_dist(const CaseSpec& spec, Recorder& rec, long long id) {
  const Grid3 initial = tb::scenario::make_initial(spec);
  const tb::dist::DistConfig cfg = dist_config(spec);
  const int halo = cfg.pipeline.levels_per_sweep();
  if (spec.steps % halo != 0)
    throw std::invalid_argument("perfbench: dist steps must be a multiple of " +
                                std::to_string(halo));
  DistRun out;
  out.epochs = spec.steps / halo;
  out.gathered = initial.clone();  // gather leaves the boundary untouched
  // Per rank: when it finished constructing, advancing and gathering,
  // in seconds since the request began.  The phase boundaries of the
  // request are the last rank's, so the phases never overlap.
  std::vector<double> made(kRanks), advanced(kRanks), gathered(kRanks), sim(kRanks);
  std::vector<long long> bytes(kRanks), msgs(kRanks);
  const std::string op = "dist:" + spec.op;

  Recorder::Span span(rec, "dist request", "dist", id);
  const auto t0 = Clock::now();
  tb::simnet::World world(kRanks);
  world.run([&](tb::simnet::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    std::unique_ptr<tb::dist::AnyDistributed> solver =
        tb::dist::make_distributed(op, comm, cfg, initial);
    made[r] = seconds_since(t0);
    const tb::dist::DistStats st = solver->advance(out.epochs);
    advanced[r] = seconds_since(t0);
    sim[r] = st.sim_seconds;
    bytes[r] = static_cast<long long>(st.comm.bytes);
    msgs[r] = static_cast<long long>(st.comm.messages);
    solver->gather(comm.rank() == 0 ? &out.gathered : nullptr, 0);
    gathered[r] = seconds_since(t0);
  });
  out.wall_s = span.finish();
  const double made_s = *std::max_element(made.begin(), made.end());
  const double advanced_s = *std::max_element(advanced.begin(), advanced.end());
  out.construct_s = made_s;
  out.advance_s = advanced_s - made_s;
  out.gather_s = *std::max_element(gathered.begin(), gathered.end()) - advanced_s;
  out.sim_s = *std::max_element(sim.begin(), sim.end());
  for (int r = 0; r < kRanks; ++r) {
    out.bytes += bytes[static_cast<std::size_t>(r)];
    out.messages += msgs[static_cast<std::size_t>(r)];
  }
  return out;
}

/// The 2x2x2 halo schedule on both cluster backends: the thread-backed
/// World (the executing oracle) and the discrete-event engine.
void check_backends_agree(Recorder& rec) {
  tb::dist::HaloProgramSpec spec;
  spec.global_n = {34, 34, 34};
  spec.proc_dims = {2, 2, 2};
  spec.halo = 2;
  spec.proc_lups = 2.0e9;
  spec.epochs = 3;
  const std::vector<tb::simnet::RankProgram> programs =
      tb::dist::build_halo_programs(spec);
  const tb::simnet::NetworkModel net;
  tb::simnet::World world(8, net);
  const tb::simnet::ReplayResult threaded =
      tb::simnet::replay_on_world(world, programs);
  const tb::simnet::event::EngineResult evented = tb::simnet::event::run_programs(
      *tb::topo::make_fabric("fat-tree", 8,
                             tb::simnet::event::fabric_params_from(net)),
      programs, tb::simnet::event::engine_config_from(net));
  double worst = 0.0;
  for (std::size_t r = 0; r < 8; ++r)
    worst = std::max(worst, std::abs(evented.final_times[r] - threaded.final_times[r]));
  char buf[96];
  std::snprintf(buf, sizeof buf, "max |event - world| = %.3g s", worst);
  rec.add_check("8-rank backend agreement", worst <= 1e-9, buf);
}

/// One traced dist request, checked against the single-rank reference
/// and recorded as a ladder request row.
void dist_request(const CaseSpec& spec, Recorder& rec, long long id) {
  Anchor anchor;
  {
    Recorder::Span span(rec, "reference", "check", -1);
    anchor = compute_anchor(spec);
  }
  tb::obs::set_enabled(true);
  const auto before = registry_values();
  const std::uint64_t allocs0 = tb::util::buffer_alloc_count();
  DistRun run;
  std::string error;
  try {
    run = run_dist(spec, rec, id);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const std::uint64_t allocs = tb::util::buffer_alloc_count() - allocs0;
  const auto reg = registry_diff(registry_values(), before);
  tb::obs::set_enabled(false);
  if (error.empty()) error = first_mismatch(run.gathered, anchor.solution);
  const bool ok = error.empty();
  if (!ok) rec.add_check("request " + spec.name, false, error);
  rec.add_request(JsonObject()
                      .integer("id", id)
                      .integer("round", -1)
                      .integer("engine", -1)
                      .str("name", spec.name)
                      .str("op", "dist:" + spec.op)
                      .str("variant", "dist")
                      .str("resolved", "pipelined")
                      .str("shape", std::to_string(spec.nx) + "x" +
                                        std::to_string(spec.ny) + "x" +
                                        std::to_string(spec.nz))
                      .integer("steps", spec.steps)
                      .integer("threads", kRanks)
                      .boolean("first", true)
                      .boolean("traced", true)
                      .boolean("ladder", true)
                      .num("wall_s", run.wall_s)
                      .num("advance_s", run.advance_s)
                      .integer("lups", anchor.lups)
                      .num("construct_s", run.construct_s)
                      .num("gather_s", run.gather_s)
                      .num("sim_s", run.sim_s)
                      .integer("epochs", run.epochs)
                      .integer("ranks", kRanks)
                      .integer("halo_bytes", run.bytes)
                      .integer("messages", run.messages)
                      .integer("allocs", static_cast<long long>(allocs))
                      .boolean("ok", ok)
                      .str("error", error)
                      .raw("reg", json_map(reg)));
}

}  // namespace

void run_sweep_probe(Recorder& rec) {
  std::vector<std::string> sweeps;
  for (const char* topology : {"fat-tree", "torus", "cloud"}) {
    tb::simnet::event::ClusterSweepSpec spec;
    spec.topology = topology;
    spec.ranks = {8, 64, 512, 4096, 10000};
    spec.n = 32;
    spec.halo = 4;
    spec.epochs = 4;
    spec.proc_lups = 2.0e9;
    Recorder::Span span(rec, "event::run_sweep", "simnet.event", -1);
    const tb::simnet::event::SweepResult res = tb::simnet::event::run_sweep(spec);
    const double wall = span.finish();
    double events = 0.0, engine_s = 0.0;
    for (const tb::simnet::event::SweepPoint& p : res.points) {
      events += static_cast<double>(p.events);
      engine_s += p.wall_seconds;
    }
    sweeps.push_back(JsonObject()
                         .str("topology", topology)
                         .integer("max_ranks", res.points.back().ranks)
                         .num("sweep_s", wall)
                         .num("events", events)
                         .num("events_per_s", engine_s > 0 ? events / engine_s : 0.0)
                         .num("epoch_s_max_ranks", res.points.back().epoch_seconds)
                         .dump());
  }
  rec.set_section("sweeps", json_array(sweeps));
}

void run_dist_probe(Recorder& rec, long long id) {
  check_backends_agree(rec);
  CaseSpec spec;
  spec.name = "ladder/dist:jacobi";
  spec.op = "jacobi";
  spec.nx = spec.ny = spec.nz = 66;
  spec.steps = 8;
  dist_request(spec, rec, id);
}

}  // namespace perfbench
