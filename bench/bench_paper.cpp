// The paper's figures and tables, one section each: the simulated
// Nehalem EP (sim/node_sim), the analytic models (perfmodel/), the
// executing distributed solver on the in-process rank runtime, and two
// short host measurements.
// --section picks one of:
//
//   machine-model  Sec. 1.1/1.4: Nehalem parameters, Eq. (2), Eq. (5),
//                  maximum thread distance
//   host-stream    STREAM COPY Ms,1 / Ms / Mc measured on this host
//   fig3-left      Fig. 3 (left): standard vs pipelined, socket & node
//                  -> fig3_left.csv
//   fig3-right     Fig. 3 (right): looseness d_u, d_u x block, team delay
//                  -> fig3_right.csv
//   blocksize      Sec. 1.5: inner-loop length (host), block geometry
//                  -> blocksize_ablation.csv
//   compressed     Sec. 1.3: compressed grid vs two grids
//                  -> compressed_ablation.csv, BENCH_compressed.json
//   wavefront      Ref. [2] wavefront vs pipelined blocking
//                  -> wavefront_vs_pipeline.csv, BENCH_wavefront.json
//   machines       Sec. 3: the gain across architectures -> machines.csv
//   fig5           Fig. 5: multi-layer halo advantage
//                  -> fig5_advantage.csv, fig5_inset.csv
//   halo           Sec. 2.1: executed halo volume vs the model
//                  -> halo_volume.csv
//   fig6           Fig. 6: cluster strong and weak scaling
//                  -> fig6_strong.csv, fig6_weak.csv
//   overlap        Sec. 3 outlook: communication/computation overlap
//                  -> overlap_model.csv (or --csv PATH; "" skips it)
//
// --n is the grid extent of the sections that take one (600, 66 for
// halo, when unset); blocksize and wavefront sweep fixed sizes.  Files
// land in the working directory.
// The paper anchors these tables print are pinned by tests/sim and
// tests/perfmodel.
#include <algorithm>
#include <array>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "core/kernels.hpp"
#include "dist/registry.hpp"
#include "obs/rundb.hpp"
#include "perfmodel/cluster_model.hpp"
#include "perfmodel/halo_model.hpp"
#include "perfmodel/model_api.hpp"
#include "perfmodel/single_cache_model.hpp"
#include "perfmodel/stream.hpp"
#include "perfmodel/wavefront_model.hpp"
#include "sim/node_sim.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace tb;
using core::BlockSize;
using core::PipelineConfig;

struct Opts {
  int n = 0;  ///< 0: the section's own default
  std::string op;
  std::string csv;

  [[nodiscard]] int n_or(int def) const { return n > 0 ? n : def; }
};

std::string fmt(double v, const char* spec = "%.3f") {
  char buf[32];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

std::string block_name(BlockSize b) {
  return std::to_string(b.bx) + "x" + std::to_string(b.by) + "x" +
         std::to_string(b.bz);
}

double kib(BlockSize b) { return static_cast<double>(b.bytes(2)) / 1024.0; }

std::array<int, 3> cube(int n) { return {n, n, n}; }

// ---- machine-model: Sec. 1.1 / 1.4 ---------------------------------------

void eq5_table(const topo::MachineSpec& m) {
  const int t = m.cores_per_socket;
  std::printf("\nEq. (5) speedup model, t = %d threads per cache group\n", t);
  util::TableWriter tw({"T", "speedup Eq.(5)", "predicted MLUP/s",
                        "paper 16T/(7+4T)"});
  for (int T : {1, 2, 4, 8, 16})
    tw.add(T, perfmodel::pipeline_speedup(m, t, T),
           perfmodel::pipeline_lups_socket(m, t, T) / 1e6,
           16.0 * T / (7.0 + 4.0 * T));  // the paper's rounded ratios
  tw.print();
}

void machine_model(const Opts&) {
  std::printf("=== Machine model (paper Sec. 1.1 / 1.4) ===\n\n");
  const topo::MachineSpec m = topo::nehalem_ep();
  util::TableWriter t({"parameter", "value"});
  t.add("machine", m.name);
  t.add("sockets x cores", std::to_string(m.sockets) + " x " +
                               std::to_string(m.cores_per_socket));
  t.add("shared cache [MiB]",
        static_cast<double>(m.shared_cache_bytes) / (1 << 20));
  t.add("Ms   (socket)  [GB/s]", m.mem_bw_socket / 1e9);
  t.add("Ms,1 (1 thread)[GB/s]", m.mem_bw_single / 1e9);
  t.add("Mc   (cache)   [GB/s]", m.cache_bw / 1e9);
  t.add("Ms/Ms,1", m.mem_bw_socket / m.mem_bw_single);
  t.add("Mc/Ms,1", m.cache_bw / m.mem_bw_single);
  t.add("Eq.(2) P0 socket [MLUP/s]", perfmodel::baseline_lups_socket(m) / 1e6);
  t.add("Eq.(2) P0 node   [MLUP/s]", perfmodel::baseline_lups_node(m) / 1e6);
  t.add("P0 socket w/o NT stores [MLUP/s]",
        perfmodel::baseline_lups_socket_rfo(m) / 1e6);
  t.add("speedup limit Mc/Ms", perfmodel::pipeline_speedup_limit(m));
  t.print();
  eq5_table(m);

  std::printf("\nMax thread distance estimate: cache / (t * block bytes)\n");
  util::TableWriter d({"block", "block KiB (2 grids)", "d_u estimate"});
  for (const BlockSize b : {BlockSize{120, 20, 20}, BlockSize{120, 40, 40},
                            BlockSize{600, 20, 20}})
    d.add(block_name(b), kib(b),
          perfmodel::max_thread_distance(m, m.cores_per_socket, b.bytes(2)));
  d.print();

  std::printf(
      "\n--- contrast: bandwidth-scalable architecture (bad candidate) ---\n");
  eq5_table(topo::bandwidth_scalable());
}

// ---- host-stream: the three model bandwidths, measured here --------------

void host_stream(const Opts&) {
  // The LLC the tuner and the benchmark's calibration see: Ms streams
  // arrays 8x that size, Mc copies 1/4 of it.
  const topo::MachineSpec host = topo::host_machine();
  const std::size_t llc = host.shared_cache_bytes;
  const int threads = host.cores_per_socket;
  std::printf(
      "=== Host STREAM COPY (this machine, %d hardware threads, %.0f MiB "
      "LLC) ===\n(re-parameterizes the model on real hardware)\n\n",
      threads, static_cast<double>(llc) / (1 << 20));
  util::TableWriter t({"measurement", "GB/s", "spread %"});
  auto row = [&](const char* what, const perfmodel::BandwidthResult& r) {
    t.add(what, r.bytes_per_second / 1e9, 100.0 * r.relative_spread);
  };
  row("Ms,1 (1 thread, NT stores)", perfmodel::measure_ms1(llc));
  row("Ms (all threads, NT stores)", perfmodel::measure_ms(threads, llc));
  row("Mc (cache-resident copy, median)",
      perfmodel::measure_mc(threads, llc));
  t.print();
  std::printf(
      "(spread: interquartile range of the repetitions over their median; "
      "Ms and Ms,1 report the best repetition)\n");
}

// ---- fig3-left: socket & node, standard vs pipelined ---------------------

void fig3_left(const Opts& o) {
  const int n = o.n_or(600);
  const int opt_T = 2;  // the empirically optimal T
  std::printf("=== Fig. 3 (left): socket & node, %d^3 grid ===\n", n);
  std::printf(
      "(simulated Nehalem EP; optimal T determined empirically = %d)\n\n",
      opt_T);

  // Index s: 0 = one socket (one team), 1 = the node (one team per socket).
  const sim::SimMachine machines[] = {sim::nehalem(1), sim::nehalem(2)};
  util::TableWriter t(
      {"series", "Socket [MLUP/s]", "Node [MLUP/s]", "socket speedup"});
  double standard[2] = {};
  for (int s = 0; s < 2; ++s)
    standard[s] =
        sim::simulate_standard(machines[s], cube(n), 4 * (s + 1), 2).mlups;
  t.add("Standard Jacobi", standard[0], standard[1], 1.0);

  auto series = [&](const char* name, core::SyncMode sync, int du, int T) {
    double v[2] = {};
    for (int s = 0; s < 2; ++s) {
      PipelineConfig pc = sim::paper_schedule(s + 1, T);
      pc.sync = sync;
      pc.du = du;
      v[s] = sim::simulate_pipeline(machines[s], pc, cube(n), 1).mlups;
    }
    t.add(name, v[0], v[1], v[0] / standard[0]);
  };
  series("Pipeline w/ barrier", core::SyncMode::kBarrier, 4, opt_T);
  series("Pipeline relaxed du=1", core::SyncMode::kRelaxed, 1, opt_T);
  series("Pipeline relaxed du=4", core::SyncMode::kRelaxed, 4, opt_T);
  series("Pipeline relaxed T=1", core::SyncMode::kRelaxed, 4, 1);

  const topo::MachineSpec& socket = machines[0].spec;
  const double model1 = perfmodel::pipeline_lups_socket(socket, 4, 1) / 1e6;
  const double model2 = perfmodel::pipeline_lups_socket(socket, 4, 2) / 1e6;
  t.add("Model Eq.(5) T=1", model1, 2 * model1, model1 / standard[0]);
  t.add("Model Eq.(5) T=2", model2, 2 * model2, model2 / standard[0]);
  t.print();
  t.write_csv("fig3_left.csv");

  std::printf(
      "\npaper anchors: standard socket ~%.0f (Eq.2); pipelined speedup\n"
      "50-60%%; T=1 simulation matches the model; Eq.(5) overpredicts T=2\n"
      "(execution decouples from memory bandwidth).\n",
      perfmodel::baseline_lups_socket(socket) / 1e6);
}

// ---- fig3-right: looseness, block coupling, team delay -------------------

void fig3_right(const Opts& o) {
  const int n = o.n_or(600);
  const sim::SimMachine socket = sim::nehalem(1), node = sim::nehalem(2);
  // GLUP/s of the T = 2 paper schedule, one team per socket of `m`.
  auto glups = [&](const sim::SimMachine& m, int du, BlockSize b,
                   int dt = 0) {
    PipelineConfig pc = sim::paper_schedule(m.spec.sockets, 2);
    pc.du = du;
    pc.block = b;
    pc.dt = dt;
    return sim::simulate_pipeline(m, pc, cube(n), 1).mlups / 1e3;
  };
  const BlockSize paper_block{120, 20, 20};

  std::printf("=== Fig. 3 (right): pipeline looseness, %d^3, T=2, dl=1 ===\n\n",
              n);
  util::TableWriter t({"du - dl", "Socket [GLUP/s]", "Node [GLUP/s]"});
  double sock_lock = 0, sock_best = 0, node_lock = 0, node_best = 0;
  for (int du = 1; du <= 6; ++du) {
    const double s = glups(socket, du, paper_block);
    const double nn = glups(node, du, paper_block);
    if (du == 1) {
      sock_lock = s;
      node_lock = nn;
    }
    sock_best = std::max(sock_best, s);
    node_best = std::max(node_best, nn);
    t.add(du - 1, s, nn);
  }
  t.print();
  t.write_csv("fig3_right.csv");
  std::printf(
      "\ngain over lockstep: socket %.0f %%, node %.0f %% "
      "(paper reports ~80 %%)\n",
      100.0 * (sock_best / sock_lock - 1.0),
      100.0 * (node_best / node_lock - 1.0));

  // Coupling of d_u and block size: larger blocks require smaller d_u.
  std::printf("\n--- ablation: du x block size (node GLUP/s) ---\n");
  util::TableWriter bt({"block", "du=1", "du=2", "du=4", "du=8"});
  for (const BlockSize b : {paper_block, BlockSize{120, 30, 30},
                            BlockSize{120, 40, 40}, BlockSize{300, 30, 30}}) {
    std::vector<std::string> row{block_name(b)};
    for (int du : {1, 2, 4, 8}) row.push_back(fmt(glups(node, du, b)));
    bt.add_row(std::move(row));
  }
  bt.print();

  // Team delay d_t: "only a very slight impact (~3 % for dt = 8)".
  std::printf("\n--- ablation: team delay d_t (node, du=4) ---\n");
  util::TableWriter dt_table({"dt", "Node [GLUP/s]", "vs dt=0 [%]"});
  double dt0 = 0.0;
  for (int dt : {0, 2, 4, 8, 16}) {
    const double v = glups(node, 4, paper_block, dt);
    if (dt == 0) dt0 = v;
    dt_table.add(dt, v, 100.0 * (v / dt0 - 1.0));
  }
  dt_table.print();
}

// ---- blocksize: Sec. 1.5 -------------------------------------------------

// Host row-kernel MLUP/s at inner-loop length bx, L2-resident, best of 3
// at ~total_cells updates.
double time_rows(int bx, long long total_cells) {
  const int ny = 34, nz = 34;
  core::Grid3 src(bx + 2, ny, nz), dst(bx + 2, ny, nz);
  core::fill_test_pattern(src);
  dst.fill(0.0);
  const long long reps =
      std::max<long long>(1, total_cells / (1LL * bx * (ny - 2) * (nz - 2)));
  double best = 1e300;
  for (int trial = 0; trial < 3; ++trial) {
    util::Timer t;
    for (long long r = 0; r < reps; ++r)
      for (int k = 1; k < nz - 1; ++k)
        for (int j = 1; j < ny - 1; ++j)
          core::jacobi_row(dst.row(j, k), src.row(j, k), src.row(j - 1, k),
                           src.row(j + 1, k), src.row(j, k - 1),
                           src.row(j, k + 1), 1, bx + 1);
    best = std::min(best, t.elapsed());
  }
  return 1.0 * reps * bx * (ny - 2) * (nz - 2) / best / 1e6;
}

void blocksize(const Opts&) {
  // "Due to the hardware prefetching mechanisms on current x86 designs,
  // a long inner loop (comparable to the page size) is favorable."
  std::printf(
      "=== Ablation: inner loop length (real host, L2-resident) ===\n\n");
  util::TableWriter host({"bx", "MLUP/s"});
  for (int bx : {8, 16, 32, 64, 120, 240, 600})
    host.add(bx, time_rows(bx, 40'000'000));
  host.print();

  std::printf(
      "\n=== Ablation: pipelined block geometry (simulated socket, 600^3) "
      "===\n\n");
  const sim::SimMachine socket = sim::nehalem(1);
  util::TableWriter t({"block", "KiB(2 grids)", "MLUP/s"});
  for (const BlockSize b :
       {BlockSize{30, 20, 20}, BlockSize{60, 20, 20}, BlockSize{120, 20, 20},
        BlockSize{120, 10, 10}, BlockSize{120, 40, 40}, BlockSize{300, 20, 20},
        BlockSize{600, 20, 20}, BlockSize{600, 40, 40}}) {
    PipelineConfig pc = sim::paper_schedule(1, 2);
    pc.block = b;
    t.add(block_name(b), kib(b),
          sim::simulate_pipeline(socket, pc, cube(600), 1).mlups);
  }
  t.print();
  t.write_csv("blocksize_ablation.csv");

  std::printf(
      "\npaper anchors: long inner loops favorable for the standard code;\n"
      "bx ~ 120 best for the temporally blocked versions; du and block\n"
      "size are strongly coupled through the cache capacity.\n");
}

// ---- compressed: Sec. 1.3 ------------------------------------------------

// "Only one grid is necessary, saving nearly half the memory and
// lessening the bandwidth requirements."  Compressed and two-grid runs
// are bit-identical (tests/core/test_equivalence.cpp, Modes).
void compressed(const Opts& o) {
  const int n = o.n_or(600);
  const double cells = 1.0 * n * n * n;
  std::printf("=== Ablation: compressed grid vs two-grid (%d^3) ===\n\n", n);

  const PipelineConfig two = sim::paper_schedule(1, 2);
  PipelineConfig comp = two;
  comp.scheme = core::GridScheme::kCompressed;
  const int S = comp.levels_per_sweep();
  // Two grids of n^3 vs one grid of (n + S)^3.
  const double two_grid_mib = 2.0 * cells * sizeof(double) / (1 << 20);
  const double comp_mib =
      1.0 * (n + S) * (n + S) * (n + S) * sizeof(double) / (1 << 20);

  const sim::SimMachine socket = sim::nehalem(1);
  const auto r2 = sim::simulate_pipeline(socket, two, cube(n), 1);
  const auto rc = sim::simulate_pipeline(socket, comp, cube(n), 1);

  util::TableWriter t({"metric", "two-grid", "compressed", "ratio"});
  t.add("storage [MiB]", two_grid_mib, comp_mib, comp_mib / two_grid_mib);
  t.add("memory traffic/sweep [B/cell]", r2.mem_bytes / cells,
        rc.mem_bytes / cells, rc.mem_bytes / std::max(1.0, r2.mem_bytes));
  t.add("simulated socket MLUP/s", r2.mlups, rc.mlups, rc.mlups / r2.mlups);
  t.print();
  t.write_csv("compressed_ablation.csv");
  obs::write_bench_json(
      "compressed", {{"two-grid/jacobi", r2.mem_bytes / (cells * S), r2.mlups},
                     {"compressed/jacobi", rc.mem_bytes / (cells * S),
                      rc.mlups}});
}

// ---- wavefront: Ref. [2] -------------------------------------------------

// Pipelined blocking tiles all three dimensions into cache-sized blocks;
// the wavefront keeps whole xy-planes in flight.  Once the plane grows
// past cache/4t the wavefront falls to the standard memory-bound ceiling
// while pipelined blocking keeps its speedup.
void wavefront(const Opts&) {
  const sim::SimMachine socket = sim::nehalem(1);
  const topo::MachineSpec& m = socket.spec;
  std::printf("=== Wavefront [2] vs pipelined blocking (simulated %s) ===\n\n",
              m.name.c_str());

  util::TableWriter t({"grid", "wave WS [MiB]", "fits L3", "Standard",
                       "Wavefront t=4", "Pipelined T=1", "Pipelined T=2"});
  std::vector<obs::RunRow> report;
  for (int n : {100, 150, 200, 300, 450, 600}) {
    const double std_mlups =
        sim::simulate_standard(socket, cube(n), 4, 2).mlups;
    const double wave = perfmodel::wavefront_lups_socket(m, n, n, 4) / 1e6;
    double pipe[2] = {};
    for (int T : {1, 2}) {
      PipelineConfig pc = sim::paper_schedule(1, T);
      pc.block.bx = std::min(n, 120);
      pipe[T - 1] = sim::simulate_pipeline(socket, pc, cube(n), 1).mlups;
    }
    const double ws_mib =
        static_cast<double>(perfmodel::wavefront_working_set(n, n, 4)) /
        (1 << 20);
    t.add(std::to_string(n) + "^3", ws_mib,
          perfmodel::wavefront_fits(m, n, n, 4) ? "yes" : "no", std_mlups,
          wave, pipe[0], pipe[1]);
    // bytes/LUP: 2 words for the streaming standard sweep, 3 words
    // amortized over the depth for the temporally blocked schemes.
    report.push_back({"standard/" + std::to_string(n), 16.0, std_mlups});
    report.push_back({"wavefront4/" + std::to_string(n), 24.0 / 4, wave});
    report.push_back({"pipelined4/" + std::to_string(n), 24.0 / 4, pipe[0]});
  }
  t.print();
  t.write_csv("wavefront_vs_pipeline.csv");
  obs::write_bench_json("wavefront", report);

  std::printf(
      "\nmax wavefront depth that fits the 8 MiB L3: 600^2 planes -> t=%d, "
      "150^2 -> t=%d\n",
      perfmodel::max_wavefront_depth(m, 600, 600),
      perfmodel::max_wavefront_depth(m, 150, 150));
}

// ---- machines: Sec. 3 ----------------------------------------------------

// "Future multicore processors (just like the older Core 2 designs) can
// be expected to be less balanced, and thus profit more from temporal
// blocking."  One cache group of each design runs the paper schedule
// with a team as wide as the socket.
void machines(const Opts& o) {
  const int n = o.n_or(600);
  std::printf(
      "=== Temporal-blocking potential across architectures (%d^3) ===\n\n",
      n);
  util::TableWriter t({"machine", "Ms/Ms1", "Mc/Ms", "Standard",
                       "Pipelined T=2", "speedup"});
  for (const topo::MachineSpec& spec :
       {topo::nehalem_ep_socket(), topo::core2_like(),
        topo::bandwidth_scalable(), topo::starved_manycore()}) {
    sim::SimMachine m;
    m.spec = spec;
    m.spec.sockets = 1;
    const int cores = spec.cores_per_socket;
    const double std_mlups =
        sim::simulate_standard(m, cube(n), cores, 2).mlups;
    PipelineConfig pc = sim::paper_schedule(1, 2);
    pc.team_size = cores;
    const double pipe = sim::simulate_pipeline(m, pc, cube(n), 1).mlups;
    t.add(spec.name, spec.mem_bw_socket / spec.mem_bw_single,
          perfmodel::pipeline_speedup_limit(spec), std_mlups, pipe,
          pipe / std_mlups);
  }
  t.print();
  t.write_csv("machines.csv");

  std::printf(
      "\npaper anchors: bandwidth-starved designs (Core2-like, many-core)\n"
      "profit most; a bandwidth-scalable machine is 'a bad candidate for\n"
      "temporal blocking' (speedup ~ 1).\n");
}

// ---- fig5: multi-layer halo advantage ------------------------------------

// QDR InfiniBand (3.2 GB/s, 1.8 us: the LinkParams defaults), 2000 MLUP/s
// per node independent of L, no overlap, ghost cell expansion messages.
void fig5(const Opts&) {
  const double lups = 2000e6;
  const perfmodel::LinkParams link;
  const std::vector<double> sizes = {1,  2,  3,  5,  7,   10,  14,  20,
                                     28, 40, 56, 80, 113, 160, 226, 300};
  std::printf(
      "=== Fig. 5: multi-layer halo advantage (QDR-IB %.1f GB/s, "
      "%.1f us, %.0f MLUP/s per node) ===\n\n",
      link.bandwidth / 1e9, link.latency * 1e6, lups / 1e6);

  util::TableWriter t({"L", "h=2", "h=4", "h=8", "h=16", "h=32"});
  for (double L : sizes) {
    std::vector<std::string> row{std::to_string(static_cast<int>(L))};
    for (int h : {2, 4, 8, 16, 32})
      row.push_back(fmt(perfmodel::multi_halo_advantage(L, h, lups, link)));
    t.add_row(std::move(row));
  }
  t.print();
  t.write_csv("fig5_advantage.csv");

  std::printf("\n--- inset: computation / overall time ---\n");
  util::TableWriter inset({"L", "h=2", "h=32"});
  for (double L : sizes)
    inset.add(static_cast<int>(L),
              perfmodel::computational_efficiency(L, 2, lups, link),
              perfmodel::computational_efficiency(L, 32, lups, link));
  inset.print();
  inset.write_csv("fig5_inset.csv");

  std::printf(
      "\npaper anchors: advantage -> 1 at large L; extra halo work visible\n"
      "for 20 <~ L <~ 100 at h >= 16; message aggregation wins at small L;\n"
      "strongly communication-limited below L ~ 100 (inset).\n");
}

// ---- halo: executed exchange volume vs the Sec. 2.1 model ----------------

struct Measured {
  double bytes_per_update = 0.0;
  double messages = 0.0;
};

// 2x2x2 ranks, single-threaded, h levels per epoch; rank 0 is an
// interior corner, so all three of its upper faces exist.
Measured run_halo(const std::string& op, int n, int h, int epochs) {
  core::Grid3 initial(n, n, n);
  core::fill_test_pattern(initial);
  const core::Grid3 kappa = core::make_slab_kappa(n, n, n);
  dist::DistConfig cfg;
  cfg.proc_dims = {2, 2, 2};
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 1;
  cfg.pipeline.steps_per_thread = h;
  cfg.pipeline.block = {n, 8, 8};

  Measured out;
  simnet::World world(8);
  std::mutex m;
  world.run([&](simnet::Comm& comm) {
    auto solver = dist::make_distributed(op, comm, cfg, initial, &kappa);
    const auto st = solver->advance(epochs);
    if (comm.rank() != 0) return;
    const std::scoped_lock lock(m);
    out.bytes_per_update =
        static_cast<double>(st.comm.bytes) / (static_cast<double>(h) * epochs);
    out.messages = static_cast<double>(st.comm.messages) / epochs;
  });
  return out;
}

// "The amount of data communication per stencil update is roughly the
// same as for no temporal blocking, except for edge and corner
// contributions."  lbm ships its 19 distributions beside the carrier in
// the same messages; the model charges the same multiplier
// (operator_traffic().halo_fields).
void halo(const Opts& o) {
  const int n = o.n_or(66);
  const double field_bytes =
      8.0 * perfmodel::operator_traffic(o.op).halo_fields;
  std::printf(
      "=== Halo exchange volume vs h (2x2x2 ranks, %d^3 global, operator "
      "%s, %.0f B/halo cell, executing runtime) ===\n\n",
      n, o.op.c_str(), field_bytes);
  util::TableWriter t({"h", "msgs/epoch", "bytes/update", "vs h=1",
                       "model bytes/update"});
  double base = 0.0;
  for (int h : {1, 2, 4, 8}) {
    const Measured m = run_halo(o.op, n, h, 2);
    if (h == 1) base = m.bytes_per_update;
    // Analytic: the corner rank owns ~(n-2)/2 cells per dim, 3 faces.
    perfmodel::EpochParams ep;
    const double L = (n - 2) / 2.0;
    ep.extent = {L, L, L};
    ep.halo = h;
    ep.field_bytes = field_bytes;
    ep.neighbors.lo = {false, false, false};
    ep.neighbors.hi = {true, true, true};
    t.add(h, m.messages, m.bytes_per_update, m.bytes_per_update / base,
          perfmodel::halo_epoch_cost(ep).bytes_sent / h);
  }
  t.print();
  t.write_csv("halo_volume.csv");
  std::printf(
      "\nmessages drop 1/h per update while bytes/update stay roughly\n"
      "constant (edge/corner expansion adds the small growth with h).\n");
}

// ---- fig6: cluster scaling -----------------------------------------------

// Per-process rates from the node simulator (the Fig. 3 engine); epochs
// from the Sec. 2.1 cluster model with ghost cell expansion, NIC sharing
// and pack overhead.
void fig6(const Opts& o) {
  const int n = o.n_or(600);
  const sim::SimMachine socket = sim::nehalem(1), node = sim::nehalem(2);
  const double std_core =
      sim::simulate_standard(socket, cube(n), 4, 2).mlups / 4.0;  // 8PPN
  const double std_node =
      sim::simulate_standard(node, cube(n), 8, 2).mlups;  // 1PPN (vector)
  const PipelineConfig pipe_sock = sim::paper_schedule(1, 2);
  const PipelineConfig pipe_node = sim::paper_schedule(2, 2);
  const double pipe_socket_lups =
      sim::simulate_pipeline(socket, pipe_sock, cube(n), 1,
                             topo::PagePlacement::kFirstTouch)
          .mlups;
  const double pipe_node_lups =
      sim::simulate_pipeline(node, pipe_node, cube(n), 1).mlups;

  struct Series {
    const char* name;
    int ppn;
    int halo;          // levels per exchange epoch
    double proc_lups;  // per-process compute rate
  };
  const Series series[] = {
      {"Standard 1PPN", 1, 1, std_node * 1e6},
      {"Standard 8PPN", 8, 1, std_core * 1e6},
      {"Pipelined 1PPN", 1, pipe_node.levels_per_sweep(),
       pipe_node_lups * 1e6},
      {"Pipelined 2PPN", 2, pipe_sock.levels_per_sweep(),
       pipe_socket_lups * 1e6},
  };
  std::printf("=== Fig. 6 inputs: per-process rates (node simulator) ===\n");
  util::TableWriter inputs({"series", "h", "proc MLUP/s"});
  for (const Series& s : series) inputs.add(s.name, s.halo, s.proc_lups / 1e6);
  inputs.print();

  const perfmodel::ClusterParams params;  // QDR-IB + shm + pack=1
  auto glups = [&](int nodes, const Series& s, bool weak) {
    return perfmodel::evaluate_cluster({nodes, s.ppn, static_cast<double>(n),
                                        weak, s.halo, s.proc_lups},
                                       params)
        .glups;
  };
  for (const bool weak : {false, true}) {
    std::printf("\n=== Fig. 6: %s scaling, %d^3 %s ===\n",
                weak ? "weak" : "strong", n, weak ? "per process" : "total");
    util::TableWriter t({"nodes", "Std 1PPN", "Std 8PPN", "Pipe 1PPN",
                         "Pipe 2PPN", "Ideal std", "Ideal pipe"});
    for (int nodes : {1, 8, 27, 64}) {
      std::vector<std::string> row{std::to_string(nodes)};
      for (const Series& s : series)
        row.push_back(fmt(glups(nodes, s, weak), "%.2f"));
      // Ideal references: per-node single-node performance x nodes.
      row.push_back(fmt(nodes * 8.0 * std_core / 1e3, "%.2f"));
      row.push_back(fmt(nodes * 2.0 * pipe_socket_lups / 1e3, "%.2f"));
      t.add_row(std::move(row));
    }
    t.print();
    t.write_csv(weak ? "fig6_weak.csv" : "fig6_strong.csv");
  }
  std::printf(
      "\npaper anchors: hybrid-vector (1PPN) standard clearly inferior;\n"
      "strong scaling communication-dominated at large node counts (the\n"
      "temporal blocking benefit is not maintained); weak scaling keeps\n"
      "~80%% of the pipelined speedup at 2PPN.\n");

  // The headline claim: the share of the shared-memory pipelined speedup
  // kept under weak scaling at 64 nodes, 2PPN pipelined vs 8PPN standard.
  const double dist_speedup =
      glups(64, series[3], true) / glups(64, series[1], true);
  const double shared_mem_speedup = 2.0 * pipe_socket_lups / (8.0 * std_core);
  std::printf(
      "\nweak scaling @64 nodes: pipelined/standard = %.3f; shared-memory\n"
      "speedup = %.3f; retained fraction = %.0f %% (paper: ~80 %%)\n",
      dist_speedup, shared_mem_speedup,
      100.0 * dist_speedup / shared_mem_speedup);
}

// ---- overlap: Sec. 3 outlook ---------------------------------------------

// The paper's MPI had "no explicit or implicit overlapping of
// communication and computation".  (a) The cluster model's strong
// scaling with and without wire/compute overlap; (b) the executing
// overlapped solver (non-blocking sends, inner/shell split) on a slow
// network, where the simulated clocks show the saved time.  Overlapped
// and blocking runs are bit-identical (tests/dist/test_distributed.cpp,
// Overlapped vs ProcessGrids).
void overlap(const Opts& o) {
  const int n = o.n_or(600);
  const double core_lups =
      sim::simulate_standard(sim::nehalem(1), cube(n), 4, 2).mlups / 4.0 *
      1e6;
  std::printf("=== Overlap headroom, standard Jacobi 8PPN, %d^3 strong ===\n\n",
              n);
  util::TableWriter t({"nodes", "no overlap [GLUP/s]", "overlap [GLUP/s]",
                       "gain [%]", "comm fraction"});
  const perfmodel::ClusterParams params;
  for (int nodes : {1, 8, 27, 64, 125}) {
    perfmodel::ClusterRun run{nodes, 8, static_cast<double>(n), false, 1,
                              core_lups};
    const auto plain = perfmodel::evaluate_cluster(run, params);
    run.overlap = true;
    const auto lapped = perfmodel::evaluate_cluster(run, params);
    t.add(nodes, plain.glups, lapped.glups,
          100.0 * (lapped.glups / plain.glups - 1.0), 1.0 - plain.comp_ratio());
  }
  t.print();
  if (!o.csv.empty()) {
    if (t.write_csv(o.csv))
      std::printf("\nwrote %s\n", o.csv.c_str());
    else
      std::fprintf(stderr, "warning: cannot write %s\n", o.csv.c_str());
  }

  const int m = 34;
  core::Grid3 initial(m, m, m);
  core::fill_test_pattern(initial);
  simnet::NetworkModel slow;
  slow.latency = 20e-6;
  slow.bandwidth = 0.5e9;
  slow.pack_overhead = 0.3;
  auto run_mode = [&](bool overlapped) {
    dist::DistConfig cfg;
    cfg.proc_dims = {2, 2, 1};
    cfg.pipeline.teams = 1;
    cfg.pipeline.team_size = 1;
    cfg.pipeline.steps_per_thread = 1;
    cfg.pipeline.block = {m, 8, 8};
    cfg.proc_lups = 1.0e9;
    cfg.overlap = overlapped;
    simnet::World world(4, slow);
    world.run([&](simnet::Comm& comm) {
      dist::DistributedStencil solver(core::Operator::kJacobi, comm, cfg,
                                      initial);
      solver.advance(8);
    });
    return world.max_sim_time();
  };
  const double blocking_s = run_mode(false);
  const double overlapped_s = run_mode(true);
  std::printf(
      "\nexecuting demo (%d^3, 4 ranks, slow net): blocking %.3f ms, "
      "overlapped %.3f ms (-%.0f %%)\n",
      m, blocking_s * 1e3, overlapped_s * 1e3,
      100.0 * (1.0 - overlapped_s / blocking_s));
}

struct Section {
  const char* name;
  void (*run)(const Opts&);
};

constexpr Section kSections[] = {
    {"machine-model", machine_model}, {"host-stream", host_stream},
    {"fig3-left", fig3_left},         {"fig3-right", fig3_right},
    {"blocksize", blocksize},         {"compressed", compressed},
    {"wavefront", wavefront},         {"machines", machines},
    {"fig5", fig5},                   {"halo", halo},
    {"fig6", fig6},                   {"overlap", overlap},
};

int run(const util::Args& args) {
  std::vector<std::string> names{"all"};
  for (const Section& s : kSections) names.emplace_back(s.name);
  const std::string pick =
      args.get_choice("section", "all", names, "section to run, or all");
  const Opts o{
      args.get_int("n", 0, "grid extent (0: per section)"),
      args.get_choice("operator", "jacobi", core::registered_operators(),
                      "stencil of the halo section"),
      args.get("csv", "overlap_model.csv",
               "overlap section's CSV (\"\": none)")};
  args.finish();
  const char* sep = "";
  for (const Section& s : kSections) {
    if (pick != "all" && pick != s.name) continue;
    std::printf("%s", sep);
    sep = "\n";
    s.run(o);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::run_main(argc, argv, run); }
