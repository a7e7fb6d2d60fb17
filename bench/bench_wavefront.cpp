// Comparison: pipelined temporal blocking vs the wavefront method
// (Ref. [2]) vs the standard algorithm.
//
// "Ref. [2] describes a 'wavefront' method similar to the one introduced
// here" — the key difference being that pipelined blocking tiles all
// three dimensions into cache-sized blocks, while the wavefront keeps
// whole xy-planes in flight.  The capacity model shows the crossover: on
// small planes both win; as the plane grows past cache/4t, the wavefront
// degenerates to the standard memory-bound ceiling while pipelined
// blocking keeps its speedup by shrinking blocks.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/rundb.hpp"
#include "perfmodel/wavefront_model.hpp"
#include "sim/node_sim.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const tb::util::Args args(argc, argv);
  tb::sim::SimMachine socket;
  socket.spec = tb::topo::nehalem_ep_socket();
  const tb::topo::MachineSpec& m = socket.spec;

  std::printf("=== Wavefront [2] vs pipelined blocking (simulated %s) ===\n\n",
              m.name.c_str());

  tb::util::TableWriter t({"grid", "wave WS [MiB]", "fits L3",
                           "Standard", "Wavefront t=4", "Pipelined T=1",
                           "Pipelined T=2"});
  std::vector<tb::obs::RunRow> report;
  for (int n : {100, 150, 200, 300, 450, 600}) {
    const std::array<int, 3> grid{n, n, n};
    const double std_mlups =
        tb::sim::simulate_standard(socket, grid, 4, 2).mlups;

    const double wave =
        tb::perfmodel::wavefront_lups_socket(m, n, n, 4) / 1e6;

    tb::core::PipelineConfig pc;
    pc.teams = 1;
    pc.team_size = 4;
    pc.block = {std::min(n, 120), 20, 20};
    pc.steps_per_thread = 1;
    const double pipe1 =
        tb::sim::simulate_pipeline(socket, pc, grid, 1).mlups;
    pc.steps_per_thread = 2;
    const double pipe2 =
        tb::sim::simulate_pipeline(socket, pc, grid, 1).mlups;

    const double ws_mib =
        static_cast<double>(tb::perfmodel::wavefront_working_set(n, n, 4)) /
        (1 << 20);
    t.add(std::to_string(n) + "^3", ws_mib,
          tb::perfmodel::wavefront_fits(m, n, n, 4) ? "yes" : "no",
          std_mlups, wave, pipe1, pipe2);
    // bytes/LUP: 2 words for the streaming standard sweep, 3 words
    // amortized over the depth for the temporally blocked schemes.
    report.push_back({"standard/" + std::to_string(n), 16.0, std_mlups});
    report.push_back({"wavefront4/" + std::to_string(n), 24.0 / 4, wave});
    report.push_back({"pipelined4/" + std::to_string(n), 24.0 / 4, pipe1});
  }
  t.print();
  t.write_csv("wavefront_vs_pipeline.csv");
  tb::obs::write_bench_json("wavefront", report);

  std::printf(
      "\nmax wavefront depth that fits the 8 MiB L3: 600^2 planes -> t=%d, "
      "150^2 -> t=%d\n",
      tb::perfmodel::max_wavefront_depth(m, 600, 600),
      tb::perfmodel::max_wavefront_depth(m, 150, 150));
  return 0;
}
