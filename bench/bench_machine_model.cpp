// Machine characterization and diagnostic-model tables.
//
// Reproduces the quantitative statements of Sec. 1.1 and 1.4:
//  * Eq. (2): P0 = Ms / 16 B — 2.3 GLUP/s expectation on the Nehalem node;
//  * the bandwidth ratios Ms/Ms,1 ~ 2 and Mc/Ms,1 ~ 8;
//  * Eq. (5): speedup 16T/(7+4T) at t = 4, i.e. 1.45 at T = 1;
//  * the asymptotic speedup limit Mc/Ms ~ 4;
//  * the maximum-thread-distance estimate cache/(t * block bytes).
//
// Additionally measures STREAM COPY on the *host* (threads, non-temporal
// stores) so the model can be re-parameterized for real hardware.
#include <cstdio>

#include "core/blocks.hpp"
#include "perfmodel/single_cache_model.hpp"
#include "perfmodel/stream.hpp"
#include "topo/machine.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

void print_spec_table(const tb::topo::MachineSpec& m) {
  tb::util::TableWriter t({"parameter", "value"});
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
  t.add("Eq.(2) P0 socket [MLUP/s]",
        tb::perfmodel::baseline_lups_socket(m) / 1e6);
  t.add("Eq.(2) P0 node   [MLUP/s]",
        tb::perfmodel::baseline_lups_node(m) / 1e6);
  t.add("P0 socket w/o NT stores [MLUP/s]",
        tb::perfmodel::baseline_lups_socket_rfo(m) / 1e6);
  t.add("speedup limit Mc/Ms", tb::perfmodel::pipeline_speedup_limit(m));
  t.print();
}

void print_eq5_table(const tb::topo::MachineSpec& m) {
  std::printf("\nEq. (5) speedup model, t = %d threads per cache group\n",
              m.cores_per_socket);
  tb::util::TableWriter t({"T", "speedup Eq.(5)", "predicted MLUP/s",
                           "paper 16T/(7+4T)"});
  for (int T : {1, 2, 4, 8, 16}) {
    const double s = tb::perfmodel::pipeline_speedup(m, m.cores_per_socket, T);
    const double quoted = 16.0 * T / (7.0 + 4.0 * T);  // rounded ratios
    t.add(T, s, tb::perfmodel::pipeline_lups_socket(m, m.cores_per_socket, T) / 1e6,
          quoted);
  }
  t.print();
}

void print_distance_table(const tb::topo::MachineSpec& m) {
  std::printf("\nMax thread distance estimate: cache / (t * block bytes)\n");
  tb::util::TableWriter t({"block", "block KiB (2 grids)", "d_u estimate"});
  for (const tb::core::BlockSize b :
       {tb::core::BlockSize{120, 20, 20}, tb::core::BlockSize{120, 40, 40},
        tb::core::BlockSize{600, 20, 20}}) {
    t.add(std::to_string(b.bx) + "x" + std::to_string(b.by) + "x" +
              std::to_string(b.bz),
          static_cast<double>(b.bytes(2)) / 1024.0,
          tb::perfmodel::max_thread_distance(m, m.cores_per_socket,
                                             b.bytes(2)));
  }
  t.print();
}

void measure_host(bool quick) {
  const int cores = tb::topo::hardware_cores();
  const std::size_t llc = 32u << 20;  // assume 32 MiB if unknown
  std::printf(
      "\nHost STREAM COPY (this machine, %d hardware threads) — used to\n"
      "re-parameterize the model on real hardware:\n",
      cores);
  tb::util::TableWriter t({"measurement", "GB/s"});
  const auto ms1 = tb::perfmodel::measure_ms1(quick ? llc / 8 : llc);
  t.add("Ms,1 (1 thread, NT stores)", ms1.bytes_per_second / 1e9);
  const auto ms = tb::perfmodel::measure_ms(cores, quick ? llc / 8 : llc);
  t.add("Ms (all threads, NT stores)", ms.bytes_per_second / 1e9);
  const auto mc = tb::perfmodel::measure_mc(cores, llc);
  t.add("Mc (cache-resident copy)", mc.bytes_per_second / 1e9);
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const tb::util::Args args(argc, argv);
  std::printf("=== Machine model (paper Sec. 1.1 / 1.4) ===\n\n");
  const tb::topo::MachineSpec nehalem = tb::topo::nehalem_ep();
  print_spec_table(nehalem);
  print_eq5_table(nehalem);
  print_distance_table(nehalem);

  std::printf("\n--- contrast: bandwidth-scalable architecture (bad candidate) ---\n");
  print_eq5_table(tb::topo::bandwidth_scalable());

  if (!args.get_bool("no-host", false)) measure_host(args.get_bool("quick", true));
  return 0;
}
