// Real-host microbenchmarks of the vectorized row kernels and the
// single-thread baseline solver of every operator, against the NodeModel
// prediction for this host.
//
// Two sections:
//  * row/*       — one hot x-row re-swept from cache/memory: the pure
//                  kernel rate the SIMD layer achieves (GB/s, MLUP/s)
//  * baseline/*  — full baseline sweeps of each operator (1 thread),
//                  including the streaming-store jacobi and the
//                  software-prefetched D3Q19 pull, next to the
//                  perfmodel's baseline_lups prediction
//
// Emits BENCH_kernels.json (name, modeled bytes/LUP, measured MLUP/s)
// for the CI regression gate, like bench_lbm / bench_variants.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "obs/rundb.hpp"
#include "perfmodel/model_api.hpp"
#include "topo/machine.hpp"
#include "util/args.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {

/// Keeps the optimizer from deleting a benchmarked store stream.
inline void escape(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "g"(p) : "memory");
#else
  (void)p;
#endif
}

/// Best-of samples: steal time on a shared host only ever subtracts from
/// a throughput measurement, so the maximum is the honest estimate.
template <class F>
double best_mlups(long long lups_per_call, F&& fn, double min_seconds) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up: faults pages in, primes caches
  double best = 0.0, spent = 0.0;
  for (int rep = 0; rep < 3 || spent < min_seconds; ++rep) {
    const auto t0 = clock::now();
    fn();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    spent += dt;
    if (dt > 0.0)
      best = std::max(best, static_cast<double>(lups_per_call) / dt / 1e6);
  }
  return best;
}

int run(const tb::util::Args& args) {
  using namespace tb;
  const int nrow = args.get_int("row_n", 1 << 20, "cells of the row/* row");
  const int n = args.get_int("n", 128, "grid extent of baseline/*");
  const int lbm_n = args.get_int("lbm_n", 64, "grid extent of baseline/lbm*");
  const int steps = args.get_int("steps", 4, "time levels per sample");
  const double min_s = args.get_double(
      "min_seconds", 0.4, "sampling time per kernel (best of >= 3)");
  args.finish();
  if (nrow < 1) throw std::invalid_argument("--row_n must be >= 1");

  const topo::MachineSpec host = topo::host_machine();
  const perfmodel::NodeModel model(host);
  std::printf("=== Kernel benchmarks (host: %s, TB_SIMD: %s, W=%d) ===\n\n",
              host.name.c_str(), util::simd::kIsaName,
              util::simd::kNativeWidth);

  std::vector<obs::RunRow> report;
  util::TableWriter t({"kernel", "bytes/LUP", "MLUP/s", "GB/s",
                       "model MLUP/s", "meas/model"});
  auto add = [&](const std::string& name, double bpl, double mlups,
                 double predicted) {
    t.add(name, bpl, mlups, mlups * bpl / 1e3, predicted,
          predicted > 0 ? mlups / predicted : 0.0);
    report.push_back({name, bpl, mlups, predicted});
  };

  // ---- row kernels: one long x-row, repeatedly re-swept ---------------
  {
    const perfmodel::OperatorTraffic jt = perfmodel::operator_traffic("jacobi");
    core::Grid3 src(nrow + 2, 3, 3), dst(nrow + 2, 3, 3);
    core::fill_test_pattern(src);
    dst.fill(0.0);
    const int iters = std::max(1, static_cast<int>(4'000'000LL / nrow));
    const long long lups = static_cast<long long>(nrow) * iters;

    add("row/jacobi", jt.mem_bytes,
        best_mlups(lups,
                   [&] {
                     for (int r = 0; r < iters; ++r) {
                       core::jacobi_row(dst.row(1, 1), src.row(1, 1),
                                        src.row(0, 1), src.row(2, 1),
                                        src.row(1, 0), src.row(1, 2), 1,
                                        nrow + 1);
                       escape(dst.row(1, 1));
                     }
                   },
                   min_s),
        model.baseline_lups(jt, 1, false) / 1e6);
    add("row/jacobi:nt", jt.mem_bytes_nt,
        best_mlups(lups,
                   [&] {
                     for (int r = 0; r < iters; ++r) {
                       core::jacobi_row_nt(dst.row(1, 1), src.row(1, 1),
                                           src.row(0, 1), src.row(2, 1),
                                           src.row(1, 0), src.row(1, 2), 1,
                                           nrow + 1);
                       escape(dst.row(1, 1));
                     }
                     core::nontemporal_fence();
                   },
                   min_s),
        model.baseline_lups(jt, 1, core::nontemporal_supported()) / 1e6);
  }

  // ---- full baseline sweeps, one thread, every operator ---------------
  struct Case {
    std::string name;  ///< report key
    std::string op;    ///< registry operator
    bool nontemporal = false;
    int prefetch = 0;
    int extent = 0;  ///< grid edge (0: the carrier default)
  };
  const std::vector<Case> cases = {
      {"baseline/jacobi", "jacobi"},
      {"baseline/jacobi:nt", "jacobi", true},
      {"baseline/varcoef", "varcoef"},
      {"baseline/box27", "box27"},
      {"baseline/redblack", "redblack"},
      {"baseline/lbm", "lbm", false, 0, lbm_n},
      {"baseline/lbm:aa", "lbm:aa", false, 0, lbm_n},
      {"baseline/lbm:aa:pf16", "lbm:aa", false, 16, lbm_n},
  };
  for (const Case& c : cases) {
    const int e = c.extent > 0 ? c.extent : n;
    const perfmodel::OperatorTraffic traffic =
        perfmodel::operator_traffic(c.op);
    const bool nt = c.nontemporal && core::nontemporal_supported();
    core::Grid3 initial(e, e, e);
    core::fill_test_pattern(initial);
    const core::Grid3 kappa = core::make_slab_kappa(e, e, e);

    core::SolverConfig cfg;
    cfg.baseline.threads = 1;
    cfg.baseline.block = {e, 8, 8};
    cfg.baseline.nontemporal = nt;
    cfg.lbm_prefetch = c.prefetch;
    core::StencilSolver solver =
        core::make_solver("baseline", c.op, cfg, initial, &kappa);

    // The facade's RunStats counts the true cell updates (redblack only
    // touches half the interior per level), so time through it directly.
    solver.advance(steps);  // warm-up
    double mlups = 0.0, spent = 0.0;
    for (int rep = 0; rep < 3 || spent < min_s; ++rep) {
      const core::RunStats st = solver.advance(steps);
      mlups = std::max(mlups, st.mlups());
      spent += st.seconds;
    }
    const double bpl =
        (nt ? traffic.mem_bytes_nt : traffic.mem_bytes) + traffic.aux_bytes;
    add(c.name, bpl, mlups,
        model.baseline_lups(traffic, 1, nt, c.prefetch) / 1e6);
  }

  t.print();
  std::printf(
      "\nrow/* re-sweeps one %d-cell row (mostly cache-resident: kernel "
      "ceiling); baseline/* sweeps %d^3 / %d^3 grids through memory.\n",
      nrow, n, lbm_n);
  obs::write_bench_json("kernels", report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return tb::util::run_main(argc, argv, run); }
