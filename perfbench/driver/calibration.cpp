// Host fingerprint and host calibration: what this machine can do, taken
// in the same process as the workload so a result is never read against
// another host's ceilings.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/grid.hpp"
#include "core/kernels.hpp"
#include "core/stencil_op.hpp"
#include "lbm/kernel.hpp"
#include "lbm/lattice.hpp"
#include "perfmodel/stream.hpp"
#include "util/aligned_buffer.hpp"
#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  return "unknown";
}

/// Keeps the optimizer from deleting a benchmarked store stream.
inline void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Median ns per cell update of `row_fn` (one call = `cells` updates),
/// over 11 samples of `calls` calls each after one warm-up sample.
template <class F>
double median_ns_per_lup(F&& row_fn, int cells, int calls) {
  std::vector<double> samples;
  for (int s = 0; s < 12; ++s) {
    const auto t0 = Clock::now();
    for (int c = 0; c < calls; ++c) row_fn();
    const double dt = seconds_since(t0);
    if (s > 0) samples.push_back(dt * 1e9 / (static_cast<double>(cells) * calls));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// L1-resident row kernels: one short x-row of each operator re-swept.
JsonObject row_kernel_rates() {
  using tb::core::Grid3;
  constexpr int kCells = 256;  // jacobi: 7 rows x 2 KiB, within L1d
  JsonObject o;
  {
    Grid3 src(kCells + 2, 3, 3), dst(kCells + 2, 3, 3);
    tb::core::fill_test_pattern(src);
    dst.fill(0.0);
    o.num("jacobi", median_ns_per_lup(
                        [&] {
                          tb::core::jacobi_row(dst.row(1, 1), src.row(1, 1),
                                               src.row(0, 1), src.row(2, 1),
                                               src.row(1, 0), src.row(1, 2), 1,
                                               kCells + 1);
                          escape(dst.row(1, 1));
                        },
                        kCells, 2000));
  }
  {
    constexpr int kVc = 128;  // 6 face + 5 input + 1 output rows: 12 KiB
    Grid3 src(kVc + 2, 3, 3), dst(kVc + 2, 3, 3);
    tb::core::fill_test_pattern(src);
    dst.fill(0.0);
    const Grid3 kappa = tb::core::make_slab_kappa(kVc + 2, 3, 3);
    const tb::core::DiffusionCoefficients coeffs(kappa);
    tb::core::VarCoefOp op;
    op.coeffs = &coeffs;
    o.num("varcoef", median_ns_per_lup(
                         [&] {
                           op.row(dst.row(1, 1), src.row(1, 1), src.row(0, 1),
                                  src.row(2, 1), src.row(1, 0), src.row(1, 2),
                                  0, 1, 1, 1, kVc + 1);
                           escape(dst.row(1, 1));
                         },
                         kVc, 4000));
  }
  {
    // AA odd-level wiring: collide cell-locally, writing each f_q into
    // the opposite slot of the same cell; 19 rows of 64 cells = 9.5 KiB.
    constexpr int kLbm = 64;
    const tb::lbm::LbmConfig cfg{};
    const tb::lbm::LidTerms lid(cfg);
    std::vector<tb::util::AlignedBuffer<double>> f;
    for (int q = 0; q < tb::lbm::kQ; ++q) {
      f.emplace_back(kLbm);
      for (int i = 0; i < kLbm; ++i)
        f.back()[static_cast<std::size_t>(i)] =
            tb::lbm::kWeights[static_cast<std::size_t>(q)] * (1.0 + 0.001 * i);
    }
    tb::lbm::LatticeRow r;
    for (int q = 0; q < tb::lbm::kQ; ++q) {
      const auto uq = static_cast<std::size_t>(q);
      r.fl[uq] = f[uq].data();
      r.bb[uq] = f[uq].data();
      r.out[uq] = f[static_cast<std::size_t>(tb::lbm::opposite(q))].data();
    }
    const std::vector<std::uint64_t> mask(kLbm, 0);
    tb::util::AlignedBuffer<double> dst(kLbm), carrier(kLbm);
    for (int i = 0; i < kLbm; ++i) carrier[static_cast<std::size_t>(i)] = 1.0;
    o.num("lbm_aa", median_ns_per_lup(
                        [&] {
                          tb::lbm::masked_stream_collide_row<false>(
                              cfg, lid, mask.data(), r, dst.data(),
                              carrier.data(), 0, kLbm);
                          escape(dst.data());
                          escape(f[0].data());
                        },
                        kLbm, 2000));
  }
  return o;
}

}  // namespace

std::string host_fingerprint_json() {
  const std::size_t llc = detected_llc_bytes();
  return JsonObject()
      .str("cpu", cpu_model())
      .integer("nproc", static_cast<long long>(std::thread::hardware_concurrency()))
      .integer("llc_bytes", static_cast<long long>(llc))
      .str("simd", tb::util::simd::kIsaName)
      .integer("simd_width", tb::util::simd::kNativeWidth)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", __VERSION__)
      .dump();
}

void calibrate_host(Recorder& rec, int threads) {
  Recorder::Span span(rec, "calibration", "perfmodel", -1);
  // Two arrays, each >= 4x the LLC, so the copy streams from memory.
  const std::size_t elems = 4 * detected_llc_bytes() / sizeof(double) + 1;
  tb::perfmodel::BandwidthResult ms1, ms;
  {
    Recorder::Span s(rec, "perfmodel::stream_copy", "perfmodel", -1);
    ms1 = tb::perfmodel::stream_copy(elems, 1, /*nontemporal=*/false, 3);
  }
  {
    Recorder::Span s(rec, "perfmodel::stream_copy", "perfmodel", -1);
    ms = tb::perfmodel::stream_copy(elems, threads, /*nontemporal=*/false, 3);
  }
  JsonObject o;
  o.num("ms1_gbs", ms1.bytes_per_second / 1e9)
      .num("ms_gbs", ms.bytes_per_second / 1e9)
      .num("stream_array_bytes", static_cast<double>(elems * sizeof(double)))
      .integer("threads", threads)
      .raw("kernel_ns_per_lup", row_kernel_rates().dump());
  rec.set_section("calibration", o.dump());
}

}  // namespace perfbench
