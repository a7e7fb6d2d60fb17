// Correctness checks of the benchmark, run outside the timed regions.
//
// Every solve the benchmark times is compared bit for bit with the
// naive reference of the same operator: equal doubles must have equal
// bit patterns (so -0.0 vs 0.0 and differing NaN payloads count as
// misses), compared over the unpadded extents only.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>

#include "core/grid.hpp"

namespace perfbench {

[[nodiscard]] inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// "" when the rows at (j, k) hold the same bit patterns in their first
/// `nx` cells; otherwise that cell as "(i,j,k) got vs want".
[[nodiscard]] inline std::string row_mismatch(const double* got, const double* want,
                                              int nx, int j, int k) {
  if (std::memcmp(got, want, static_cast<std::size_t>(nx) * sizeof(double)) == 0)
    return "";
  for (int i = 0; i < nx; ++i)
    if (!same_bits(got[i], want[i])) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "(%d,%d,%d) %.17g vs %.17g", i, j, k, got[i],
                    want[i]);
      return buf;
    }
  return "";
}

/// "" when `got` and `want` have the same shape and every cell the same
/// bit pattern; otherwise the first differing cell as "(i,j,k) got vs
/// want" (or "shape mismatch").
[[nodiscard]] inline std::string first_mismatch(const tb::core::Grid3& got,
                                                const tb::core::Grid3& want) {
  if (got.nx() != want.nx() || got.ny() != want.ny() || got.nz() != want.nz())
    return "shape mismatch";
  for (int k = 0; k < got.nz(); ++k)
    for (int j = 0; j < got.ny(); ++j) {
      std::string miss = row_mismatch(got.row(j, k), want.row(j, k), got.nx(), j, k);
      if (!miss.empty()) return miss;
    }
  return "";
}

/// The solution mean exactly as scenario::ScenarioEngine reports it in
/// CaseResult::mean (same loop order, divided by the padded size), so a
/// bit-identical solution yields a bit-identical mean.
[[nodiscard]] inline double engine_mean(const tb::core::Grid3& g) {
  double sum = 0.0;
  for (int k = 0; k < g.nz(); ++k)
    for (int j = 0; j < g.ny(); ++j)
      for (int i = 0; i < g.nx(); ++i) sum += g.at(i, j, k);
  return sum / static_cast<double>(g.size());
}

}  // namespace perfbench
