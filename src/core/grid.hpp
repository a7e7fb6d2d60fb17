// Padded, cache-line-aligned 3-D grid of doubles.
//
// Layout: x contiguous (unit stride, the vectorized inner loop), then y,
// then z — matching the paper's bx/by/bz blocking convention.  The x extent
// is padded to a full cache line so every row starts aligned, which both
// helps vectorization and keeps the relaxed-sync progress counters from
// sharing lines with grid data.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/aligned_buffer.hpp"

namespace tb::core {

/// 3-D array of doubles with padded rows.  Index order: (i, j, k) =
/// (x, y, z), x fastest.  Extents include any boundary/ghost layers the
/// caller needs; Grid3 itself attaches no meaning to them.
class Grid3 {
 public:
  Grid3() = default;

  Grid3(int nx, int ny, int nz)
      : nx_(nx), ny_(ny), nz_(nz), sx_(pad_row(nx)) {
    if (nx < 1 || ny < 1 || nz < 1)
      throw std::invalid_argument("Grid3: extents must be >= 1");
    buf_ = util::AlignedBuffer<double>(
        static_cast<std::size_t>(sx_) * ny_ * nz_);
  }

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }
  /// Padded row stride in elements (>= nx()).
  [[nodiscard]] int stride_x() const { return sx_; }
  /// Stride between consecutive z-planes in elements.
  [[nodiscard]] std::size_t stride_z() const {
    return static_cast<std::size_t>(sx_) * ny_;
  }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  /// Bytes of payload (excluding row padding) — used by bandwidth models.
  [[nodiscard]] std::size_t payload_bytes() const {
    return static_cast<std::size_t>(nx_) * ny_ * nz_ * sizeof(double);
  }

  [[nodiscard]] std::size_t index(int i, int j, int k) const {
    return (static_cast<std::size_t>(k) * ny_ + j) * sx_ + i;
  }

  [[nodiscard]] double& at(int i, int j, int k) {
    return buf_[index(i, j, k)];
  }
  [[nodiscard]] const double& at(int i, int j, int k) const {
    return buf_[index(i, j, k)];
  }

  [[nodiscard]] double* data() { return buf_.data(); }
  [[nodiscard]] const double* data() const { return buf_.data(); }

  /// Pointer to the start of row (j, k).
  [[nodiscard]] double* row(int j, int k) { return buf_.data() + index(0, j, k); }
  [[nodiscard]] const double* row(int j, int k) const {
    return buf_.data() + index(0, j, k);
  }

  /// Sets every element (including padding) to `v`.
  void fill(double v) {
    for (auto& x : buf_) x = v;
  }

  /// Explicit deep copy (Grid3 is move-only to prevent accidental copies
  /// of multi-GiB arrays).
  [[nodiscard]] Grid3 clone() const {
    Grid3 out(nx_, ny_, nz_);
    for (std::size_t i = 0; i < buf_.size(); ++i) out.buf_[i] = buf_[i];
    return out;
  }

 private:
  static int pad_row(int nx) {
    constexpr int kDoublesPerLine =
        static_cast<int>(util::kCacheLineBytes / sizeof(double));
    return (nx + kDoublesPerLine - 1) / kDoublesPerLine * kDoublesPerLine;
  }

  int nx_ = 0, ny_ = 0, nz_ = 0, sx_ = 0;
  util::AlignedBuffer<double> buf_;
};

namespace detail {

/// sin(0.31 i) for i in [0, nx): the x wave of the test pattern.
[[nodiscard]] inline std::vector<double> test_pattern_wave_x(int nx) {
  std::vector<double> wave_x(static_cast<std::size_t>(nx));
  for (int i = 0; i < nx; ++i)
    wave_x[static_cast<std::size_t>(i)] = std::sin(0.31 * i);
  return wave_x;
}

/// Row (j, k) of the test pattern; `wave_x` from test_pattern_wave_x.
inline void test_pattern_row(const double* wave_x, int nx, int j, int k,
                             double scale, double* row) {
  const double wave_y = std::cos(0.17 * j);
  for (int i = 0; i < nx; ++i) {
    const double w = wave_x[i] * wave_y + std::sin(0.07 * k * i) * 0.25 +
                     0.01 * ((i * 131 + j * 17 + k * 739) % 97);
    row[i] = scale * w;
  }
}

}  // namespace detail

/// Deterministic pseudo-random initial condition: smooth product of waves
/// plus a position hash, so that stencil bugs (off-by-one, transposed axes)
/// show up as large mismatches instead of cancelling out.
/// The x and y waves are hoisted out of the cell loop (same arguments,
/// same expression order, so the same bits); only sin(0.07 k i) is
/// per cell.  core::test_pattern_source yields the same rows.
inline void fill_test_pattern(Grid3& g, double scale = 1.0) {
  const std::vector<double> wave_x = detail::test_pattern_wave_x(g.nx());
  for (int k = 0; k < g.nz(); ++k)
    for (int j = 0; j < g.ny(); ++j)
      detail::test_pattern_row(wave_x.data(), g.nx(), j, k, scale,
                               g.row(j, k));
}

/// Value on plane k of make_slab_kappa's field (nz planes).
[[nodiscard]] inline double slab_kappa(int nz, int k) {
  return k >= nz / 3 && k < 2 * nz / 3 ? 50.0 : 1.0;
}

/// The standard two-material field: background kappa 1 with a
/// high-conductivity (50x) slab across the middle third in z.  The one
/// material the varcoef examples, benches, tuning probes and tests all
/// share, so a tuned plan is probed and validated on identical physics.
[[nodiscard]] inline Grid3 make_slab_kappa(int nx, int ny, int nz) {
  Grid3 kappa(nx, ny, nz);
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      std::fill_n(kappa.row(j, k), nx, slab_kappa(nz, k));
  return kappa;
}

/// Maximum absolute difference over the unpadded extents of two grids of
/// identical shape; returns +inf on shape mismatch.
inline double max_abs_diff(const Grid3& a, const Grid3& b) {
  if (a.nx() != b.nx() || a.ny() != b.ny() || a.nz() != b.nz())
    return std::numeric_limits<double>::infinity();
  double m = 0.0;
  for (int k = 0; k < a.nz(); ++k)
    for (int j = 0; j < a.ny(); ++j)
      for (int i = 0; i < a.nx(); ++i)
        m = std::max(m, std::abs(a.at(i, j, k) - b.at(i, j, k)));
  return m;
}

}  // namespace tb::core
