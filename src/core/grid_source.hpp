// Row sources for the grids a solver reads at level 0: the initial data
// and the auxiliary per-cell field (varcoef's kappa, lbm geometry codes).
//
// A GridSource is a shape plus "write row (j, k) here".  The facade
// writes level 0 row by row into its own carriers, on its own thread
// team, so a caller that can describe its data per row (a generator such
// as scenario::level0) never builds, first-touches or frees an input grid
// of its own.  A `const Grid3&` converts implicitly, as a row memcpy, so
// every call that passes a grid keeps compiling.
//
// Non-owning when built from a grid: the grid must outlive every use of
// the source (it is read during the call the source is passed to).
#pragma once

#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "core/grid.hpp"

namespace tb::core {

class GridSource {
 public:
  /// fill(j, k, row) writes the nx() values of row (j, k) to `row`.  Rows
  /// are filled concurrently from several threads, so it must be safe to
  /// call in parallel for distinct rows.
  using RowFill = std::function<void(int j, int k, double* row)>;

  /// No data: what a null `const Grid3*` converts to.
  GridSource() = default;

  /// Rows of `g`, by memcpy.
  GridSource(const Grid3& g)  // NOLINT(google-explicit-constructor)
      : nx_(g.nx()), ny_(g.ny()), nz_(g.nz()), grid_(&g) {}

  /// Rows of `*g`, or no data for nullptr — keeps the pointer spelling of
  /// SolveRequest (`req.initial = &grid`, `req.aux = nullptr`) working.
  GridSource(const Grid3* g)  // NOLINT(google-explicit-constructor)
      : GridSource(g != nullptr ? GridSource(*g) : GridSource()) {}

  /// Rows computed by `fill`.
  GridSource(int nx, int ny, int nz, RowFill fill)
      : nx_(nx), ny_(ny), nz_(nz), fill_(std::move(fill)) {}

  /// True when the source holds data.
  explicit operator bool() const { return grid_ != nullptr || fill_; }

  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }

  [[nodiscard]] bool same_shape(int nx, int ny, int nz) const {
    return nx_ == nx && ny_ == ny && nz_ == nz;
  }

  /// The wrapped grid, or nullptr for a computed source.
  [[nodiscard]] const Grid3* grid() const { return grid_; }

  void fill_row(int j, int k, double* row) const {
    if (grid_ != nullptr)
      std::memcpy(row, grid_->row(j, k),
                  static_cast<std::size_t>(nx_) * sizeof(double));
    else
      fill_(j, k, row);
  }

  /// A new grid holding the source's data, filled on the calling thread.
  [[nodiscard]] Grid3 materialize() const {
    Grid3 g(nx_, ny_, nz_);
    for (int k = 0; k < nz_; ++k)
      for (int j = 0; j < ny_; ++j) fill_row(j, k, g.row(j, k));
    return g;
  }

 private:
  int nx_ = 0, ny_ = 0, nz_ = 0;
  const Grid3* grid_ = nullptr;
  RowFill fill_;
};

/// fill_test_pattern's field (scale 1) as a row source: same row
/// function, so the same bits.
[[nodiscard]] inline GridSource test_pattern_source(int nx, int ny, int nz) {
  std::vector<double> wave_x = detail::test_pattern_wave_x(nx);
  return {nx, ny, nz, [nx, wave_x = std::move(wave_x)](int j, int k,
                                                       double* row) {
            detail::test_pattern_row(wave_x.data(), nx, j, k, 1.0, row);
          }};
}

}  // namespace tb::core
