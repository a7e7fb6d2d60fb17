// Multi-threaded norms, reductions and residuals for Grid3 fields.
//
// Convergence monitoring needs global reductions over the interior; doing
// them single-threaded would serialize an otherwise parallel solver, so
// these helpers partition the z-range over a thread pool and combine
// per-thread partials deterministically (fixed partition + ordered
// combination => reproducible results independent of scheduling).
#pragma once

#include <cmath>
#include <vector>

#include "core/grid.hpp"
#include "util/thread_pool.hpp"

namespace tb::core {

namespace detail {

/// Applies `fn(k) -> partial` over interior planes with `pool`, combining
/// partials in plane order with `combine`.
template <typename Fn, typename Combine>
double plane_reduce(const Grid3& g, util::ThreadPool* pool, Fn fn,
                    Combine combine, double init) {
  std::vector<double> partial(
      static_cast<std::size_t>(util::slab_count(pool)), init);
  util::for_each_slab(pool, 1, g.nz() - 1, [&](int s, int lo, int hi) {
    double acc = init;
    for (int k = lo; k < hi; ++k) acc = combine(acc, fn(k));
    partial[static_cast<std::size_t>(s)] = acc;
  });
  double acc = init;
  for (double p : partial) acc = combine(acc, p);
  return acc;
}

}  // namespace detail

/// Maximum absolute interior value.
[[nodiscard]] inline double linf_norm(const Grid3& g,
                                      util::ThreadPool* pool = nullptr) {
  return detail::plane_reduce(
      g, pool,
      [&](int k) {
        double m = 0.0;
        for (int j = 1; j < g.ny() - 1; ++j) {
          const double* row = g.row(j, k);
          for (int i = 1; i < g.nx() - 1; ++i)
            m = std::max(m, std::abs(row[i]));
        }
        return m;
      },
      [](double a, double b) { return std::max(a, b); }, 0.0);
}

/// Interior L2 norm: sqrt(sum u^2).
[[nodiscard]] inline double l2_norm(const Grid3& g,
                                    util::ThreadPool* pool = nullptr) {
  const double ss = detail::plane_reduce(
      g, pool,
      [&](int k) {
        double s = 0.0;
        for (int j = 1; j < g.ny() - 1; ++j) {
          const double* row = g.row(j, k);
          for (int i = 1; i < g.nx() - 1; ++i) s += row[i] * row[i];
        }
        return s;
      },
      [](double a, double b) { return a + b; }, 0.0);
  return std::sqrt(ss);
}

/// Maximum interior |a - b| (same shapes required).
[[nodiscard]] inline double linf_diff(const Grid3& a, const Grid3& b,
                                      util::ThreadPool* pool = nullptr) {
  return detail::plane_reduce(
      a, pool,
      [&](int k) {
        double m = 0.0;
        for (int j = 1; j < a.ny() - 1; ++j) {
          const double* ra = a.row(j, k);
          const double* rb = b.row(j, k);
          for (int i = 1; i < a.nx() - 1; ++i)
            m = std::max(m, std::abs(ra[i] - rb[i]));
        }
        return m;
      },
      [](double x, double y) { return std::max(x, y); }, 0.0);
}

/// Jacobi fixed-point residual: max over the interior of
/// |1/6 (sum of neighbours) - u|.  Zero exactly at the solution of the
/// Laplace boundary value problem the sweeps converge toward.
[[nodiscard]] inline double jacobi_residual(
    const Grid3& u, util::ThreadPool* pool = nullptr) {
  return detail::plane_reduce(
      u, pool,
      [&](int k) {
        double m = 0.0;
        for (int j = 1; j < u.ny() - 1; ++j)
          for (int i = 1; i < u.nx() - 1; ++i) {
            const double next =
                (u.at(i - 1, j, k) + u.at(i + 1, j, k) + u.at(i, j - 1, k) +
                 u.at(i, j + 1, k) + u.at(i, j, k - 1) + u.at(i, j, k + 1)) /
                6.0;
            m = std::max(m, std::abs(next - u.at(i, j, k)));
          }
        return m;
      },
      [](double a, double b) { return std::max(a, b); }, 0.0);
}

}  // namespace tb::core
