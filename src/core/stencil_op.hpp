// The stencil-operator abstraction underneath every solver scheme.
//
// The paper's pipelined temporal blocking is not Jacobi-specific: any
// update whose reads stay within the 3^3 neighborhood of the previous
// time level fits the skewed block schedule.  A *StencilOp* captures
// exactly that contract, so the three scheme implementations (baseline,
// pipelined two-grid, compressed-grid; the wavefront is a plan of the
// pipelined one) are templates over the operator and a new operator
// lands as one self-contained struct.
//
// StencilOp concept (compile-time, duck-typed):
//
//   static constexpr int kHalo = 1;        // neighborhood radius in cells
//   static constexpr bool kHasNontemporal; // has a streaming-store row path
//
//   // One x-row of updates at logical coordinates (j, k): produce
//   // dst[i] for i in [i0, i1) from the five source rows of the previous
//   // time level (center, j-1, j+1, k-1, k+1).  `j`/`k` are LOGICAL grid
//   // coordinates — operators with auxiliary per-cell fields (see
//   // VarCoefOp) index those fields with them; the row pointers may be
//   // margin-shifted views of a compressed-grid allocation.  `level` is
//   // the 1-based index of the time level being produced, counted from
//   // the start of the current scheme run: time-dependent operators
//   // (RedBlackOp's color phase, lbm::LbmOp's distribution parity) add
//   // an externally owned LevelOrigin to recover the absolute time
//   // level; time-invariant operators ignore it.
//   void row(double* dst, const double* c, const double* jm,
//            const double* jp, const double* km, const double* kp,
//            int level, int j, int k, int i0, int i1) const;
//
//   // Same update with descending i — required by the compressed-grid
//   // scheme whose even sweeps shift by (+1,+1,+1) and are only
//   // race-free when traversed backward.
//   void row_reverse(...same signature...) const;
//
//   // Same update with non-temporal (streaming) stores, bypassing the
//   // cache to avoid the write-allocate; falls back to row() when the
//   // operator (or target) has no streaming path.
//   void row_nt(...same signature...) const;
//
// Every row method must evaluate the *identical floating-point
// expression* per (cell, level) in every variant, so that all schemes
// stay bit-identical to the naive reference for the same operator.
#pragma once

#include <array>
#include <stdexcept>

#include "core/blocks.hpp"
#include "core/grid.hpp"
#include "core/kernels.hpp"

namespace tb::core {

/// Shared offset turning the scheme-local `level` argument into an
/// absolute time level: absolute = origin->base + level.  The
/// StencilSolver facade bumps `base` between phases (team sweeps vs.
/// remainder sweeps, consecutive advance() calls) on the operator state
/// it owns; drivers that already pass absolute levels into the schemes
/// (the reference oracles) leave the origin at nullptr/0.
/// Never mutated while a sweep is in flight — operators may read it
/// without synchronization.
struct LevelOrigin {
  int base = 0;
};

/// Constant-coefficient Jacobi (Eq. (1) of the paper): the arithmetic
/// mean of the six face neighbours.  Stateless; delegates to the hand
/// tuned row kernels in core/kernels.hpp.
struct JacobiOp {
  static constexpr int kHalo = 1;
  static constexpr bool kHasNontemporal = true;

  void row(double* __restrict__ dst, const double* __restrict__ c,
           const double* __restrict__ jm, const double* __restrict__ jp,
           const double* __restrict__ km, const double* __restrict__ kp,
           int /*level*/, int /*j*/, int /*k*/, int i0, int i1) const {
    jacobi_row(dst, c, jm, jp, km, kp, i0, i1);
  }

  void row_reverse(double* __restrict__ dst, const double* __restrict__ c,
                   const double* __restrict__ jm,
                   const double* __restrict__ jp,
                   const double* __restrict__ km,
                   const double* __restrict__ kp, int /*level*/, int /*j*/,
                   int /*k*/, int i0, int i1) const {
    jacobi_row_reverse(dst, c, jm, jp, km, kp, i0, i1);
  }

  void row_nt(double* __restrict__ dst, const double* __restrict__ c,
              const double* __restrict__ jm, const double* __restrict__ jp,
              const double* __restrict__ km, const double* __restrict__ kp,
              int /*level*/, int /*j*/, int /*k*/, int i0, int i1) const {
    jacobi_row_nt(dst, c, jm, jp, km, kp, i0, i1);
  }
};

/// Precomputed face-coefficient fields for the heterogeneous-diffusion
/// stencil: the standard finite-volume discretization of
/// div(kappa grad u) = 0 with harmonic-mean face coefficients.
class DiffusionCoefficients {
 public:
  /// Builds face coefficients from a cell-centered kappa field (same
  /// shape as the solution grid; kappa must be positive on the interior
  /// and its boundary-adjacent layer).
  explicit DiffusionCoefficients(const Grid3& kappa)
      : nx_(kappa.nx()), ny_(kappa.ny()), nz_(kappa.nz()) {
    for (auto& f : faces_) f = Grid3(nx_, ny_, nz_);
    fill_faces(kappa);
  }

  /// Recomputes the face coefficients from a new material field IN the
  /// existing allocations (kappa must match the constructed shape) —
  /// identical arithmetic to construction, so a solver reset with a new
  /// kappa stays bit-identical to a fresh solver on the same field.
  void rebuild(const Grid3& kappa) {
    if (kappa.nx() != nx_ || kappa.ny() != ny_ || kappa.nz() != nz_)
      throw std::invalid_argument(
          "DiffusionCoefficients::rebuild: kappa shape must match the "
          "constructed shape");
    fill_faces(kappa);
  }

  [[nodiscard]] const Grid3& face(int f) const {
    return faces_[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] int nx() const { return nx_; }
  [[nodiscard]] int ny() const { return ny_; }
  [[nodiscard]] int nz() const { return nz_; }

 private:
  static double harmonic(double a, double b) {
    return (a > 0 && b > 0) ? 2.0 * a * b / (a + b) : 0.0;
  }

  void fill_faces(const Grid3& kappa) {
    for (int k = 1; k < nz_ - 1; ++k)
      for (int j = 1; j < ny_ - 1; ++j)
        for (int i = 1; i < nx_ - 1; ++i) {
          const double kc = kappa.at(i, j, k);
          const std::array<double, 6> knb = {
              kappa.at(i - 1, j, k), kappa.at(i + 1, j, k),
              kappa.at(i, j - 1, k), kappa.at(i, j + 1, k),
              kappa.at(i, j, k - 1), kappa.at(i, j, k + 1)};
          for (int f = 0; f < 6; ++f) {
            const double h = harmonic(kc, knb[static_cast<std::size_t>(f)]);
            faces_[static_cast<std::size_t>(f)].at(i, j, k) = h;
          }
        }
  }

  int nx_, ny_, nz_;
  std::array<Grid3, 6> faces_;  ///< order: -x +x -y +y -z +z
};

/// Variable-coefficient (heterogeneous) diffusion fixed-point iteration:
///
///   u'(x) = sum_d [ cW_d(x) u(x-e_d) + cE_d(x) u(x+e_d) ] / C(x),
///
/// where the six face coefficients c are precomputed from a material
/// field kappa and C is their sum.  The coefficient fields are indexed
/// with the LOGICAL (i, j, k) — they never shift, which is what lets the
/// compressed-grid scheme (whose solution window drifts through its
/// allocation) run this operator unchanged.
struct VarCoefOp {
  static constexpr int kHalo = 1;
  static constexpr bool kHasNontemporal = false;

  const DiffusionCoefficients* coeffs = nullptr;

  /// One cell — single source of truth for the floating-point expression.
  static double cell(const double* c, const double* jm, const double* jp,
                     const double* km, const double* kp, const double* cxm,
                     const double* cxp, const double* cym, const double* cyp,
                     const double* czm, const double* czp, int i) {
    const double denom = cxm[i] + cxp[i] + cym[i] + cyp[i] + czm[i] + czp[i];
    return denom > 0
               ? (cxm[i] * c[i - 1] + cxp[i] * c[i + 1] + cym[i] * jm[i] +
                  cyp[i] * jp[i] + czm[i] * km[i] + czp[i] * kp[i]) /
                     denom
               : c[i];
  }

  /// W cells of cell(), elementwise.  The scalar branch on denom becomes a
  /// lane blend; masked-off lanes divide by a substituted 1.0 so no lane
  /// ever divides by zero (the quotient is discarded by the blend), and
  /// selected lanes see the identical num/denom the scalar path computes.
  static util::simd::dvec cell_vec(const double* c, const double* jm,
                                   const double* jp, const double* km,
                                   const double* kp, const double* cxm,
                                   const double* cxp, const double* cym,
                                   const double* cyp, const double* czm,
                                   const double* czp, int i) {
    using V = util::simd::dvec;
    const V vxm = V::load(cxm + i);
    const V vxp = V::load(cxp + i);
    const V vym = V::load(cym + i);
    const V vyp = V::load(cyp + i);
    const V vzm = V::load(czm + i);
    const V vzp = V::load(czp + i);
    const V denom = vxm + vxp + vym + vyp + vzm + vzp;
    const V num = vxm * V::load(c + i - 1) + vxp * V::load(c + i + 1) +
                  vym * V::load(jm + i) + vyp * V::load(jp + i) +
                  vzm * V::load(km + i) + vzp * V::load(kp + i);
    const V safe = V::select_gt_zero(denom, denom, V::broadcast(1.0));
    return V::select_gt_zero(denom, num / safe, V::load(c + i));
  }

  void row(double* __restrict__ dst, const double* __restrict__ c,
           const double* __restrict__ jm, const double* __restrict__ jp,
           const double* __restrict__ km, const double* __restrict__ kp,
           int /*level*/, int j, int k, int i0, int i1) const {
    const double* cxm = coeffs->face(0).row(j, k);
    const double* cxp = coeffs->face(1).row(j, k);
    const double* cym = coeffs->face(2).row(j, k);
    const double* cyp = coeffs->face(3).row(j, k);
    const double* czm = coeffs->face(4).row(j, k);
    const double* czp = coeffs->face(5).row(j, k);
    constexpr int W = util::simd::dvec::kWidth;
    int i = i0;
    for (; i + W <= i1; i += W)
      cell_vec(c, jm, jp, km, kp, cxm, cxp, cym, cyp, czm, czp, i)
          .store(dst + i);
    for (; i < i1; ++i)
      dst[i] = cell(c, jm, jp, km, kp, cxm, cxp, cym, cyp, czm, czp, i);
  }

  void row_reverse(double* __restrict__ dst, const double* __restrict__ c,
                   const double* __restrict__ jm,
                   const double* __restrict__ jp,
                   const double* __restrict__ km,
                   const double* __restrict__ kp, int /*level*/, int j,
                   int k, int i0, int i1) const {
    const double* cxm = coeffs->face(0).row(j, k);
    const double* cxp = coeffs->face(1).row(j, k);
    const double* cym = coeffs->face(2).row(j, k);
    const double* cyp = coeffs->face(3).row(j, k);
    const double* czm = coeffs->face(4).row(j, k);
    const double* czp = coeffs->face(5).row(j, k);
    constexpr int W = util::simd::dvec::kWidth;
    int i = i1 - W;
    for (; i >= i0; i -= W)
      cell_vec(c, jm, jp, km, kp, cxm, cxp, cym, cyp, czm, czp, i)
          .store(dst + i);
    for (i += W - 1; i >= i0; --i)
      dst[i] = cell(c, jm, jp, km, kp, cxm, cxp, cym, cyp, czm, czp, i);
  }

  void row_nt(double* dst, const double* c, const double* jm,
              const double* jp, const double* km, const double* kp,
              int level, int j, int k, int i0, int i1) const {
    row(dst, c, jm, jp, km, kp, level, j, k, i0, i1);  // no streaming path
  }
};

/// 27-point "box" smoother: the trilinear-weighted average of the full
/// 3^3 neighborhood (corner 1, edge 2, face 4, center 8; total 64) —
/// the separable [1 2 1]/4 filter applied along each axis.  This is the
/// densest operator the temporal-blocking contract admits (kHalo = 1)
/// and exercises every diagonal dependency of the skewed schedules.
///
/// The schemes only hand the operator five source-row pointers (center,
/// j±1, k±1), but all rows of one grid live in a single allocation with
/// constant j/k strides, so the four diagonal rows are recovered by
/// pointer arithmetic: row(j±1, k±1) = k-row ± (j-row − center-row).
/// This holds for the margin-shifted views of the compressed scheme too.
///
/// NO __restrict__ here, deliberately: in the compressed-grid scheme the
/// destination row aliases the source row (j-1, k-1) (forward sweeps,
/// which shift by (-1,-1,-1)) resp. (j+1, k+1) (backward sweeps).  The
/// only colliding cell is the corner the current iteration overwrites,
/// and each per-cell expression reads its sources before storing, so
/// plain C semantics keep every traversal race-free — but telling the
/// compiler "no aliasing" would be a lie.
struct Box27Op {
  static constexpr int kHalo = 1;
  static constexpr bool kHasNontemporal = false;

  /// One cell of the trilinear kernel.  Single source of truth for the
  /// floating-point expression: every traversal order must evaluate the
  /// identical arithmetic for bit-identical results.
  static double cell(const double* c, const double* jm, const double* jp,
                     const double* km, const double* kp, const double* kmjm,
                     const double* kmjp, const double* kpjm,
                     const double* kpjp, int i) {
    const double corners = (kmjm[i - 1] + kmjm[i + 1]) +
                           (kmjp[i - 1] + kmjp[i + 1]) +
                           (kpjm[i - 1] + kpjm[i + 1]) +
                           (kpjp[i - 1] + kpjp[i + 1]);
    const double edges = (jm[i - 1] + jm[i + 1]) + (jp[i - 1] + jp[i + 1]) +
                         (km[i - 1] + km[i + 1]) + (kp[i - 1] + kp[i + 1]) +
                         (kmjm[i] + kmjp[i]) + (kpjm[i] + kpjp[i]);
    const double faces = (c[i - 1] + c[i + 1]) + (jm[i] + jp[i]) +
                         (km[i] + kp[i]);
    return (corners + 2.0 * edges + (4.0 * faces + 8.0 * c[i])) / 64.0;
  }

  /// W cells of cell(), elementwise, identical grouping per lane.
  static util::simd::dvec cell_vec(const double* c, const double* jm,
                                   const double* jp, const double* km,
                                   const double* kp, const double* kmjm,
                                   const double* kmjp, const double* kpjm,
                                   const double* kpjp, int i) {
    using V = util::simd::dvec;
    const V corners = (V::load(kmjm + i - 1) + V::load(kmjm + i + 1)) +
                      (V::load(kmjp + i - 1) + V::load(kmjp + i + 1)) +
                      (V::load(kpjm + i - 1) + V::load(kpjm + i + 1)) +
                      (V::load(kpjp + i - 1) + V::load(kpjp + i + 1));
    const V edges = (V::load(jm + i - 1) + V::load(jm + i + 1)) +
                    (V::load(jp + i - 1) + V::load(jp + i + 1)) +
                    (V::load(km + i - 1) + V::load(km + i + 1)) +
                    (V::load(kp + i - 1) + V::load(kp + i + 1)) +
                    (V::load(kmjm + i) + V::load(kmjp + i)) +
                    (V::load(kpjm + i) + V::load(kpjp + i));
    const V faces = (V::load(c + i - 1) + V::load(c + i + 1)) +
                    (V::load(jm + i) + V::load(jp + i)) +
                    (V::load(km + i) + V::load(kp + i));
    return (corners + V::broadcast(2.0) * edges +
            (V::broadcast(4.0) * faces +
             V::broadcast(8.0) * V::load(c + i))) /
           V::broadcast(64.0);
  }

  void row(double* dst, const double* c, const double* jm, const double* jp,
           const double* km, const double* kp, int /*level*/, int /*j*/,
           int /*k*/, int i0, int i1) const {
    const std::ptrdiff_t up = jp - c;  // +1 row in j, same allocation
    const std::ptrdiff_t dn = jm - c;  // -1 row in j
    const double* kmjm = km + dn;
    const double* kmjp = km + up;
    const double* kpjm = kp + dn;
    const double* kpjp = kp + up;
    // The W-cell blocks are sound despite the compressed-scheme aliasing:
    // within a row every aliased location is read only at iterations
    // at-or-before the one that overwrites it (write-after-read), and a
    // read-all-lanes-then-write-all-lanes block only moves reads earlier
    // and writes later, which preserves WAR.
    constexpr int W = util::simd::dvec::kWidth;
    int i = i0;
    for (; i + W <= i1; i += W)
      cell_vec(c, jm, jp, km, kp, kmjm, kmjp, kpjm, kpjp, i).store(dst + i);
    for (; i < i1; ++i)
      dst[i] = cell(c, jm, jp, km, kp, kmjm, kmjp, kpjm, kpjp, i);
  }

  void row_reverse(double* dst, const double* c, const double* jm,
                   const double* jp, const double* km, const double* kp,
                   int /*level*/, int /*j*/, int /*k*/, int i0,
                   int i1) const {
    const std::ptrdiff_t up = jp - c;
    const std::ptrdiff_t dn = jm - c;
    const double* kmjm = km + dn;
    const double* kmjp = km + up;
    const double* kpjm = kp + dn;
    const double* kpjp = kp + up;
    // Same WAR-only argument as row(), mirrored for descending i.
    constexpr int W = util::simd::dvec::kWidth;
    int i = i1 - W;
    for (; i >= i0; i -= W)
      cell_vec(c, jm, jp, km, kp, kmjm, kmjp, kpjm, kpjp, i).store(dst + i);
    for (i += W - 1; i >= i0; --i)
      dst[i] = cell(c, jm, jp, km, kp, kmjm, kmjp, kpjm, kpjp, i);
  }

  void row_nt(double* dst, const double* c, const double* jm,
              const double* jp, const double* km, const double* kp,
              int level, int j, int k, int i0, int i1) const {
    row(dst, c, jm, jp, km, kp, level, j, k, i0, i1);  // no streaming path
  }
};

/// Two-color (red–black) Gauss–Seidel-style relaxation of the 7-point
/// Laplace stencil, expressed in the two-grid time-level contract: time
/// level L updates only the cells whose color (i+j+k parity) matches the
/// level parity — the six-neighbour average, reading the opposite color
/// at level L-1 — and copies the other color through unchanged.  Two
/// consecutive levels therefore perform one full red–black Gauss–Seidel
/// iteration: the second color sees the first color's fresh values, the
/// classic GS data flow, while every per-level update still only reads
/// level L-1 — which is what lets all temporal-blocking schemes run it
/// unmodified.
///
/// The color phase depends on the ABSOLUTE time level; schemes pass
/// run-local levels, so the facade owns a LevelOrigin and bumps its base
/// between phases.  A nullptr origin means the caller already passes
/// absolute levels (the reference oracles).
struct RedBlackOp {
  static constexpr int kHalo = 1;
  static constexpr bool kHasNontemporal = false;

  const LevelOrigin* origin = nullptr;

  /// Parity of the coordinate frame: a solver whose (i, j, k) are not
  /// the global grid coordinates (a facade on a rank GridWindow) adds
  /// the parity of its window origin here so every rank colors cells by
  /// their GLOBAL coordinate sum.
  int parity = 0;

  [[nodiscard]] int absolute(int level) const {
    return (origin != nullptr ? origin->base : 0) + level;
  }

  /// One cell: update when the color matches the level parity, else copy.
  /// Single source of truth for the floating-point expression.
  static double cell(const double* c, const double* jm, const double* jp,
                     const double* km, const double* kp, int color, int i,
                     int jk_sum) {
    if (((i + jk_sum) & 1) != color) return c[i];
    return (c[i - 1] + c[i + 1] + jm[i] + jp[i] + km[i] + kp[i]) *
           (1.0 / 6.0);
  }

  void row(double* dst, const double* c, const double* jm, const double* jp,
           const double* km, const double* kp, int level, int j, int k,
           int i0, int i1) const {
    const int color = absolute(level) & 1;
    const int jk = j + k + parity;
    for (int i = i0; i < i1; ++i)
      dst[i] = cell(c, jm, jp, km, kp, color, i, jk);
  }

  void row_reverse(double* dst, const double* c, const double* jm,
                   const double* jp, const double* km, const double* kp,
                   int level, int j, int k, int i0, int i1) const {
    const int color = absolute(level) & 1;
    const int jk = j + k + parity;
    for (int i = i1 - 1; i >= i0; --i)
      dst[i] = cell(c, jm, jp, km, kp, color, i, jk);
  }

  void row_nt(double* dst, const double* c, const double* jm,
              const double* jp, const double* km, const double* kp,
              int level, int j, int k, int i0, int i1) const {
    row(dst, c, jm, jp, km, kp, level, j, k, i0, i1);  // no streaming path
  }
};

/// Applies one operator level over window `w`: dst <- op(src) producing
/// time level `level` (run-local, see the concept comment).
template <class Op>
inline void apply_box(const Op& op, const Grid3& src, Grid3& dst,
                      const Box& w, int level) {
  for (int k = w.lo[2]; k < w.hi[2]; ++k)
    for (int j = w.lo[1]; j < w.hi[1]; ++j)
      op.row(dst.row(j, k), src.row(j, k), src.row(j - 1, k),
             src.row(j + 1, k), src.row(j, k - 1), src.row(j, k + 1), level,
             j, k, w.lo[0], w.hi[0]);
}

/// One naive sweep over the full interior [1, n-1)^3 producing time level
/// `level` — the correctness oracle, generic over the operator.  Boundary
/// layers are untouched.
template <class Op>
inline void reference_sweep_op(const Op& op, const Grid3& src, Grid3& dst,
                               int level = 1) {
  Box all;
  all.lo = {1, 1, 1};
  all.hi = {src.nx() - 1, src.ny() - 1, src.nz() - 1};
  apply_box(op, src, dst, all, level);
}

/// Runs `steps` naive sweeps alternating between `a` and `b` (levels
/// 1..steps); `a` holds the initial data and both grids carry the
/// Dirichlet boundary.  Returns the grid holding the final level.
template <class Op>
inline Grid3& reference_solve_op(const Op& op, Grid3& a, Grid3& b,
                                 int steps) {
  Grid3* src = &a;
  Grid3* dst = &b;
  for (int s = 0; s < steps; ++s) {
    reference_sweep_op(op, *src, *dst, s + 1);
    std::swap(src, dst);
  }
  return *src;
}

}  // namespace tb::core
