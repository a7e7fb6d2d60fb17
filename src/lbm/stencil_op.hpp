// D3Q19 lattice-Boltzmann as a first-class StencilOp.
//
// The paper's point is that one temporal-blocking machinery serves both
// the Jacobi prototype and the announced LBM flow solver.  This header
// delivers that literally: stream-collide is an operator on the generic
// scheme templates (BaselineSolver<LbmOp>, PipelinedSolver<LbmOp>,
// CompressedSolver<LbmOp>; the wavefront runs as a PipelinedSolver plan)
// instead of its own engine client.
//
// Multi-component state.  The schemes move a scalar *carrier* grid pair
// through their schedules; the 19 particle distributions and the
// geometry flags live in an LbmState side channel the operator indexes
// with the LOGICAL (i, j, k) — the same mechanism VarCoefOp uses for its
// face-coefficient fields, extended from read-only coefficients to
// read-write state.  Two storage policies lay the distributions out:
//
//  * kTwoLattice — a plain ping-pong indexed by the ABSOLUTE time-level
//    parity.  Lattice L%2 holds level L; the side channel is oblivious
//    to how the carrier is stored.
//  * kAA — ONE lattice updated in place (the AA pattern).  Odd absolute
//    levels are produced by a purely cell-local step that reads the
//    streamed arrangement left by the previous even level (A_q(x) holds
//    level-even f_q(x - e_q)) and writes each fout[q] into the opposite
//    slot A_opp(q)(x); even levels are produced by a stream step that
//    pulls from the reversed slots of the neighbours
//    (fin[q] = A_opp(q)(x - e_q)) and pushes fout[q] to A_q(x + e_q).
//    Pushes into solid neighbours are deliberate: they park exactly the
//    value the next local step's bounce-back read A_opp(q)(x - e_q)
//    picks up.  Storage is halved and every store hits a line the
//    update already loaded, so the write-allocate stream disappears
//    (lbm::bytes_per_update_aa).
//
// Why any scheme schedule is correct for the side channel: every scheme
// in this library maintains the two-grid invariant that a cell is
// advanced to level L only when all 3^3 neighbours hold level L-1 and no
// neighbour has passed L (adjacent levels differ by at most one).  For
// the ping-pong this is the classic argument: writing a cell's level-L
// distributions overwrites its level-(L-2) values, whose last readers
// were the neighbours' updates to L-1.  For AA the same invariant
// suffices: the local step writes only its own cell's slots, and the
// stream step's push into slot (q, x + e_q) is safe because the only
// level-L reader of that slot is cell x itself (fin[opp(q)] of x's own
// update — which reads all 19 slots before writing any), and its only
// writer is x, so neither another cell's concurrent update nor a
// reversed row traversal can observe a half-updated slot.  The engine's
// release/acquire progress counters (core/sync.hpp) provide the
// happens-before edges for the side-channel writes.
//
// The AA constraint: the outermost layer must be fully solid.  A fluid
// boundary cell would never be updated, freezing its slots while the
// interior's alternate between arrangements — the constructor rejects
// such geometries.  The distributed layer cannot run AA at all (the
// stream step pushes INTO the ghost ring, which a ghost exchange of the
// current level's grids cannot transport back), so dist names reject it
// up front.
//
// The carrier holds the fluid density: level 0 is the caller's initial
// grid (interpreted as the initial density; the distributions start at
// the corresponding zero-velocity equilibrium), each fluid update writes
// the cell's density (BGK conserves it through the collision), and solid
// cells copy through.  StencilSolver::solution() therefore reports the
// evolved density field, and the full-matrix bit-identity tests compare
// real physics, not a dummy payload.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/grid_source.hpp"
#include "core/stencil_op.hpp"
#include "lbm/kernel.hpp"
#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

namespace tb::lbm {

/// Decodes a per-cell geometry field (the operator's analogue of the
/// varcoef kappa side channel): 0 = fluid, 1 = no-slip wall, 2 = moving
/// lid.  Any other value throws — geometry codes are exact small
/// integers, never measured data.  Reads the codes a row at a time, so a
/// computed source needs no grid.
[[nodiscard]] inline Geometry geometry_from_codes(
    const core::GridSource& codes) {
  Geometry geo(codes.nx(), codes.ny(), codes.nz());
  std::vector<double> row(static_cast<std::size_t>(codes.nx()));
  for (int k = 0; k < codes.nz(); ++k)
    for (int j = 0; j < codes.ny(); ++j) {
      codes.fill_row(j, k, row.data());
      for (int i = 0; i < codes.nx(); ++i) {
        const double v = row[static_cast<std::size_t>(i)];
        if (v == 0.0)
          geo.set(i, j, k, Cell::kFluid);
        else if (v == 1.0)
          geo.set(i, j, k, Cell::kWall);
        else if (v == 2.0)
          geo.set(i, j, k, Cell::kLid);
        else
          throw std::invalid_argument(
              "lbm::geometry_from_codes: cell values must be 0 (fluid), "
              "1 (wall) or 2 (lid)");
      }
    }
  return geo;
}

/// The operator's side-channel state: geometry flags (plus their
/// precomputed per-cell bounce-back masks), BGK parameters and the
/// distribution storage — the two-lattice ping-pong or the in-place AA
/// lattice, per LbmStorage.  The LevelOrigin turns the schemes'
/// run-local level argument into the absolute level; the StencilSolver
/// facade bumps it between phases.
class LbmState {
 public:
  /// `initial_density` supplies the level-0 density per cell; the
  /// distributions start at the zero-velocity equilibrium of that
  /// density (non-positive values — unphysical for LBM — fall back to
  /// cfg.rho0, so pattern-filled probe grids stay finite).  Fills on the
  /// calling thread; see reset() for a fill on a thread team.
  LbmState(Geometry geo, const LbmConfig& cfg,
           const core::Grid3& initial_density,
           LbmStorage storage = LbmStorage::kTwoLattice)
      : LbmState(std::move(geo), cfg, storage) {
    reset(initial_density, nullptr);
  }

  /// Geometry and parameters only: no lattice exists until the first
  /// reset(), which must run before any update or lattice access.  The
  /// solver facade constructs this way so it can build its thread team
  /// first and fill through it.
  LbmState(Geometry geo, const LbmConfig& cfg, LbmStorage storage)
      : geo_(std::move(geo)), cfg_(cfg), storage_(storage), lid_(cfg) {
    cfg_.validate();
  }

  /// Rewinds the state to level 0 for a new initial density — and, when
  /// `new_geometry` is non-null, a new geometry of the same shape — and
  /// is also the first fill after construction.  Allocations are reused:
  /// the lattices and density cache are refilled in place, and the
  /// geometry masks and fluid count are kept as they are unless a new
  /// geometry arrives (they are then rebuilt in place).  The fill runs
  /// over k-slabs of `pool` (null: the calling thread), so the first fill
  /// is also the lattices' first touch by the threads that sweep them.
  /// Bit-identical to constructing a fresh state on the same inputs, for
  /// any pool; the mechanism behind StencilSolver::reset for the lbm
  /// operator.  Throws, before changing anything, on shape mismatches
  /// and, for AA storage, on a geometry whose outer layer is not fully
  /// solid.
  void reset(const core::Grid3& initial_density,
             const Geometry* new_geometry, util::ThreadPool* pool = nullptr) {
    const int nx = geo_.nx(), ny = geo_.ny(), nz = geo_.nz();
    if (initial_density.nx() != nx || initial_density.ny() != ny ||
        initial_density.nz() != nz)
      throw std::invalid_argument(
          "LbmState::reset: initial-density shape must match the "
          "constructed shape");
    if (new_geometry != nullptr &&
        (new_geometry->nx() != nx || new_geometry->ny() != ny ||
         new_geometry->nz() != nz))
      throw std::invalid_argument(
          "LbmState::reset: geometry shape must match the constructed "
          "shape");
    const bool rebuild = new_geometry != nullptr || masks_.empty();
    if (rebuild)
      check_geometry(new_geometry != nullptr ? *new_geometry : geo_);
    if (new_geometry != nullptr) geo_ = *new_geometry;
    if (rebuild) build_masks(pool);
    fill_lattices(initial_density, pool);
  }

  /// Throws std::invalid_argument when `geo` cannot be this state's
  /// geometry under its storage policy (AA needs a fully solid outer
  /// layer) — reset() checks the same before changing anything.
  void check_geometry(const Geometry& geo) const {
    if (storage_ == LbmStorage::kAA) require_solid_hull(geo);
  }

  [[nodiscard]] const Geometry& geometry() const { return geo_; }
  [[nodiscard]] const LbmConfig& config() const { return cfg_; }
  [[nodiscard]] LbmStorage storage() const { return storage_; }
  [[nodiscard]] const LidTerms& lid_terms() const { return lid_; }

  /// Fluid cells in the interior — the updates one level actually
  /// performs (solid cells only copy the carrier through), which is what
  /// MLUP/s accounting must count.
  [[nodiscard]] long long fluid_interior_cells() const {
    return fluid_interior_;
  }

  /// Geometry-mask row (j, k), indexed by i like the carrier rows.
  [[nodiscard]] const std::uint64_t* mask_row(int j, int k) const {
    return masks_.data() +
           (static_cast<std::size_t>(k) * geo_.ny() + j) * geo_.nx();
  }

  /// Publishes the static working-set facts to the metrics registry:
  /// how many interior rows run the pure-fluid kernel (every mask zero
  /// — no bounce-back branch) vs. the mixed row path, and which
  /// software-prefetch distance the row kernels will take.  Called once
  /// per solver construction when telemetry is enabled.
  void publish_telemetry() const {
    const int nx = geo_.nx(), ny = geo_.ny(), nz = geo_.nz();
    long long fluid_rows = 0, mixed_rows = 0;
    for (int k = 1; k < nz - 1; ++k)
      for (int j = 1; j < ny - 1; ++j) {
        const std::uint64_t* m = mask_row(j, k);
        bool pure = true;
        for (int i = 1; i < nx - 1; ++i)
          if (m[i] != 0) {
            pure = false;
            break;
          }
        (pure ? fluid_rows : mixed_rows) += 1;
      }
    obs::Registry& reg = obs::Registry::global();
    reg.gauge("lbm.rows.fluid").set(static_cast<double>(fluid_rows));
    reg.gauge("lbm.rows.mixed").set(static_cast<double>(mixed_rows));
    reg.gauge("lbm.prefetch.distance").set(static_cast<double>(prefetch));
  }

  /// Lattice holding the distributions of time levels with parity `p`
  /// (any integer; the parity is normalized, so negative absolute levels
  /// land on the mathematically correct lattice).  Only the two-lattice
  /// storage has this layout — AA states throw std::logic_error.
  [[nodiscard]] Lattice& lattice(int p) {
    require_two_lattice("lattice");
    return ((p % 2) + 2) % 2 == 0 ? *even_ : *odd_;
  }
  [[nodiscard]] const Lattice& lattice(int p) const {
    require_two_lattice("lattice");
    return ((p % 2) + 2) % 2 == 0 ? *even_ : *odd_;
  }

  /// The in-place AA lattice (throws std::logic_error for two-lattice
  /// states).
  [[nodiscard]] Lattice& aa() {
    require_aa("aa");
    return *aa_;
  }
  [[nodiscard]] const Lattice& aa() const {
    require_aa("aa");
    return *aa_;
  }

  /// The distributions of absolute time level `level` (e.g.
  /// StencilSolver::levels_done()) — the lattice to read diagnostics
  /// (velocity, density moments) from.  Levels are absolute by contract:
  /// negative values throw std::invalid_argument instead of silently
  /// selecting a wrong parity.  For AA storage this decodes the in-place
  /// arrangement into an internal scratch lattice (solid cells report
  /// their untouched initial equilibrium, exactly like the ping-pong),
  /// so the returned reference is invalidated by the next current()
  /// call.
  [[nodiscard]] const Lattice& current(int level) const {
    if (level < 0)
      throw std::invalid_argument(
          "LbmState::current: absolute level must be >= 0, got " +
          std::to_string(level));
    if (storage_ == LbmStorage::kTwoLattice) return lattice(level);
    if (!decode_) decode_.emplace(geo_.nx(), geo_.ny(), geo_.nz());
    const bool even = level % 2 == 0;
    for (int k = 0; k < geo_.nz(); ++k)
      for (int j = 0; j < geo_.ny(); ++j)
        for (int i = 0; i < geo_.nx(); ++i) {
          if (geo_.at(i, j, k) != Cell::kFluid) {
            // Solid slots are never written by either policy: report the
            // same initial equilibrium the ping-pong leaves in place.
            const double rho = rho_init_->at(i, j, k);
            for (int q = 0; q < kQ; ++q)
              decode_->f(q).at(i, j, k) =
                  equilibrium(q, rho, 0.0, 0.0, 0.0);
          } else if (even) {
            // After an even level, A_q(x) = f_q(x - e_q)  =>
            // f_q(x) = A_q(x + e_q); fluid cells are interior (solid
            // hull), so x + e_q is always in range.
            for (int q = 0; q < kQ; ++q) {
              const auto& e = kVelocities[static_cast<std::size_t>(q)];
              decode_->f(q).at(i, j, k) =
                  aa_->f(q).at(i + e[0], j + e[1], k + e[2]);
            }
          } else {
            // After an odd level the arrangement is cell-local with
            // reversed direction slots: f_q(x) = A_opp(q)(x).
            for (int q = 0; q < kQ; ++q)
              decode_->f(q).at(i, j, k) = aa_->f(opposite(q)).at(i, j, k);
          }
        }
    return *decode_;
  }

  core::LevelOrigin origin;  ///< run-local level -> absolute level

  /// Software-prefetch distance (cells ahead) for the row kernel's 19
  /// pull streams; 0 disables.  A tuner axis (SolverConfig::lbm_prefetch)
  /// — purely a performance hint, never changes results.
  int prefetch = 0;

 private:
  void require_two_lattice(const char* fn) const {
    if (storage_ != LbmStorage::kTwoLattice)
      throw std::logic_error(std::string("LbmState::") + fn +
                             ": the parity ping-pong is a two-lattice "
                             "layout; this state uses AA storage");
  }
  void require_aa(const char* fn) const {
    if (storage_ != LbmStorage::kAA)
      throw std::logic_error(std::string("LbmState::") + fn +
                             ": this state uses two-lattice storage");
  }

  /// The AA alternation requires every boundary cell to be solid: a
  /// fluid hull cell would be frozen at level 0 while the interior
  /// alternates between arrangements.
  static void require_solid_hull(const Geometry& g) {
    const int nx = g.nx(), ny = g.ny(), nz = g.nz();
    for (int k = 0; k < nz; ++k)
      for (int j = 0; j < ny; ++j) {
        // Whole rows on the y and z faces, the two x-face cells otherwise.
        const bool face_row = k == 0 || k == nz - 1 || j == 0 || j == ny - 1;
        const int step = face_row || nx < 2 ? 1 : nx - 1;
        for (int i = 0; i < nx; i += step)
          if (g.at(i, j, k) == Cell::kFluid)
            throw std::invalid_argument(
                "LbmState: the AA storage policy requires a fully solid "
                "outer layer (fluid boundary cells break the in-place "
                "alternation)");
      }
  }

  /// Geometry masks (interior cells; the outermost layer is never
  /// updated, its entries only mark it solid for the row kernels) and
  /// the fluid-cell count the throughput accounting reports, rebuilt in
  /// place over k-slabs.
  void build_masks(util::ThreadPool* pool) {
    const int nx = geo_.nx(), ny = geo_.ny(), nz = geo_.nz();
    masks_.resize(static_cast<std::size_t>(nx) * ny * nz);
    std::vector<long long> fluid(
        static_cast<std::size_t>(util::slab_count(pool)), 0);
    util::for_each_slab(pool, 0, nz, [&](int s, int lo, int hi) {
      long long n = 0;
      for (int k = lo; k < hi; ++k)
        for (int j = 0; j < ny; ++j) {
          std::uint64_t* row =
              masks_.data() + (static_cast<std::size_t>(k) * ny + j) * nx;
          const bool hull_row = k == 0 || k == nz - 1 || j == 0 || j == ny - 1;
          for (int i = 0; i < nx; ++i) {
            const std::uint64_t m = hull_row || i == 0 || i == nx - 1
                                        ? kMaskSolid
                                        : cell_mask(geo_, i, j, k);
            row[i] = m;
            if (!(m & kMaskSolid)) ++n;
          }
        }
      fluid[static_cast<std::size_t>(s)] = n;
    });
    fluid_interior_ = 0;
    for (long long n : fluid) fluid_interior_ += n;
  }

  /// Fills the distributions with the level-0 equilibrium of
  /// `initial_density`, row by row over k-slabs.  Lattices are allocated
  /// only when not yet engaged, so a reset refills the existing buffers.
  void fill_lattices(const core::Grid3& initial_density,
                     util::ThreadPool* pool) {
    const int nx = geo_.nx(), ny = geo_.ny(), nz = geo_.nz();
    const auto density = [&](double rho0) {
      return rho0 > 0.0 ? rho0 : cfg_.rho0;
    };

    if (storage_ == LbmStorage::kTwoLattice) {
      if (!even_) even_.emplace(nx, ny, nz);
      if (!odd_) odd_.emplace(nx, ny, nz);
      util::for_each_slab(pool, 0, nz, [&](int, int lo, int hi) {
        for (int k = lo; k < hi; ++k)
          for (int j = 0; j < ny; ++j) {
            const double* rho = initial_density.row(j, k);
            for (int q = 0; q < kQ; ++q) {
              double* even = even_->f(q).row(j, k);
              double* odd = odd_->f(q).row(j, k);
              for (int i = 0; i < nx; ++i) {
                const double feq =
                    equilibrium(q, density(rho[i]), 0.0, 0.0, 0.0);
                even[i] = feq;
                odd[i] = feq;
              }
            }
          }
      });
      return;
    }

    if (!rho_init_) rho_init_.emplace(nx, ny, nz);
    util::for_each_slab(pool, 0, nz, [&](int, int lo, int hi) {
      for (int k = lo; k < hi; ++k)
        for (int j = 0; j < ny; ++j) {
          const double* src = initial_density.row(j, k);
          double* dst = rho_init_->row(j, k);
          for (int i = 0; i < nx; ++i) dst[i] = density(src[i]);
        }
    });
    // Level 0 is even, so the lattice must hold the STREAMED
    // arrangement of the level-0 equilibrium: A_q(y) = f_q(y - e_q).
    // Slots whose source lies outside the box are never read; park them
    // at the reference-density equilibrium.  A second dispatch: the
    // sources sit at k -/+ 1, across slab boundaries, so rho_init_ must
    // be complete first.
    if (!aa_) aa_.emplace(nx, ny, nz);
    util::for_each_slab(pool, 0, nz, [&](int, int lo, int hi) {
      for (int k = lo; k < hi; ++k)
        for (int j = 0; j < ny; ++j)
          for (int q = 0; q < kQ; ++q) {
            const auto& e = kVelocities[static_cast<std::size_t>(q)];
            const int sj = j - e[1], sk = k - e[2];
            const bool row_in = sj >= 0 && sj < ny && sk >= 0 && sk < nz;
            const double* src = row_in ? rho_init_->row(sj, sk) : nullptr;
            double* out = aa_->f(q).row(j, k);
            for (int i = 0; i < nx; ++i) {
              const int si = i - e[0];
              const double rho =
                  row_in && si >= 0 && si < nx ? src[si] : cfg_.rho0;
              out[i] = equilibrium(q, rho, 0.0, 0.0, 0.0);
            }
          }
    });
  }

  Geometry geo_;
  LbmConfig cfg_;
  LbmStorage storage_;
  LidTerms lid_;
  std::vector<std::uint64_t> masks_;   ///< per-cell geometry masks
  long long fluid_interior_ = 0;
  std::optional<Lattice> even_, odd_;  ///< two-lattice storage
  std::optional<Lattice> aa_;          ///< AA storage
  std::optional<core::Grid3> rho_init_;        ///< AA: resolved level-0 density
  mutable std::optional<Lattice> decode_;      ///< AA: current() scratch
};

/// D3Q19 stream-collide as a StencilOp.  The carrier update writes the
/// fluid density (solid cells copy through), the real state advances in
/// the LbmState side channel; see the header comment for why every
/// scheme schedule is safe for both storage policies.  No __restrict__:
/// in the compressed scheme the carrier dst row aliases the source row
/// (j∓1, k∓1), harmless because each cell reads its carrier source
/// before storing.
struct LbmOp {
  static constexpr int kHalo = 1;
  // Every level-L store is first read at level L+1, so skipping the
  // write-allocate with non-temporal stores is pure win for the standard
  // algorithm.  The two-lattice wiring streams the carrier and all 19
  // fout rows; the AA wirings stream only the carrier — their lattice
  // writes land in lines the update just loaded (no write-allocate to
  // skip), and the stream step's +e[0]-shifted stores are off the
  // alignment class anyway.
  static constexpr bool kHasNontemporal = true;

  LbmState* state = nullptr;

  void row(double* dst, const double* c, const double* /*jm*/,
           const double* /*jp*/, const double* /*km*/,
           const double* /*kp*/, int level, int j, int k, int i0,
           int i1) const {
    row_impl<false>(dst, c, level, j, k, i0, i1);
  }

  void row_reverse(double* dst, const double* c, const double* /*jm*/,
                   const double* /*jp*/, const double* /*km*/,
                   const double* /*kp*/, int level, int j, int k, int i0,
                   int i1) const {
    row_impl<true>(dst, c, level, j, k, i0, i1);
  }

  void row_nt(double* dst, const double* c, const double* /*jm*/,
              const double* /*jp*/, const double* /*km*/,
              const double* /*kp*/, int level, int j, int k, int i0,
              int i1) const {
    // row_impl narrows the flag per wiring: two-lattice streams carrier
    // and lattice, AA streams the carrier only (see kHasNontemporal).
    row_impl<false, util::simd::kHasStream>(dst, c, level, j, k, i0, i1);
  }

 private:
  /// Wires the row pointer bundle for the storage policy and the level
  /// parity, then runs the shared masked kernel.  The three wirings are
  /// documented at lbm::LatticeRow.
  template <bool Reverse, bool Stream = false>
  void row_impl(double* dst, const double* c, int level, int j, int k,
                int i0, int i1) const {
    LbmState& s = *state;
    const int abs_level = s.origin.base + level;
    LatticeRow r;
    if (s.storage() == LbmStorage::kTwoLattice) {
      const Lattice& src = s.lattice(abs_level + 1);
      Lattice& dst_lat = s.lattice(abs_level);
      for (int q = 0; q < kQ; ++q) {
        const std::size_t uq = static_cast<std::size_t>(q);
        const auto& e = kVelocities[uq];
        r.fl[uq] = src.f(q).row(j - e[1], k - e[2]) - e[0];
        r.bb[uq] = src.f(opposite(q)).row(j, k);
        r.out[uq] = dst_lat.f(q).row(j, k);
      }
      masked_stream_collide_row<Reverse, Stream, Stream>(
          s.config(), s.lid_terms(), s.mask_row(j, k), r, dst, c, i0, i1,
          s.prefetch);
      return;
    }
    if (((abs_level % 2) + 2) % 2 == 1) {
      // AA local step (produces an odd level): cell-local reads of the
      // streamed arrangement, writes into the opposite slots.
      Lattice& a = s.aa();
      for (int q = 0; q < kQ; ++q) {
        const std::size_t uq = static_cast<std::size_t>(q);
        const auto& e = kVelocities[uq];
        r.fl[uq] = a.f(q).row(j, k);
        r.bb[uq] = a.f(opposite(q)).row(j - e[1], k - e[2]) - e[0];
        r.out[uq] = a.f(opposite(q)).row(j, k);
      }
    } else {
      // AA stream step (produces an even level): pull from the
      // neighbours' reversed slots, push along the direction — including
      // into solid neighbours, which parks the next local step's
      // bounce-back values.
      Lattice& a = s.aa();
      for (int q = 0; q < kQ; ++q) {
        const std::size_t uq = static_cast<std::size_t>(q);
        const auto& e = kVelocities[uq];
        r.fl[uq] = a.f(opposite(q)).row(j - e[1], k - e[2]) - e[0];
        r.bb[uq] = a.f(q).row(j, k);
        r.out[uq] = a.f(q).row(j + e[1], k + e[2]) + e[0];
      }
    }
    // AA wirings stream the carrier only: the in-place lattice writes
    // hit already-loaded lines (nothing to skip), and the stream step's
    // +e[0] shift breaks the lattice stores' alignment class anyway.
    masked_stream_collide_row<Reverse, Stream, false>(
        s.config(), s.lid_terms(), s.mask_row(j, k), r, dst, c, i0, i1,
        s.prefetch);
  }
};

/// Naive reference advance of an LbmState by `steps` absolute levels
/// starting after `base_level` — the oracle the equivalence tests pit
/// the scheme templates (and both storage policies) against, built
/// directly on the cell kernel over the two-lattice ping-pong.
/// `carrier` mirrors what the solver facade maintains: each level writes
/// every interior fluid cell's density (the kernel's own return value,
/// for bit-exact comparison); solid cells keep their previous value.
inline void reference_advance(LbmState& state, core::Grid3& carrier,
                              int steps, int base_level = 0) {
  for (int s = 0; s < steps; ++s) {
    const int level = base_level + s + 1;
    const Lattice& src = state.lattice(level + 1);
    Lattice& dst = state.lattice(level);
    for (int k = 1; k < carrier.nz() - 1; ++k)
      for (int j = 1; j < carrier.ny() - 1; ++j)
        for (int i = 1; i < carrier.nx() - 1; ++i)
          if (state.geometry().at(i, j, k) == Cell::kFluid)
            carrier.at(i, j, k) = stream_collide_cell(
                state.geometry(), state.config(), src, dst, i, j, k);
  }
}

}  // namespace tb::lbm
