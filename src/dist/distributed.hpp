// Distributed pipelined stencil solver on the in-process rank runtime
// (Sec. 2.1), for every registry operator, from the constant-coefficient
// Jacobi to the D3Q19 lattice-Boltzmann update.
//
// The global grid is block-decomposed over a 3-D Cartesian process grid.
// Each rank owns a box of interior cells surrounded by a ghost region of
// width h = levels_per_sweep().  One *epoch* advances the whole domain by
// h time levels: a multi-layer halo exchange (x -> y -> z, so edge and
// corner data propagates in two respectively three hops) refreshes the
// ghost layers once, then the rank's StencilSolver performs one pipelined
// team sweep with per-level update regions that shrink into the ghost
// zone by one cell per level — exactly the "shifting the block by one
// cell in each direction after an update" geometry of the shared-memory
// scheme, applied at the subdomain boundary.
//
// Each rank's solver is the shared-memory facade built on its window
// (core::GridWindow) from window row sources of the global inputs: the
// initial grid, varcoef's kappa, lbm's geometry codes.  The facade owns
// the operator state; the exchange runs over its current-level grids
// (StencilSolver::level_grids) — for lbm the carrier plus the 19
// distribution components, aggregated into the same six messages (D3Q19
// reads stay within the 3^3 neighborhood, so the deep-halo geometry is
// unchanged) — and gather_state() collects the final-level distributions
// alongside the carrier.
//
// Bit compatibility: every cell update evaluates the identical
// floating-point expression as the naive reference solver, and the ghost
// exchange transports exact IEEE doubles, so the decomposed solver is
// bit-identical to the single-rank run for any process grid.
//
// Timing: data movement is real; *time* is simulated.  Communication
// advances the per-rank clocks through the NetworkModel; computation is
// charged via Comm::compute() at a modeled proc_lups rate.  In overlap
// mode sends are non-blocking and the inner-cell computation is charged
// before the ghost receives, so the receive wait absorbs the inner work —
// the paper's Sec. 3 outlook.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/grid.hpp"
#include "core/grid_source.hpp"
#include "core/solver.hpp"
#include "dist/decomposition.hpp"
#include "lbm/stencil_op.hpp"  // lbm::geometry_from_codes
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "simnet/comm.hpp"

namespace tb::dist {

/// Parameters of the distributed solve.
struct DistConfig {
  std::array<int, 3> proc_dims{1, 1, 1};  ///< Cartesian process grid
  core::PipelineConfig pipeline{};        ///< per-rank pipeline parameters
  double proc_lups = 1.0e9;  ///< modeled per-rank update rate [LUP/s]
  bool overlap = false;      ///< overlap communication with inner updates

  /// Physics parameters of the lbm operator (ignored by all others),
  /// mirroring SolverConfig::lbm.
  lbm::LbmConfig lbm{};
  /// Decode the aux grid as lbm per-cell geometry codes (0 = fluid,
  /// 1 = wall, 2 = lid) instead of using the default lid-driven cavity —
  /// the lbm analogue of varcoef's kappa, see SolverConfig.
  bool lbm_geometry_from_aux = false;
};

/// Communication volume observed by one rank.
struct CommVolume {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
};

/// Result of DistributedStencil::advance on the calling rank.
struct DistStats {
  double sim_seconds = 0.0;  ///< simulated clock at the end of the call
  CommVolume comm;           ///< volume sent during the call
  int levels = 0;            ///< time levels advanced
};

/// Executing distributed solver: one instance per rank, constructed inside
/// World::run.  `op` selects the stencil operator; `global_aux` carries
/// the operator's global auxiliary field where one exists — the kappa
/// material field of varcoef (face coefficients are rebuilt from the
/// rank's window, which yields the identical IEEE doubles as a global
/// computation), the geometry codes of lbm when cfg.lbm_geometry_from_aux
/// is set.  The rank step always runs the pipelined two-grid scheme
/// (cfg.pipeline.scheme is ignored): its per-level shrink into the ghost
/// layers is the pipelined geometry.
class DistributedStencil {
 public:
  DistributedStencil(core::Operator op, simnet::Comm& comm,
                     const DistConfig& cfg, const core::Grid3& global_initial,
                     const core::Grid3* global_aux = nullptr)
      : comm_(comm),
        cfg_(with_depth(cfg, op, global_initial)),
        halo_(cfg_.pipeline.levels_per_sweep()),
        global_n_{global_initial.nx(), global_initial.ny(),
                  global_initial.nz()},
        // Decomposition performs the admissibility checks (more ranks
        // than interior cells, subdomain thinner than the halo) — they
        // depend only on global inputs, so ranks of an uneven partition
        // agree on whether to throw and none is left behind in the
        // exchange.
        decomp_(global_n_, cfg.proc_dims, halo_),
        geom_(rank_geometry(decomp_, comm)),
        solver_(rank_solver(op, global_initial, global_aux)),
        state_fields_(static_cast<int>(solver_.level_grids().size()) - 1) {}

  /// Advances the global solution by `epochs` * h time levels.  Collective:
  /// every rank of the world must call it with the same arguments.
  DistStats advance(int epochs) {
    const std::uint64_t bytes0 = comm_.bytes_sent();
    const std::uint64_t msgs0 = comm_.messages_sent();
    const double full = compute_seconds(/*inner_only=*/false);
    const double inner = cfg_.overlap ? compute_seconds(/*inner_only=*/true)
                                      : 0.0;
    for (int e = 0; e < epochs; ++e) {
      obs::Span epoch_span("dist.epoch", "dist");
      // The grids whose ghost layers this epoch's updates read.
      const std::vector<core::Grid3*> grids = solver_.level_grids();
      if (cfg_.overlap)
        exchange_halos_overlapped(grids, inner);
      else
        exchange_halos_sequential(grids);
      comm_.compute(full - inner);
      solver_.advance(halo_);
    }
    DistStats st;
    st.sim_seconds = comm_.sim_time();
    st.comm.bytes = comm_.bytes_sent() - bytes0;
    st.comm.messages = comm_.messages_sent() - msgs0;
    st.levels = epochs * halo_;
    return st;
  }

  /// Collects the owned cells of every rank into `*out` on the root rank
  /// (pass nullptr on all other ranks).  `out` must have the global shape;
  /// its Dirichlet boundary is left untouched.  Collective.
  void gather(core::Grid3* out, int root = 0) {
    obs::ScopedTimer st(
        obs::enabled()
            ? &obs::Registry::global().histogram("dist.gather.seconds")
            : nullptr);
    obs::Span span("dist.gather", "dist");
    if (comm_.rank() == root) {
      if (out == nullptr)
        throw std::invalid_argument("DistributedStencil: root needs a grid");
      if (out->nx() != global_n_[0] || out->ny() != global_n_[1] ||
          out->nz() != global_n_[2])
        throw std::invalid_argument("DistributedStencil: gather shape");
    }
    gather_owned({&solver_.solution()}, {out}, root, kGatherTag);
  }

  /// Number of read-write side-channel fields the operator exchanges
  /// beside the carrier (19 for lbm, 0 for carrier-only operators).
  [[nodiscard]] int state_field_count() const { return state_fields_; }

  /// Collects the owned cells of every rank's state fields at the current
  /// time level into `*out` on the root rank (pass nullptr elsewhere):
  /// for lbm, the 19 distribution grids of the final level, alongside the
  /// carrier density of gather().  The vector is resized to
  /// state_field_count() grids of the global shape with non-owned
  /// (boundary) cells zero-filled.  Collective; a no-op (clearing root's
  /// vector) for operators without state fields, so drivers may call it
  /// unconditionally.
  void gather_state(std::vector<core::Grid3>* out, int root = 0) {
    if (state_fields_ == 0) {
      if (comm_.rank() == root && out != nullptr) out->clear();
      return;
    }
    const std::vector<core::Grid3*> grids = solver_.level_grids();
    const std::vector<const core::Grid3*> fields(grids.begin() + 1,
                                                 grids.end());
    std::vector<core::Grid3*> outs;
    if (comm_.rank() == root) {
      if (out == nullptr)
        throw std::invalid_argument(
            "DistributedStencil: root needs a field vector");
      out->clear();
      for (std::size_t f = 0; f < fields.size(); ++f) {
        out->emplace_back(global_n_[0], global_n_[1], global_n_[2]);
        out->back().fill(0.0);
      }
      for (core::Grid3& g : *out) outs.push_back(&g);
    }
    gather_owned(fields, outs, root, kStateGatherTag);
  }

  /// Ghost width h = n*t*T; an unset T is the model's choice
  /// (core::resolve_depth) among the depths whose h fits the thinnest
  /// subdomain.
  [[nodiscard]] int halo() const { return halo_; }

 private:
  static constexpr int kGatherTag = 64;
  static constexpr int kStateGatherTag = 65;

  [[nodiscard]] static RankGeometry rank_geometry(const Decomposition& d,
                                                  const simnet::Comm& comm) {
    if (comm.size() != d.ranks())
      throw std::invalid_argument("CartTopology: dims product != ranks");
    return d.geometry(comm.rank());
  }

  /// Global index of local cell (0, 0, 0).
  [[nodiscard]] std::array<int, 3> window_origin() const {
    return {geom_.own_lo[0] - halo_, geom_.own_lo[1] - halo_,
            geom_.own_lo[2] - halo_};
  }

  /// Rows of this rank's window of a global field: local (i, j, k) reads
  /// at(origin + (i, j, k)), or `outside` beyond the global domain.
  template <class At>
  [[nodiscard]] core::GridSource window_source(At at, double outside) const {
    const std::array<int, 3> lo = window_origin();
    const std::array<int, 3> n = geom_.local_n;
    const std::array<int, 3> gn = global_n_;
    return {n[0], n[1], n[2], [=](int j, int k, double* row) {
              const int gj = lo[1] + j, gk = lo[2] + k;
              const bool in = gj >= 0 && gj < gn[1] && gk >= 0 && gk < gn[2];
              for (int i = 0; i < n[0]; ++i) {
                const int gi = lo[0] + i;
                row[i] = in && gi >= 0 && gi < gn[0] ? at(gi, gj, gk)
                                                     : outside;
              }
            }};
  }

  /// `cfg` with an unset depth resolved for the rank step's two-grid
  /// scheme, capped so that h = n*t*T fits the minimum share of every
  /// decomposed axis (the Decomposition's admissibility rule): a
  /// geometry whose shares admit T = 1 never fails for a deeper model
  /// choice.  The choice reads only global inputs, so every rank agrees
  /// on the halo width.
  [[nodiscard]] static DistConfig with_depth(DistConfig cfg,
                                             core::Operator op,
                                             const core::Grid3& global) {
    const std::array<int, 3> n{global.nx(), global.ny(), global.nz()};
    int max_levels = 0;  // no decomposed axis: no cap
    for (std::size_t d = 0; d < 3; ++d) {
      const int parts = cfg.proc_dims[d];
      if (parts < 2) continue;
      const int share = std::max(1, (n[d] - 2) / parts);
      max_levels = max_levels == 0 ? share : std::min(max_levels, share);
    }
    core::PipelineConfig p = cfg.pipeline;
    p.scheme = core::GridScheme::kTwoGrid;
    core::resolve_depth(p, core::to_string(op), max_levels);
    cfg.pipeline.steps_per_thread = p.steps_per_thread;
    return cfg;
  }

  /// The rank's facade: the pipelined two-grid scheme on this rank's
  /// window, with the decomposition's level clips.  Out-of-domain window
  /// cells are never read: the level-0 data and kappa are zero there,
  /// the geometry a wall.  Every throw here depends only on global
  /// inputs, so it happens on every rank and none is left behind in the
  /// exchange.
  [[nodiscard]] core::StencilSolver rank_solver(
      core::Operator op, const core::Grid3& initial,
      const core::Grid3* aux) const {
    core::SolverConfig scfg;
    scfg.variant = core::Variant::kPipelined;
    scfg.op = op;
    scfg.pipeline = cfg_.pipeline;
    scfg.pipeline.scheme = core::GridScheme::kTwoGrid;
    scfg.lbm = cfg_.lbm;
    core::GridWindow window;
    window.origin = window_origin();
    window.clips = decomp_.level_clips(geom_);
    const auto grid_at = [](const core::Grid3& g) {
      return [&g](int i, int j, int k) { return g.at(i, j, k); };
    };
    const core::GridSource level0 = window_source(grid_at(initial), 0.0);
    if (op == core::Operator::kVarCoef) {
      require_global_aux(aux, "the varcoef operator needs the global kappa "
                              "field");
      return {scfg, level0, window_source(grid_at(*aux), 0.0), &window};
    }
    if (op == core::Operator::kLbm) {
      // Decodes (and validates) the WHOLE global geometry although only
      // the window is kept: an invalid code must throw on every rank, not
      // just the ranks whose window holds it.  One O(global) pass per
      // rank at construction, never per epoch.
      if (cfg_.lbm_geometry_from_aux)
        require_global_aux(aux, "lbm_geometry_from_aux needs the global "
                                "geometry-code aux grid (0 = fluid, 1 = "
                                "wall, 2 = lid)");
      const lbm::Geometry geo =
          cfg_.lbm_geometry_from_aux
              ? lbm::geometry_from_codes(*aux)
              : lbm::Geometry::cavity(global_n_[0], global_n_[1],
                                      global_n_[2]);
      scfg.lbm_geometry_from_aux = true;
      const auto code = [&geo](int i, int j, int k) {
        return static_cast<double>(static_cast<int>(geo.at(i, j, k)));
      };
      return {scfg, level0, window_source(code, 1.0), &window};
    }
    return {scfg, level0, core::GridSource(), &window};
  }

  void require_global_aux(const core::Grid3* aux, const char* missing) const {
    if (aux == nullptr)
      throw std::invalid_argument(std::string("DistributedStencil: ") +
                                  missing);
    if (aux->nx() != global_n_[0] || aux->ny() != global_n_[1] ||
        aux->nz() != global_n_[2])
      throw std::invalid_argument(
          "DistributedStencil: the aux grid must match the global grid "
          "shape");
  }

  /// Modeled seconds of one epoch's cell updates (Decomposition counts
  /// the cells; see compute_cells there for the inner_only semantics).
  [[nodiscard]] double compute_seconds(bool inner_only) const {
    return static_cast<double>(decomp_.compute_cells(geom_, inner_only)) /
           cfg_.proc_lups;
  }

  /// Multi-layer halo exchange of the current level's grids, x -> y -> z.  The
  /// slab sent along dimension d spans the already-refreshed full extents
  /// of dimensions < d, which carries edge and corner data in 2-3 hops —
  /// 6 messages per interior rank per epoch, the paper's scheme.  All
  /// exchanged fields of one face travel aggregated in one message, so
  /// the message count is operator-independent and only the bytes scale
  /// with the operator's state width.
  void exchange_halos_sequential(const std::vector<core::Grid3*>& grids) {
    // Per-dimension telemetry: exchange time, halo bytes and message
    // counts, aggregated across all ranks (ranks are threads here, the
    // registry's counters are atomic).
    static constexpr const char* kDimSpan[3] = {
        "dist.exchange.x", "dist.exchange.y", "dist.exchange.z"};
    static constexpr const char* kDimBytes[3] = {
        "dist.halo.bytes.x", "dist.halo.bytes.y", "dist.halo.bytes.z"};
    const bool tel = obs::enabled();
    obs::Registry& reg = obs::Registry::global();
    obs::Histogram* exch_h =
        tel ? &reg.histogram("dist.exchange.seconds") : nullptr;
    obs::Counter* msgs = tel ? &reg.counter("dist.halo.messages") : nullptr;
    for (int d = 0; d < 3; ++d) {
      obs::ScopedTimer st(exch_h);
      obs::Span span(kDimSpan[d], "dist");
      obs::Counter* bytes = tel ? &reg.counter(kDimBytes[d]) : nullptr;
      // Post both sends first (buffered/eager, so this never deadlocks),
      // then receive.  Tags encode (dimension, direction).  The slab
      // boxes come from Decomposition — the identical boxes the
      // rank-program builder prices, which is what keeps the modeled
      // bytes of the event engine equal to the executed bytes here.
      for (int side = 0; side < 2; ++side) {
        const int nb = side == 0 ? geom_.neighbor_lo[d] : geom_.neighbor_hi[d];
        if (nb < 0) continue;
        const Box3 s = decomp_.send_box(geom_, d, side);
        std::vector<double> buf;
        pack(grids, s.lo, s.hi, buf);
        comm_.send(nb, face_tag(d, side), buf);
        if (tel) {
          bytes->add(buf.size() * sizeof(double));
          msgs->add(1);
        }
      }
      for (int side = 0; side < 2; ++side) {
        const int nb = side == 0 ? geom_.neighbor_lo[d] : geom_.neighbor_hi[d];
        if (nb < 0) continue;
        const Box3 r = decomp_.recv_box(geom_, d, side);
        std::vector<double> buf(r.cells() * grids.size());
        comm_.recv(nb, face_tag(d, 1 - side), buf);
        unpack(grids, r.lo, r.hi, buf);
      }
    }
  }

  /// Overlapped exchange: every face, edge and corner box goes to its
  /// neighbour as an independent non-blocking message, so no wire time
  /// serializes behind another dimension's receive; the inner-cell
  /// computation is charged between the sends and the receives, where a
  /// real overlapped implementation would perform it.  The ghost region
  /// receives exactly the same base-level doubles as the sequential
  /// scheme (corner data travels directly instead of in two hops), so the
  /// result stays bit-identical.
  void exchange_halos_overlapped(const std::vector<core::Grid3*>& grids,
                                 double inner_seconds) {
    const bool tel = obs::enabled();
    obs::Registry& reg = obs::Registry::global();
    obs::ScopedTimer st(
        tel ? &reg.histogram("dist.exchange.seconds") : nullptr);
    obs::Span span("dist.exchange.overlap", "dist");
    obs::Counter* bytes =
        tel ? &reg.counter("dist.halo.bytes.overlap") : nullptr;
    obs::Counter* msgs = tel ? &reg.counter("dist.halo.messages") : nullptr;
    std::vector<std::array<int, 3>> dirs;
    for (int vz = -1; vz <= 1; ++vz)
      for (int vy = -1; vy <= 1; ++vy)
        for (int vx = -1; vx <= 1; ++vx) {
          const std::array<int, 3> v{vx, vy, vz};
          if (v == std::array<int, 3>{0, 0, 0}) continue;
          if (diag_neighbor(v) >= 0) dirs.push_back(v);
        }
    for (const auto& v : dirs) {
      std::array<int, 3> lo, hi;
      for (int d = 0; d < 3; ++d) {
        if (v[d] > 0) {  // our topmost owned layers
          lo[d] = geom_.own[d];
          hi[d] = geom_.own[d] + halo_;
        } else if (v[d] < 0) {  // our bottommost owned layers
          lo[d] = halo_;
          hi[d] = 2 * halo_;
        } else {  // owned cells plus the physical boundary layer
          lo[d] = geom_.neighbor_lo[d] >= 0 ? halo_ : halo_ - 1;
          hi[d] = geom_.neighbor_hi[d] >= 0 ? halo_ + geom_.own[d]
                                       : halo_ + geom_.own[d] + 1;
        }
      }
      std::vector<double> buf;
      pack(grids, lo, hi, buf);
      comm_.isend(diag_neighbor(v), dir_tag(v), buf);
      if (tel) {
        bytes->add(buf.size() * sizeof(double));
        msgs->add(1);
      }
    }
    comm_.compute(inner_seconds);
    for (const auto& v : dirs) {
      std::array<int, 3> lo, hi;
      for (int d = 0; d < 3; ++d) {
        if (v[d] > 0) {  // ghost region beyond our top face
          lo[d] = halo_ + geom_.own[d];
          hi[d] = halo_ + geom_.own[d] + halo_;
        } else if (v[d] < 0) {  // ghost region below our bottom face
          lo[d] = 0;
          hi[d] = halo_;
        } else {
          lo[d] = geom_.neighbor_lo[d] >= 0 ? halo_ : halo_ - 1;
          hi[d] = geom_.neighbor_hi[d] >= 0 ? halo_ + geom_.own[d]
                                       : halo_ + geom_.own[d] + 1;
        }
      }
      std::vector<double> buf(box_cells(lo, hi) * grids.size());
      // The neighbour tagged its message with the direction from *its*
      // perspective, which is -v.
      comm_.recv(diag_neighbor(v), dir_tag({-v[0], -v[1], -v[2]}), buf);
      unpack(grids, lo, hi, buf);
    }
  }

  /// Rank of the (possibly diagonal) neighbour offset by `v`; -1 if it
  /// falls outside the process grid.
  [[nodiscard]] int diag_neighbor(const std::array<int, 3>& v) const {
    std::array<int, 3> c = geom_.coords;
    for (int d = 0; d < 3; ++d) {
      c[d] += v[d];
      if (c[d] < 0 || c[d] >= cfg_.proc_dims[d]) return -1;
    }
    return decomp_.topology().rank_of(c);
  }

  [[nodiscard]] static int face_tag(int d, int side) { return d * 2 + side; }

  /// Tags 10..36: base-3 encoding of the direction vector, disjoint from
  /// the face tags (0..5) and the gather tag.
  [[nodiscard]] static int dir_tag(const std::array<int, 3>& v) {
    return 10 + (v[0] + 1) + 3 * (v[1] + 1) + 9 * (v[2] + 1);
  }

  [[nodiscard]] static std::size_t box_cells(const std::array<int, 3>& lo,
                                             const std::array<int, 3>& hi) {
    return static_cast<std::size_t>(hi[0] - lo[0]) *
           static_cast<std::size_t>(hi[1] - lo[1]) *
           static_cast<std::size_t>(hi[2] - lo[2]);
  }

  /// Serializes the box [lo, hi) of every grid, field-major (all cells of
  /// grid 0, then grid 1, ...).  unpack() must mirror the order exactly.
  static void pack(const std::vector<core::Grid3*>& grids,
                   const std::array<int, 3>& lo,
                   const std::array<int, 3>& hi, std::vector<double>& buf) {
    buf.resize(box_cells(lo, hi) * grids.size());
    std::size_t p = 0;
    for (const core::Grid3* g : grids)
      for (int k = lo[2]; k < hi[2]; ++k)
        for (int j = lo[1]; j < hi[1]; ++j)
          for (int i = lo[0]; i < hi[0]; ++i) buf[p++] = g->at(i, j, k);
  }

  static void unpack(const std::vector<core::Grid3*>& grids,
                     const std::array<int, 3>& lo,
                     const std::array<int, 3>& hi,
                     const std::vector<double>& buf) {
    std::size_t p = 0;
    for (core::Grid3* g : grids)
      for (int k = lo[2]; k < hi[2]; ++k)
        for (int j = lo[1]; j < hi[1]; ++j)
          for (int i = lo[0]; i < hi[0]; ++i) g->at(i, j, k) = buf[p++];
  }

  /// Owned cells of every grid, field-major.
  void pack_owned(const std::vector<const core::Grid3*>& fields,
                  std::vector<double>& buf) const {
    std::size_t p = 0;
    for (const core::Grid3* f : fields)
      for (int k = 0; k < geom_.own[2]; ++k)
        for (int j = 0; j < geom_.own[1]; ++j)
          for (int i = 0; i < geom_.own[0]; ++i)
            buf[p++] = f->at(halo_ + i, halo_ + j, halo_ + k);
  }

  /// Collects the owned cells of this rank's `fields` from every rank
  /// into the global-shaped `outs` on the root (empty elsewhere), one
  /// message per rank.  Collective.
  void gather_owned(const std::vector<const core::Grid3*>& fields,
                    const std::vector<core::Grid3*>& outs, int root,
                    int tag) {
    const std::size_t nf = fields.size();
    if (comm_.rank() != root) {
      std::vector<double> buf(static_cast<std::size_t>(geom_.own[0]) *
                              geom_.own[1] * geom_.own[2] * nf);
      pack_owned(fields, buf);
      comm_.send(root, tag, buf);
      return;
    }
    for (int r = 0; r < comm_.size(); ++r) {
      std::array<int, 3> lo, cnt;
      for (int d = 0; d < 3; ++d)
        std::tie(lo[d], cnt[d]) =
            decomp_.owned_range(d, decomp_.topology().coords_of(r)[d]);
      std::vector<double> buf(static_cast<std::size_t>(cnt[0]) * cnt[1] *
                              cnt[2] * nf);
      if (r == root)
        pack_owned(fields, buf);
      else
        comm_.recv(r, tag, buf);
      std::size_t p = 0;
      for (core::Grid3* out : outs)
        for (int k = 0; k < cnt[2]; ++k)
          for (int j = 0; j < cnt[1]; ++j)
            for (int i = 0; i < cnt[0]; ++i)
              out->at(lo[0] + i, lo[1] + j, lo[2] + k) = buf[p++];
    }
  }

  simnet::Comm& comm_;
  DistConfig cfg_;
  int halo_;
  std::array<int, 3> global_n_;
  Decomposition decomp_;  ///< shared geometry (also the rank-program source)
  RankGeometry geom_;     ///< this rank's slice of decomp_
  core::StencilSolver solver_;
  int state_fields_;  ///< grids exchanged beside the carrier
};

}  // namespace tb::dist
