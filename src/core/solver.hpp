// High-level facade: solve a 3-D stencil problem with any variant and
// any operator.
//
// StencilSolver hides the grid bookkeeping (parities, compressed margins,
// remainder steps that are not a multiple of the team-sweep depth) behind
// a single run-to-N-steps call, which is what the examples and each
// rank of the distributed solver build on.  Two orthogonal axes select
// the algorithm:
//
//   Variant  — how the sweeps are scheduled (reference, baseline,
//              pipelined [two-grid or compressed], wavefront [a
//              plane-block plan of the pipelined two-grid solver])
//   Operator — what one cell update computes (constant-coefficient
//              Jacobi, variable-coefficient diffusion)
//
// Every (variant x operator) combination is constructible — also by
// string name through core/registry.hpp — and is bit-identical to the
// naive reference of the same operator.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/baseline.hpp"
#include "core/compressed.hpp"
#include "core/grid_source.hpp"
#include "core/pipeline.hpp"
#include "lbm/kernel.hpp"  // LbmConfig (physics parameters of --operator lbm)

namespace tb::lbm {
class LbmState;  // side-channel state of the lbm operator
}

namespace tb::core {

/// Which scheduling variant to run.
enum class Variant {
  kReference,  ///< naive single-threaded sweeps (oracle)
  kBaseline,   ///< standard spatially blocked multi-threaded sweeps
  kPipelined,  ///< pipelined temporal blocking (two-grid or compressed)
  kWavefront,  ///< plane-wavefront temporal blocking (Ref. [2]), run as
               ///< a plane-block plan of the pipelined solver
};

/// Which stencil operator each cell update applies.
enum class Operator {
  kJacobi,    ///< constant-coefficient 7-point Jacobi (Eq. (1))
  kVarCoef,   ///< variable-coefficient (heterogeneous) diffusion
  kBox27,     ///< 27-point trilinear box smoother (full 3^3 neighborhood)
  kRedBlack,  ///< two-color Gauss–Seidel-style relaxation
  kLbm,       ///< D3Q19 lattice-Boltzmann stream-collide (lid-driven flow)
};

[[nodiscard]] constexpr const char* to_string(Variant v) {
  switch (v) {
    case Variant::kReference: return "reference";
    case Variant::kBaseline: return "baseline";
    case Variant::kPipelined: return "pipelined";
    case Variant::kWavefront: return "wavefront";
  }
  return "?";
}

[[nodiscard]] constexpr const char* to_string(Operator op) {
  switch (op) {
    case Operator::kJacobi: return "jacobi";
    case Operator::kVarCoef: return "varcoef";
    case Operator::kBox27: return "box27";
    case Operator::kRedBlack: return "redblack";
    case Operator::kLbm: return "lbm";
  }
  return "?";
}

/// Facade configuration: variant and operator selectors plus the
/// per-variant tunables.
struct SolverConfig {
  Variant variant = Variant::kPipelined;
  Operator op = Operator::kJacobi;
  PipelineConfig pipeline{};
  BaselineConfig baseline{};
  WavefrontConfig wavefront{};

  /// Physics parameters of Operator::kLbm (ignored by all others).
  lbm::LbmConfig lbm{};

  /// Distribution storage policy of Operator::kLbm: the two-lattice
  /// ping-pong (default) or the in-place AA pattern ("lbm:aa" in the
  /// registry), which halves lattice bytes per update.  AA requires a
  /// fully solid outer layer (the default cavity qualifies) and is
  /// shared-memory only.
  lbm::LbmStorage lbm_storage = lbm::LbmStorage::kTwoLattice;

  /// Geometry of Operator::kLbm.  Default: the lid-driven cavity (closed
  /// box, moving top lid) derived from the grid shape — no auxiliary
  /// field needed, so `--operator lbm` works wherever jacobi does.  When
  /// set, the kappa/auxiliary grid of the (config, initial, kappa)
  /// constructor is instead decoded as per-cell geometry codes
  /// (0 = fluid, 1 = wall, 2 = lid; see lbm::geometry_from_codes), the
  /// lbm analogue of varcoef's material field.
  bool lbm_geometry_from_aux = false;

  /// Software-prefetch distance (cells ahead) for the lbm row kernel's
  /// 19 pull streams; 0 disables.  A tuner axis: the D3Q19 gather runs
  /// more concurrent read streams than the hardware prefetcher tracks,
  /// so the model (NodeModel::gather_efficiency) charges the un-prefetched
  /// kernel a gather penalty and the search space fans the distance.
  /// Ignored by every other operator.  Never changes results.
  int lbm_prefetch = 0;

  /// Requested *meta* variant (e.g. "auto", resolved to a concrete
  /// variant by a factory registered through core/registry.hpp).  Empty
  /// for concrete variants; when set, `variant`/`pipeline` hold the
  /// defaults the resolver starts from, and registry::make_solver routes
  /// construction through the registered factory.
  std::string meta;

  /// Tuning-cache file the "auto" meta variant should read and persist
  /// plans through; empty = the tuner's default (TB_TUNE_CACHE env, else
  /// its built-in path).  Set by the session layer so every auto solve
  /// of a session shares one cache — repeat shapes replay the cached
  /// plan with zero probes.  Ignored by concrete variants; never part of
  /// a tuned schedule (tune::Candidate::apply does not touch it).
  std::string tune_cache_path;

  /// Turns the observability layer (src/obs/) on for this process:
  /// per-sweep/barrier/halo metrics and trace spans from every solver
  /// this config constructs.  Equivalent to the TB_TELEMETRY env (which
  /// also controls the trace output paths and always wins); when both
  /// are unset the instrumentation compiles down to one predictable
  /// branch per sweep.  Never changes results.
  bool telemetry = false;
};

/// A rank's subdomain of a decomposed global grid (dist/distributed.hpp):
/// the sources passed with it hold the window's data, local cell
/// (0, 0, 0) sitting at global index `origin`, and a team sweep updates
/// level s only inside clips[s - 1] (the ghost layers shrink by one cell
/// per level).  Only the pipelined two-grid variant runs on a window.
struct GridWindow {
  std::array<int, 3> origin{};
  std::vector<LevelClip> clips;
};

/// The wavefront of Ref. [2] as the pipeline plan the facade runs it
/// with, for a grid of nx * ny planes.
[[nodiscard]] PipelineConfig wavefront_plan(const WavefrontConfig& wf,
                                            int nx, int ny);

/// Owns the working grids and advances them by arbitrary step counts.
class StencilSolver {
 public:
  /// `initial` supplies level-0 data including Dirichlet boundary faces
  /// (for Operator::kLbm: the initial density field) — a grid, or any
  /// GridSource; the solver writes it row by row into its own grids on
  /// its own thread team.  Not valid for operators that need an
  /// auxiliary field (varcoef's material field, lbm with
  /// lbm_geometry_from_aux set).
  StencilSolver(const SolverConfig& cfg, const GridSource& initial);

  /// Construction with an auxiliary per-cell field `kappa` (same shape
  /// as `initial`): the material field for Operator::kVarCoef, the
  /// geometry codes for Operator::kLbm when cfg.lbm_geometry_from_aux is
  /// set.  Valid for any operator; the stateless ones ignore kappa.
  /// With a `window`, the grids are that rank window: red-black colors
  /// cells by global coordinates and advance() runs whole sweeps of the
  /// window's clips only.
  StencilSolver(const SolverConfig& cfg, const GridSource& initial,
                const GridSource& kappa, const GridWindow* window = nullptr);

  ~StencilSolver();
  StencilSolver(StencilSolver&&) noexcept;
  StencilSolver& operator=(StencilSolver&&) noexcept;

  /// Advances the solution by `steps` time levels and returns timing.
  /// For the temporally blocked variants, whole team sweeps are used for
  /// floor(steps / depth) * depth levels and the remainder falls back to
  /// baseline sweeps (a real code must produce exactly the requested
  /// number of levels, not a convenient multiple).
  RunStats advance(int steps);

  /// Rewinds the solver to level 0 with new initial data, reusing every
  /// allocation: grids, the operator's side-channel state (lattices,
  /// face coefficients) and the scheme objects with their thread pools
  /// all survive in place — the mechanism behind core::SolverSession's
  /// solver pool.  `initial` must match the constructed shape (throws
  /// std::invalid_argument otherwise).  Results are bit-identical to a
  /// freshly constructed solver on the same inputs.  Page placement is
  /// NOT re-established (the pages are already mapped from the first
  /// construction) — a correctness no-op, and exactly the point: reuse
  /// keeps the NUMA homing the first solve paid for.
  void reset(const GridSource& initial);

  /// reset() with a new auxiliary field (varcoef's kappa, lbm's geometry
  /// codes when cfg.lbm_geometry_from_aux is set): the face coefficients
  /// resp. geometry masks are rebuilt in place.  Operators that take no
  /// aux field ignore `kappa`, mirroring the two-argument constructor.
  void reset(const GridSource& initial, const GridSource& kappa);

  /// Read-only view of the current solution.  No copy: the facade
  /// maintains the invariant that the current level always lives in its
  /// primary grid (parity swaps after odd step counts, compressed margins
  /// stored back), so the reference stays valid until the next advance().
  [[nodiscard]] const Grid3& solution() const;

  [[nodiscard]] int levels_done() const { return levels_done_; }

  /// The configuration that runs: for the wavefront, `pipeline` holds
  /// its plan (wavefront_plan).
  [[nodiscard]] const SolverConfig& config() const;

  /// The current level's mutable grids: the carrier, then for
  /// Operator::kLbm the 19 distribution components of
  /// lattice(levels_done()) — what a ghost exchange refreshes and a state
  /// gather reads.  Writes must keep them a valid state of that level.
  [[nodiscard]] std::vector<Grid3*> level_grids();

  /// Side-channel state of the lbm operator (distributions + geometry),
  /// for flow diagnostics beyond the density carrier:
  /// `lbm_state()->current(levels_done())` is the lattice holding the
  /// present time level.  nullptr for every other operator.
  [[nodiscard]] const lbm::LbmState* lbm_state() const;

 private:
  struct Impl;
  template <class Op>
  struct OpImpl;

  int levels_done_ = 0;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tb::core
