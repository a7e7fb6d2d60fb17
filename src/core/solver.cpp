#include "core/solver.hpp"

#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/stencil_op.hpp"
#include "lbm/stencil_op.hpp"
#include "obs/obs.hpp"
#include "topo/placement.hpp"
#include "util/timer.hpp"

namespace tb::core {

namespace {

/// Level-0 carrier write: each row of `initial` is written into `a`,
/// then copied into `b` (the boundary values must exist in both
/// parities), over k-slabs of `team` (null: the calling thread) — so a
/// computed source is also evaluated on the team.
void fill_carriers(util::ThreadPool* team, const GridSource& initial,
                   Grid3& a, Grid3& b) {
  const std::size_t row_bytes =
      static_cast<std::size_t>(a.nx()) * sizeof(double);
  util::for_each_slab(team, 0, a.nz(), [&](int, int lo, int hi) {
    for (int k = lo; k < hi; ++k)
      for (int j = 0; j < a.ny(); ++j) {
        initial.fill_row(j, k, a.row(j, k));
        std::memcpy(b.row(j, k), a.row(j, k), row_bytes);
      }
  });
}

/// Calls `fn` with the source's data as a grid: the wrapped grid, or a
/// materialized copy of a computed source.
template <class Fn>
decltype(auto) with_grid(const GridSource& src, Fn&& fn) {
  if (const Grid3* g = src.grid()) return fn(*g);
  return fn(src.materialize());
}

/// Per-operator construction state.  The generic case is stateless; the
/// variable-coefficient operator owns its face-coefficient fields here,
/// the lbm operator its distribution lattices and geometry, so the row
/// kernels can hold a stable pointer to them.  set_level_base() feeds
/// time-dependent operators the absolute level of the phase about to
/// run (see LevelOrigin); it is a no-op for time-invariant operators.
template <class Op>
struct OpState {
  [[nodiscard]] Op make() { return Op{}; }
  void set_level_base(int /*base*/) {}
  [[nodiscard]] const lbm::LbmState* lbm() const { return nullptr; }
  /// Cells one level actually updates, or -1 for "every interior cell"
  /// (the geometry-oblivious operators).
  [[nodiscard]] long long updates_per_level() const { return -1; }
  /// Reset hook, run before the carriers are written: validates (and
  /// may decode) a new aux field, so a bad one throws with the solver
  /// unchanged.
  void stage(const SolverConfig& /*cfg*/, const GridSource* /*aux*/) {}
  /// Level-0 fill hook, run at construction (aux = nullptr: the state
  /// was built from its aux inputs) and by every StencilSolver::reset,
  /// once the carrier `level0` holds the level-0 data, on the solver's
  /// thread team when it has one.  Stateless operators have nothing to
  /// fill.
  void reset(const SolverConfig& /*cfg*/, const Grid3& /*level0*/,
             const GridSource* /*aux*/, util::ThreadPool* /*team*/) {}
  /// Appends the read-write side-channel grids holding absolute level
  /// `level` (see StencilSolver::level_grids); none for carrier-only
  /// operators.
  void add_fields(int /*level*/, std::vector<Grid3*>& /*out*/) {}
};

template <>
struct OpState<VarCoefOp> {
  DiffusionCoefficients coeffs;
  [[nodiscard]] VarCoefOp make() { return VarCoefOp{&coeffs}; }
  void set_level_base(int /*base*/) {}
  [[nodiscard]] const lbm::LbmState* lbm() const { return nullptr; }
  [[nodiscard]] long long updates_per_level() const { return -1; }
  void stage(const SolverConfig& /*cfg*/, const GridSource* /*aux*/) {}
  /// New kappa -> face coefficients rebuilt in place; no kappa -> the
  /// existing material field stays (documented at StencilSolver::reset).
  void reset(const SolverConfig& /*cfg*/, const Grid3& /*level0*/,
             const GridSource* aux, util::ThreadPool* /*team*/) {
    if (aux != nullptr)
      with_grid(*aux, [&](const Grid3& kappa) { coeffs.rebuild(kappa); });
  }
  void add_fields(int /*level*/, std::vector<Grid3*>& /*out*/) {}
};

template <>
struct OpState<RedBlackOp> {
  LevelOrigin origin;
  int parity = 0;  ///< parity of a rank window's global origin
  [[nodiscard]] RedBlackOp make() { return RedBlackOp{&origin, parity}; }
  void set_level_base(int base) { origin.base = base; }
  [[nodiscard]] const lbm::LbmState* lbm() const { return nullptr; }
  [[nodiscard]] long long updates_per_level() const { return -1; }
  void stage(const SolverConfig& /*cfg*/, const GridSource* /*aux*/) {}
  void reset(const SolverConfig& /*cfg*/, const Grid3& /*level0*/,
             const GridSource* /*aux*/, util::ThreadPool* /*team*/) {
    origin.base = 0;
  }
  void add_fields(int /*level*/, std::vector<Grid3*>& /*out*/) {}
};

template <>
struct OpState<lbm::LbmOp> {
  lbm::LbmState state;
  std::optional<lbm::Geometry> staged{};  ///< decoded by stage(), for reset()
  [[nodiscard]] lbm::LbmOp make() { return lbm::LbmOp{&state}; }
  void set_level_base(int base) { state.origin.base = base; }
  [[nodiscard]] const lbm::LbmState* lbm() const { return &state; }
  /// Solid cells only copy the carrier through — MLUP/s counts the
  /// fluid cells that run a real stream-collide update.
  [[nodiscard]] long long updates_per_level() const {
    return state.fluid_interior_cells();
  }
  /// New geometry codes, when the config sources the geometry there,
  /// are decoded and checked against the storage policy here.
  void stage(const SolverConfig& cfg, const GridSource* aux) {
    staged.reset();
    if (cfg.lbm_geometry_from_aux && aux != nullptr) {
      staged = lbm::geometry_from_codes(*aux);
      state.check_geometry(*staged);
    }
  }
  /// Distributions back to the equilibrium of the level-0 density,
  /// geometry rebuilt from the staged codes — all in the existing
  /// lattice allocations, on the team.
  void reset(const SolverConfig& /*cfg*/, const Grid3& level0,
             const GridSource* /*aux*/, util::ThreadPool* team) {
    state.origin.base = 0;
    state.reset(level0, staged ? &*staged : nullptr, team);
    staged.reset();
  }
  void add_fields(int level, std::vector<Grid3*>& out) {
    lbm::Lattice& lat = state.lattice(level);
    for (int q = 0; q < lbm::kQ; ++q) out.push_back(&lat.f(q));
  }
};

}  // namespace

/// The wavefront of Ref. [2] as a pipeline plan: one team of t stages,
/// one update each (T = 1) on blocks of one whole xy-plane, every stage
/// one block behind the next in lock step (barrier sync, d_l = d_u = 1).
/// Stage i thus updates level i+1 on plane z = k - 2i at step k, the
/// 2-plane spacing of the original method.  The block's x/y extents
/// cover the plane plus the t-1 cells the time skew shifts it by.
PipelineConfig wavefront_plan(const WavefrontConfig& wf, int nx, int ny) {
  wf.validate();
  PipelineConfig p;
  p.teams = 1;
  p.team_size = wf.threads;
  p.steps_per_thread = 1;
  p.block = {nx + wf.threads, ny + wf.threads, 1};
  p.dl = 1;
  p.du = 1;
  p.dt = 0;
  p.sync = SyncMode::kBarrier;
  p.scheme = GridScheme::kTwoGrid;
  return p;
}

struct StencilSolver::Impl {
  virtual ~Impl() = default;
  /// Advances by `steps` levels; `base` is the absolute level count
  /// already completed (the facade's levels_done_ — the single counter;
  /// it feeds the LevelOrigin of time-dependent operators).
  virtual RunStats advance(int steps, int base) = 0;
  /// Rewinds to level 0 with new initial data (and optionally a new aux
  /// field) without reallocating anything; see StencilSolver::reset.
  virtual void reset(const GridSource& initial, const GridSource* aux) = 0;
  [[nodiscard]] virtual const Grid3& solution() const = 0;
  [[nodiscard]] virtual const lbm::LbmState* lbm_state() const = 0;
  [[nodiscard]] virtual const SolverConfig& config() const = 0;
  [[nodiscard]] virtual std::vector<Grid3*> level_grids(int level) = 0;
};

/// The whole advance state machine, instantiated per operator.  Only the
/// facade-level dispatch is virtual; the hot loops live in the templated
/// scheme classes and stay inlined.
template <class Op>
struct StencilSolver::OpImpl final : StencilSolver::Impl {
  OpImpl(const SolverConfig& cfg, const GridSource& initial,
         OpState<Op> state, const GridWindow* window)
      : cfg_(cfg),
        windowed_(window != nullptr),
        state_(std::move(state)),
        nx_(initial.nx()),
        ny_(initial.ny()),
        nz_(initial.nz()),
        a_(nx_, ny_, nz_),
        b_(nx_, ny_, nz_) {
    // The wavefront is a fixed plan of the pipelined two-grid solver;
    // from here on it shares the pipelined construction and advance path.
    if (cfg.variant == Variant::kWavefront)
      cfg_.pipeline = wavefront_plan(cfg.wavefront, nx_, ny_);
    const bool blocked = cfg.variant == Variant::kPipelined ||
                         cfg.variant == Variant::kWavefront;

    // Establish page placement before the first write of actual data.
    // The temporally blocked variants defeat first-touch locality (every
    // thread sweeps through every block or plane), so they use
    // round-robin interleaving; the baseline keeps classic first-touch
    // (Sec. 1.3).
    const topo::PagePlacement placement =
        blocked ? topo::PagePlacement::kRoundRobin : cfg.baseline.placement;
    const int touch_threads =
        blocked ? cfg_.pipeline.total_threads() : cfg.baseline.threads;
    topo::touch_pages(a_.data(), a_.size(), placement, touch_threads);
    topo::touch_pages(b_.data(), b_.size(), placement, touch_threads);

    const Op op = state_.make();
    switch (cfg.variant) {
      case Variant::kReference:
        break;
      case Variant::kBaseline:
        baseline_ = std::make_unique<BaselineSolver<Op>>(cfg.baseline, nx_,
                                                         ny_, nz_, op);
        break;
      case Variant::kPipelined:
      case Variant::kWavefront: {
        cfg_.pipeline.validate();
        if (windowed_) {
          pipelined_ = std::make_unique<PipelinedSolver<Op>>(
              cfg_.pipeline, window->clips, op);
        } else if (cfg_.pipeline.scheme == GridScheme::kTwoGrid) {
          pipelined_ = std::make_unique<PipelinedSolver<Op>>(cfg_.pipeline,
                                                             nx_, ny_, nz_,
                                                             op);
        } else {
          compressed_ = std::make_unique<CompressedSolver<Op>>(cfg_.pipeline,
                                                               nx_, ny_,
                                                               nz_, op);
        }
        // Remainder steps (not a multiple of n*t*T) run as baseline
        // sweeps.
        BaselineConfig rem = cfg.baseline;
        rem.threads = cfg_.pipeline.total_threads();
        baseline_ = std::make_unique<BaselineSolver<Op>>(rem, nx_, ny_, nz_,
                                                         op);
        break;
      }
    }
    // The level-0 fill runs once the team exists, on the team: both
    // carriers, then the operator state (lbm lattices and masks) from a_.
    fill_carriers(team(), initial, a_, b_);
    state_.reset(cfg_, a_, nullptr, team());
    // Static facts about the operator's working set (lbm geometry row
    // classification, prefetch path) go to the registry once — not per
    // rank window, where each rank would overwrite the gauges.
    if (obs::enabled() && !windowed_)
      if (const lbm::LbmState* s = state_.lbm()) s->publish_telemetry();
  }

  RunStats advance(int steps, int base) override {
    RunStats total;
    if (steps == 0) return total;

    switch (cfg_.variant) {
      case Variant::kReference: {
        state_.set_level_base(base);
        const Op op = state_.make();
        util::Timer timer;
        for (int s = 0; s < steps; ++s) {
          reference_sweep_op(op, a_, b_, s + 1);
          std::swap(a_, b_);
        }
        total.seconds = timer.elapsed();
        total.levels = steps;
        total.cell_updates =
            1LL * (nx_ - 2) * (ny_ - 2) * (nz_ - 2) * steps;
        break;
      }
      case Variant::kBaseline:
        total = advance_baseline_steps(steps, base);
        break;
      case Variant::kPipelined:
      case Variant::kWavefront: {
        const int depth = cfg_.pipeline.levels_per_sweep();
        const int sweeps = steps / depth;
        const int remainder = steps % depth;
        if (windowed_ && remainder > 0)
          throw std::invalid_argument(
              "StencilSolver: a rank window advances whole sweeps only");
        if (sweeps > 0)
          accumulate(total, advance_blocked_sweeps(sweeps, base));
        if (remainder > 0)
          accumulate(total, advance_baseline_steps(
                                remainder, base + sweeps * depth));
        break;
      }
    }
    // Geometry-aware operators report the updates they actually perform
    // (the schemes themselves count every interior cell).
    const long long upl = state_.updates_per_level();
    if (upl >= 0) total.cell_updates = upl * total.levels;
    return total;
  }

  void reset(const GridSource& initial, const GridSource* aux) override {
    if (!initial.same_shape(nx_, ny_, nz_))
      throw std::invalid_argument(
          "StencilSolver::reset: the new initial grid must match the "
          "constructed shape");
    if (aux != nullptr && !aux->same_shape(nx_, ny_, nz_))
      throw std::invalid_argument(
          "StencilSolver::reset: the new aux grid must match the "
          "constructed shape");
    state_.stage(cfg_, aux);
    // The same fill as construction.  The pages are already mapped, so
    // the placement established at construction is untouched.
    fill_carriers(team(), initial, a_, b_);
    state_.reset(cfg_, a_, aux, team());
  }

  /// The current level lives in a_ by invariant: every path below swaps
  /// the grids back when it ends on an odd parity.
  [[nodiscard]] const Grid3& solution() const override { return a_; }

  [[nodiscard]] const lbm::LbmState* lbm_state() const override {
    return state_.lbm();
  }

  [[nodiscard]] const SolverConfig& config() const override { return cfg_; }

  [[nodiscard]] std::vector<Grid3*> level_grids(int level) override {
    std::vector<Grid3*> grids{&a_};
    state_.add_fields(level, grids);
    return grids;
  }

 private:
  /// The thread team of the level-0 fills: the baseline pool every
  /// non-reference variant owns (its remainder sweeps run there too);
  /// the reference variant fills on the calling thread.
  [[nodiscard]] util::ThreadPool* team() {
    return baseline_ ? &baseline_->pool() : nullptr;
  }

  static void accumulate(RunStats& total, const RunStats& st) {
    total.seconds += st.seconds;
    total.cell_updates += st.cell_updates;
    total.levels += st.levels;
  }

  /// `base` is the absolute level count completed before this phase:
  /// the schemes run with run-local levels (the facade re-normalizes
  /// the carrier parity so the current level always sits in a_), and
  /// the LevelOrigin turns them back into absolute levels for
  /// time-dependent operators.
  RunStats advance_baseline_steps(int steps, int base) {
    state_.set_level_base(base);
    RunStats st = baseline_->run(a_, b_, steps, 0);
    if (steps % 2 != 0) std::swap(a_, b_);
    return st;
  }

  /// Whole team sweeps of the configured temporally blocked scheme.
  RunStats advance_blocked_sweeps(int sweeps, int base) {
    state_.set_level_base(base);
    if (compressed_) {
      compressed_->load(a_, team());
      RunStats st = compressed_->run(sweeps);
      compressed_->store(a_, team());
      return st;
    }
    RunStats st = pipelined_->run(a_, b_, sweeps, 0);
    if ((sweeps * cfg_.pipeline.levels_per_sweep()) % 2 != 0)
      std::swap(a_, b_);
    return st;
  }

  SolverConfig cfg_;
  bool windowed_;
  OpState<Op> state_;
  int nx_, ny_, nz_;
  Grid3 a_, b_;

  std::unique_ptr<BaselineSolver<Op>> baseline_;
  std::unique_ptr<PipelinedSolver<Op>> pipelined_;
  std::unique_ptr<CompressedSolver<Op>> compressed_;
};

StencilSolver::StencilSolver(const SolverConfig& cfg,
                             const GridSource& initial)
    : StencilSolver(cfg, initial, GridSource()) {}

StencilSolver::StencilSolver(const SolverConfig& cfg,
                             const GridSource& initial,
                             const GridSource& kappa,
                             const GridWindow* window) {
  if (cfg.telemetry) obs::set_enabled(true);
  if (window != nullptr && (cfg.variant != Variant::kPipelined ||
                            cfg.pipeline.scheme != GridScheme::kTwoGrid))
    throw std::invalid_argument(
        "StencilSolver: a rank window runs the pipelined two-grid variant "
        "only");
  // Stateless operators (and lbm with its default cavity geometry)
  // ignore the auxiliary field.
  const bool needs_aux =
      cfg.op == Operator::kVarCoef ||
      (cfg.op == Operator::kLbm && cfg.lbm_geometry_from_aux);
  if (needs_aux && !kappa)
    throw std::invalid_argument(
        cfg.op == Operator::kVarCoef
            ? "StencilSolver: the varcoef operator needs a kappa field"
            : "StencilSolver: lbm_geometry_from_aux needs the geometry-code "
              "grid");
  if (needs_aux && !kappa.same_shape(initial.nx(), initial.ny(), initial.nz()))
    throw std::invalid_argument(
        "StencilSolver: kappa shape must match the initial grid");
  switch (cfg.op) {
    case Operator::kJacobi:
      impl_ = std::make_unique<OpImpl<JacobiOp>>(cfg, initial,
                                                 OpState<JacobiOp>{}, window);
      return;
    case Operator::kBox27:
      impl_ = std::make_unique<OpImpl<Box27Op>>(cfg, initial,
                                                OpState<Box27Op>{}, window);
      return;
    case Operator::kRedBlack: {
      // The two-color update colors cells by their GLOBAL coordinate sum.
      OpState<RedBlackOp> s;
      if (window != nullptr)
        s.parity = (window->origin[0] + window->origin[1] +
                    window->origin[2]) & 1;
      impl_ = std::make_unique<OpImpl<RedBlackOp>>(cfg, initial, std::move(s),
                                                   window);
      return;
    }
    case Operator::kLbm: {
      // Unfilled: OpImpl fills the lattices on its team.
      lbm::LbmState s(cfg.lbm_geometry_from_aux
                          ? lbm::geometry_from_codes(kappa)
                          : lbm::Geometry::cavity(initial.nx(), initial.ny(),
                                                  initial.nz()),
                      cfg.lbm, cfg.lbm_storage);
      s.prefetch = cfg.lbm_prefetch;
      impl_ = std::make_unique<OpImpl<lbm::LbmOp>>(
          cfg, initial, OpState<lbm::LbmOp>{std::move(s)}, window);
      return;
    }
    case Operator::kVarCoef:
      impl_ = std::make_unique<OpImpl<VarCoefOp>>(
          cfg, initial,
          OpState<VarCoefOp>{with_grid(kappa, [](const Grid3& k) {
            return DiffusionCoefficients(k);
          })},
          window);
      return;
  }
  throw std::invalid_argument("StencilSolver: unknown operator");
}

StencilSolver::~StencilSolver() = default;
StencilSolver::StencilSolver(StencilSolver&&) noexcept = default;
StencilSolver& StencilSolver::operator=(StencilSolver&&) noexcept = default;

void StencilSolver::reset(const GridSource& initial) {
  impl_->reset(initial, nullptr);
  levels_done_ = 0;
}

void StencilSolver::reset(const GridSource& initial,
                          const GridSource& kappa) {
  impl_->reset(initial, &kappa);
  levels_done_ = 0;
}

RunStats StencilSolver::advance(int steps) {
  if (steps < 0) throw std::invalid_argument("advance: negative steps");
  const RunStats st = impl_->advance(steps, levels_done_);
  levels_done_ += steps;
  return st;
}

const Grid3& StencilSolver::solution() const { return impl_->solution(); }

const lbm::LbmState* StencilSolver::lbm_state() const {
  return impl_->lbm_state();
}

const SolverConfig& StencilSolver::config() const { return impl_->config(); }

std::vector<Grid3*> StencilSolver::level_grids() {
  return impl_->level_grids(levels_done_);
}

}  // namespace tb::core
