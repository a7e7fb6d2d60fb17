#include "core/session.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/registry.hpp"

namespace tb::core {

struct SolverSession::Impl {
  SessionOptions opts;
  // Keyed by fingerprint(); std::map keeps iteration deterministic and
  // pointers stable (SolveResult::solver survives later insertions).
  std::map<std::string, std::unique_ptr<StencilSolver>> pool;
  std::uint64_t created = 0;
  std::uint64_t reused = 0;
};

SolverSession::SolverSession(SessionOptions opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->opts = std::move(opts);
}

SolverSession::~SolverSession() = default;
SolverSession::SolverSession(SolverSession&&) noexcept = default;
SolverSession& SolverSession::operator=(SolverSession&&) noexcept = default;

std::string SolverSession::fingerprint(const SolveRequest& req) {
  if (!req.initial)
    throw std::invalid_argument(
        "SolverSession: SolveRequest.initial must not be null");
  const SolverConfig& c = req.cfg;
  std::ostringstream os;
  // Everything that decides allocation or results — and nothing that
  // doesn't (grid contents are replayed through reset, steps through
  // advance).
  os << req.initial.nx() << 'x' << req.initial.ny() << 'x'
     << req.initial.nz() << '|' << req.variant << '|' << req.op << '|'
     << static_cast<bool>(req.aux) << '|';
  const PipelineConfig& p = c.pipeline;
  os << p.teams << ',' << p.team_size << ',' << p.steps_per_thread << ','
     << p.block.bx << ',' << p.block.by << ',' << p.block.bz << ',' << p.dl
     << ',' << p.du << ',' << p.dt << ',' << static_cast<int>(p.sync) << ','
     << static_cast<int>(p.scheme) << '|';
  const BaselineConfig& b = c.baseline;
  os << b.threads << ',' << b.block.bx << ',' << b.block.by << ','
     << b.block.bz << ',' << b.nontemporal << ','
     << static_cast<int>(b.placement) << '|';
  os << c.wavefront.threads << '|';
  os << c.lbm.omega << ',' << c.lbm.rho0 << ',' << c.lbm.lid_velocity[0]
     << ',' << c.lbm.lid_velocity[1] << ',' << c.lbm.lid_velocity[2] << ','
     << static_cast<int>(c.lbm_storage) << ',' << c.lbm_geometry_from_aux
     << ',' << c.lbm_prefetch;
  return os.str();
}

namespace {

/// The request with an unset pipeline depth resolved for its step count
/// (resolve_depth), so the pool key names the plan that runs and a
/// replay of the same fields hits the same solver.  Meta variants pick
/// their own depth; unknown names are left for Registry::make to reject.
SolveRequest with_depth(const SolveRequest& in) {
  SolveRequest req = in;
  SolverConfig probe = req.cfg;
  if (apply_variant(probe, req.variant) && probe.meta.empty() &&
      apply_operator(probe, req.op)) {
    resolve_depth(probe.pipeline, operator_name(probe), req.steps);
    req.cfg.pipeline.steps_per_thread = probe.pipeline.steps_per_thread;
  }
  return req;
}

}  // namespace

SolveResult SolverSession::solve(const SolveRequest& request) {
  const SolveRequest req = with_depth(request);
  const std::string key = fingerprint(req);
  obs::Registry& reg = obs::Registry::global();

  SolveResult out;
  const auto it = impl_->pool.find(key);
  if (it != impl_->pool.end()) {
    // Pool hit: rewind in place.  For the "auto" meta variant this is
    // where the zero-probe guarantee comes from — the solver already
    // carries its resolved plan, so no plan() call happens at all.
    StencilSolver& s = *it->second;
    if (req.aux)
      s.reset(req.initial, req.aux);
    else
      s.reset(req.initial);
    out.stats = s.advance(req.steps);
    out.solver = &s;
    out.reused = true;
    ++impl_->reused;
    reg.counter("session.solver.reuse").add(1);
    return out;
  }

  SolverConfig cfg = req.cfg;
  if (impl_->opts.telemetry) cfg.telemetry = true;
  if (!impl_->opts.tune_cache_path.empty())
    cfg.tune_cache_path = impl_->opts.tune_cache_path;
  auto solver = std::make_unique<StencilSolver>(Registry::global().make(
      req.variant, req.op, std::move(cfg), req.initial, req.aux));
  out.stats = solver->advance(req.steps);
  ++impl_->created;
  reg.counter("session.solver.create").add(1);

  const bool pool_full = impl_->opts.max_solvers != 0 &&
                         impl_->pool.size() >= impl_->opts.max_solvers;
  if (pool_full) {
    // Bounded arena: the solve is still correct, the solver just dies
    // with this call instead of joining the pool.
    out.solver = nullptr;
    out.reused = false;
    return out;
  }
  StencilSolver* raw = solver.get();
  impl_->pool.emplace(key, std::move(solver));
  out.solver = raw;
  out.reused = false;
  return out;
}

std::size_t SolverSession::pool_size() const { return impl_->pool.size(); }
std::uint64_t SolverSession::solvers_created() const {
  return impl_->created;
}
std::uint64_t SolverSession::solvers_reused() const { return impl_->reused; }
const SessionOptions& SolverSession::options() const { return impl_->opts; }

}  // namespace tb::core
