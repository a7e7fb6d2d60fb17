// String-registry access to the distributed solver, mirroring
// core/registry.hpp for the rank-parallel layer: every registry operator
// is constructible as a DistributedStencil by name, so CLIs and sweeps
// select the distributed matrix with the same strings as the
// shared-memory one.
//
// The variant-string convention is a "dist:" prefix on the operator
// ("dist:jacobi", "dist:varcoef", "dist:lbm"): the distributed solver
// always runs the pipelined scheme rank-locally (its per-level shrink
// into the ghost layers is the pipelined geometry), so the operator is
// the axis that varies.
#pragma once

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "dist/distributed.hpp"

namespace tb::dist {

/// The name the registry hands out: one class serves every operator.
using AnyDistributed = DistributedStencil;

/// True for "dist:<operator>" variant strings.
[[nodiscard]] inline bool is_dist_variant(std::string_view name) {
  return name.rfind("dist:", 0) == 0;
}

/// The operator part of a "dist:<operator>" string (unvalidated).
[[nodiscard]] inline std::string_view dist_operator(std::string_view name) {
  return is_dist_variant(name) ? name.substr(5) : name;
}

/// One-line auxiliary-field requirement of a registry operator, for error
/// messages and CLIs ("" for operators that take none).  The aux grid is
/// the `kappa`/`aux` argument of make_distributed: the material field of
/// "varcoef" (always required), the per-cell geometry codes of "lbm"
/// (required when DistConfig::lbm_geometry_from_aux is set; the default
/// lid-driven cavity needs none).
[[nodiscard]] inline std::string_view dist_aux_requirement(
    std::string_view op) {
  const std::string_view bare = dist_operator(op);
  if (bare == "varcoef") return "requires the global kappa aux grid";
  if (bare == "lbm")
    return "takes geometry-code aux (required with lbm_geometry_from_aux)";
  return "";
}

/// All registered distributed variant names ("dist:" x operators).
/// Every listed name is constructible through make_distributed with the
/// same arguments — operators with an auxiliary field document it via
/// dist_aux_requirement() and fail loudly when it is missing.
/// ':'-qualified storage-policy aliases ("lbm:aa") are skipped: they are
/// shared-memory only (the AA stream step pushes into the ghost ring,
/// which the ghost exchange cannot transport back), so no distributed
/// counterpart exists.
[[nodiscard]] inline std::vector<std::string> registered_dist_variants() {
  std::vector<std::string> names;
  for (const std::string& op : core::registered_operators())
    if (op.find(':') == std::string::npos) names.push_back("dist:" + op);
  return names;
}

/// Constructs the distributed solver for a registry operator name (bare
/// "jacobi" or prefixed "dist:jacobi").  `aux` is the operator's *global*
/// auxiliary per-cell field where one exists: the kappa material field of
/// "varcoef" (required), the geometry codes of "lbm" when
/// cfg.lbm_geometry_from_aux is set (required then; the default
/// lid-driven cavity geometry needs none) — the stateless operators
/// ignore it.  Throws std::invalid_argument on unknown names or a
/// missing/ill-shaped aux field.
[[nodiscard]] inline std::unique_ptr<AnyDistributed> make_distributed(
    std::string_view op, simnet::Comm& comm, const DistConfig& cfg,
    const core::Grid3& initial, const core::Grid3* aux = nullptr) {
  const std::string_view bare = dist_operator(op);
  core::SolverConfig parsed;
  if (!core::apply_operator(parsed, bare)) {
    std::ostringstream os;
    os << "unknown distributed operator '" << bare << "' (valid:";
    for (const std::string& name : registered_dist_variants()) {
      os << " " << name;
      const std::string_view req = dist_aux_requirement(name);
      if (!req.empty()) os << " [" << req << "]";
    }
    os << ")";
    throw std::invalid_argument(os.str());
  }
  if (parsed.lbm_storage != lbm::LbmStorage::kTwoLattice)
    throw std::invalid_argument(
        "make_distributed: 'lbm:aa' is shared-memory only — the AA "
        "stream step pushes distributions INTO the ghost ring, which the "
        "exchange of the current level's grids cannot transport back; run "
        "'dist:lbm' (two-lattice) instead");
  return std::make_unique<DistributedStencil>(parsed.op, comm, cfg, initial,
                                              aux);
}

/// Convenience driver: runs `epochs` epochs of operator `op` on a fresh
/// `ranks`-rank World and gathers the final state into `*out` (pre-sized
/// to the global shape, boundary already present).  `state_out`, when
/// non-null, additionally receives the operator's gathered state fields
/// (the final-level distribution lattice for "lbm"; left empty for
/// carrier-only operators).
inline void run_distributed_named(std::string_view op, int ranks,
                                  const DistConfig& cfg,
                                  const core::Grid3& initial, int epochs,
                                  core::Grid3* out,
                                  const core::Grid3* aux = nullptr,
                                  std::vector<core::Grid3>* state_out =
                                      nullptr) {
  simnet::World world(ranks);
  world.run([&](simnet::Comm& comm) {
    std::unique_ptr<AnyDistributed> solver =
        make_distributed(op, comm, cfg, initial, aux);
    solver->advance(epochs);
    solver->gather(comm.rank() == 0 ? out : nullptr, 0);
    if (state_out != nullptr)
      solver->gather_state(comm.rank() == 0 ? state_out : nullptr, 0);
  });
}

}  // namespace tb::dist
