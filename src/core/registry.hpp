// Unified variant/operator registry: every (variant x operator)
// combination of the solver stack is constructible from string names.
//
// Variant names add one pseudo-variant on top of the Variant enum:
// "compressed" selects the pipelined schedule with the compressed-grid
// storage scheme (the facade treats storage as a pipeline tunable, but
// sweeps, benches and CLIs want it as a first-class row of the matrix).
//
//   reference | baseline | pipelined | compressed | wavefront
//     x
//   jacobi | varcoef | box27 | redblack | lbm | lbm:aa
//
// "lbm:aa" is the lbm operator under the in-place AA storage policy
// (SolverConfig::lbm_storage) — same physics, half the lattice bytes;
// shared-memory only (the dist registry rejects it).
//
// The registry is the single source of truth for the names: the
// examples' --variant/--operator flags, the autotuner's validation
// matrix, the bench sweep and the equivalence test suite all enumerate
// it instead of hardcoding subsets.
//
// On top of the concrete variants, *meta variants* are pluggable
// resolvers registered at runtime (e.g. "auto", installed by the
// src/tune/ subsystem): selecting one routes make_solver through a
// factory that picks and configures a concrete variant.  Meta variants
// are selectable (accepted by --variant and make_solver) but not
// enumerable through registered_variants(), so sweeps and equivalence
// matrices never trigger a tuning run by accident.
#pragma once

#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.hpp"

namespace tb::core {

// ---- meta variants ----------------------------------------------------

/// Resolver behind a meta variant: receives the operator name, the
/// caller's config (with cfg.meta already cleared, so calling back into
/// make_solver with a concrete name cannot recurse), the level-0 source
/// and the kappa field (empty when there is none), and returns a fully
/// constructed solver.
using MetaVariantFactory = std::function<StencilSolver(
    std::string_view op, SolverConfig cfg, const GridSource& initial,
    const GridSource& kappa)>;

/// Explicit, re-entrant variant/operator registry object.
///
/// The concrete (variant x operator) matrix is immutable data; what used
/// to hide in a function-local static — the mutable meta-variant factory
/// map — lives here behind a shared mutex, so concurrent registration and
/// lookup (a session pool resolving "auto" on several threads while a
/// late subsystem installs its resolver) are well-defined.  make() copies
/// the factory out under the lock and invokes it unlocked: a meta factory
/// that re-enters make() (the normal case — "auto" resolves to a concrete
/// name and recurses) cannot deadlock.
///
/// The process-global instance behind Registry::global() serves the
/// free-function shims below, which remain the convenient spelling for
/// CLI code; anything that wants isolation (tests, embedded services)
/// owns a Registry of its own.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-global registry (what the free functions delegate to).
  [[nodiscard]] static Registry& global();

  /// All constructible concrete variant names, in canonical (sweep) order.
  [[nodiscard]] const std::vector<std::string>& variants() const;

  /// All constructible operator names, in canonical (sweep) order.
  [[nodiscard]] const std::vector<std::string>& operators() const;

  /// Registers (or replaces) a meta variant under `name`.  Names must not
  /// collide with concrete variant names.  Thread-safe.
  void register_meta(const std::string& name, MetaVariantFactory fn);

  /// Currently registered meta-variant names, in registration order.
  /// By value: a reference into the map would race with concurrent
  /// registration.
  [[nodiscard]] std::vector<std::string> meta_variants() const;

  /// True when `name` resolves through a registered meta factory.
  [[nodiscard]] bool is_meta(std::string_view name) const;

  /// Concrete + meta names — the valid values of a --variant flag.
  [[nodiscard]] std::vector<std::string> selectable() const;

  /// Constructs a solver from registry names (see the make_solver shim
  /// below for the full contract).
  [[nodiscard]] StencilSolver make(std::string_view variant,
                                   std::string_view op, SolverConfig cfg,
                                   const GridSource& initial,
                                   const GridSource& kappa = {}) const;

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, MetaVariantFactory> factories_;
  std::vector<std::string> meta_names_;  ///< registration order
};

// ---- free-function shims over Registry::global() ----------------------

/// All constructible variant names, in canonical (sweep) order.
[[nodiscard]] const std::vector<std::string>& registered_variants();

/// All constructible operator names, in canonical (sweep) order.
[[nodiscard]] const std::vector<std::string>& registered_operators();

/// Sets cfg.variant (and, for "compressed"/"pipelined", the pipeline
/// storage scheme) from a registry name.  Returns false on unknown names.
bool apply_variant(SolverConfig& cfg, std::string_view name);

/// Sets cfg.op from a registry name.  Returns false on unknown names.
bool apply_operator(SolverConfig& cfg, std::string_view name);

/// Registry name of the configured variant ("compressed" when the
/// pipelined variant uses the compressed-grid scheme).
[[nodiscard]] std::string variant_name(const SolverConfig& cfg);

/// Registry name of the configured operator ("lbm:aa" when the lbm
/// operator uses the in-place AA storage policy).
[[nodiscard]] std::string operator_name(const SolverConfig& cfg);

/// Constructs a solver from registry names.  `initial` is a grid or any
/// GridSource.  `kappa` (a grid, a source, or nullptr / empty for none)
/// supplies the auxiliary per-cell field for operators that take one:
/// the material field of "varcoef" (required), the geometry codes of
/// "lbm" when cfg.lbm_geometry_from_aux is set (required then; with the
/// default cavity geometry "lbm" ignores it, like
/// "jacobi"/"box27"/"redblack" do).  Meta-variant names resolve through their registered factory.
/// Throws std::invalid_argument on unknown names or a missing kappa.
[[nodiscard]] StencilSolver make_solver(std::string_view variant,
                                        std::string_view op,
                                        SolverConfig cfg,
                                        const GridSource& initial,
                                        const GridSource& kappa = {});

/// Registers (or replaces) a meta variant under `name` in the global
/// registry.  Names must not collide with concrete variant names.
void register_meta_variant(const std::string& name, MetaVariantFactory fn);

/// Currently registered meta-variant names, in registration order.  By
/// value (a reference would race with concurrent registration).
[[nodiscard]] std::vector<std::string> registered_meta_variants();

/// Concrete + meta names — the valid values of a --variant flag.
[[nodiscard]] std::vector<std::string> selectable_variants();

}  // namespace tb::core
