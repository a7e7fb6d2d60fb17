#include "core/registry.hpp"

#include <mutex>
#include <sstream>
#include <stdexcept>

namespace tb::core {

namespace {

std::string join(const std::vector<std::string>& names) {
  std::ostringstream os;
  for (std::size_t i = 0; i < names.size(); ++i)
    os << (i ? "|" : "") << names[i];
  return os.str();
}

[[noreturn]] void throw_unknown(const char* axis, std::string_view name,
                                const std::vector<std::string>& valid) {
  std::ostringstream os;
  os << "unknown " << axis << " '" << name << "' (valid: " << join(valid)
     << ")";
  throw std::invalid_argument(os.str());
}

}  // namespace

Registry& Registry::global() {
  // Function-local static for a race-free first use during static
  // initialization (tb_tune's auto_variant.cpp registers "auto" from a
  // static initializer in another translation unit).
  static Registry instance;
  return instance;
}

const std::vector<std::string>& Registry::variants() const {
  static const std::vector<std::string> kNames{
      "reference", "baseline", "pipelined", "compressed", "wavefront"};
  return kNames;
}

const std::vector<std::string>& Registry::operators() const {
  static const std::vector<std::string> kNames{"jacobi", "varcoef", "box27",
                                               "redblack", "lbm", "lbm:aa"};
  return kNames;
}

void Registry::register_meta(const std::string& name,
                             MetaVariantFactory fn) {
  for (const std::string& concrete : variants())
    if (name == concrete)
      throw std::invalid_argument("register_meta_variant: '" + name +
                                  "' is a concrete variant name");
  const std::unique_lock lock(mu_);
  if (!factories_.contains(name)) meta_names_.push_back(name);
  factories_[name] = std::move(fn);
}

std::vector<std::string> Registry::meta_variants() const {
  const std::shared_lock lock(mu_);
  return meta_names_;
}

bool Registry::is_meta(std::string_view name) const {
  const std::shared_lock lock(mu_);
  return factories_.contains(std::string(name));
}

std::vector<std::string> Registry::selectable() const {
  std::vector<std::string> names = variants();
  const std::shared_lock lock(mu_);
  for (const std::string& m : meta_names_) names.push_back(m);
  return names;
}

StencilSolver Registry::make(std::string_view variant, std::string_view op,
                             SolverConfig cfg, const GridSource& initial,
                             const GridSource& kappa) const {
  // Copy the factory out under the lock and call it unlocked: meta
  // factories re-enter make() with the concrete name they resolved to.
  MetaVariantFactory factory;
  {
    const std::shared_lock lock(mu_);
    const auto it = factories_.find(std::string(variant));
    if (it != factories_.end()) factory = it->second;
  }
  if (factory) {
    if (!apply_operator(cfg, op))
      throw_unknown("operator", op, operators());
    cfg.meta.clear();
    return factory(op, std::move(cfg), initial, kappa);
  }
  if (!apply_variant(cfg, variant))
    throw_unknown("variant", variant, selectable());
  if (!apply_operator(cfg, op)) throw_unknown("operator", op, operators());
  return StencilSolver(cfg, initial, kappa);
}

// ---- free-function shims ----------------------------------------------

const std::vector<std::string>& registered_variants() {
  return Registry::global().variants();
}

const std::vector<std::string>& registered_operators() {
  return Registry::global().operators();
}

void register_meta_variant(const std::string& name, MetaVariantFactory fn) {
  Registry::global().register_meta(name, std::move(fn));
}

std::vector<std::string> registered_meta_variants() {
  return Registry::global().meta_variants();
}

std::vector<std::string> selectable_variants() {
  return Registry::global().selectable();
}

bool apply_variant(SolverConfig& cfg, std::string_view name) {
  if (name == "reference") {
    cfg.variant = Variant::kReference;
  } else if (name == "baseline") {
    cfg.variant = Variant::kBaseline;
  } else if (name == "pipelined") {
    cfg.variant = Variant::kPipelined;
    cfg.pipeline.scheme = GridScheme::kTwoGrid;
  } else if (name == "compressed") {
    cfg.variant = Variant::kPipelined;
    cfg.pipeline.scheme = GridScheme::kCompressed;
  } else if (name == "wavefront") {
    cfg.variant = Variant::kWavefront;
  } else if (Registry::global().is_meta(name)) {
    // Resolution needs the problem (grid shape), which only make_solver
    // sees; until then the config just remembers the request.
    cfg.meta = std::string(name);
    return true;
  } else {
    return false;
  }
  cfg.meta.clear();
  return true;
}

bool apply_operator(SolverConfig& cfg, std::string_view name) {
  if (name == "jacobi") {
    cfg.op = Operator::kJacobi;
  } else if (name == "varcoef") {
    cfg.op = Operator::kVarCoef;
  } else if (name == "box27") {
    cfg.op = Operator::kBox27;
  } else if (name == "redblack") {
    cfg.op = Operator::kRedBlack;
  } else if (name == "lbm") {
    // Deliberately leaves cfg.lbm_storage untouched: "lbm" names the
    // operator, the storage policy is a config knob (the tuner probes
    // candidates whose cfg carries either policy under this one name).
    cfg.op = Operator::kLbm;
  } else if (name == "lbm:aa") {
    cfg.op = Operator::kLbm;
    cfg.lbm_storage = lbm::LbmStorage::kAA;
  } else {
    return false;
  }
  return true;
}

std::string operator_name(const SolverConfig& cfg) {
  if (cfg.op == Operator::kLbm &&
      cfg.lbm_storage == lbm::LbmStorage::kAA)
    return "lbm:aa";
  return to_string(cfg.op);
}

std::string variant_name(const SolverConfig& cfg) {
  if (!cfg.meta.empty()) return cfg.meta;
  if (cfg.variant == Variant::kPipelined &&
      cfg.pipeline.scheme == GridScheme::kCompressed)
    return "compressed";
  return to_string(cfg.variant);
}

StencilSolver make_solver(std::string_view variant, std::string_view op,
                          SolverConfig cfg, const GridSource& initial,
                          const GridSource& kappa) {
  return Registry::global().make(variant, op, std::move(cfg), initial,
                                 kappa);
}

}  // namespace tb::core
