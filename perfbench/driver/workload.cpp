// The workloads: requests in a closed loop with one client.
//
//   ooc-jacobi          scenario::ScenarioEngine::run_case, the path
//                       run_scenario users get (the engine builds the
//                       input grids and reports the solution mean)
//   lbm-cavity          core::SolverSession::solve, the library API the
//                       engine sits on (the client holds its inputs)
//
// The request list is a scenario file whose case names carry
// "r<round>/e<engine>/...": each engine id gets a fresh engine or session
// (so its first request per key pays construction) and each round a
// fresh tuning cache (so "auto" pays its probes once per round).  Rounds
// run whole, while they fit in the measurement window.  Cases named
// "ladder/..." are not requests: they name the representative problem
// the traced run's layer probes use.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>

#include "bench.hpp"
#include "check.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "obs/accounting.hpp"
#include "obs/obs.hpp"
#include "oracle_store.hpp"
#include "perfmodel/model_api.hpp"
#include "scenario/grids.hpp"
#include "scenario/scenario_config.hpp"
#include "scenario/scenario_engine.hpp"
#include "topo/machine.hpp"
#include "tune/planner.hpp"
#include "util/aligned_buffer.hpp"

namespace perfbench {
namespace {

using tb::core::Grid3;
using tb::scenario::CaseSpec;

/// The SolverConfig ScenarioEngine builds for a case (scenario_engine.cpp
/// config_for); the session workloads use it too, so both paths run the
/// tunables run_scenario users get.  The ooc replay check only hits the
/// engine's pooled solver when this matches field for field, so a drift
/// shows up as a failed check, never as a silently different solve.
tb::core::SolverConfig engine_config(const CaseSpec& spec) {
  tb::core::SolverConfig cfg;
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = spec.threads;
  cfg.pipeline.block = {spec.nx, 16, 16};
  cfg.baseline.threads = spec.threads;
  cfg.wavefront.threads = spec.threads;
  cfg.lbm.omega = spec.omega;
  cfg.lbm.lid_velocity = {spec.ulid, 0.0, 0.0};
  cfg.lbm_geometry_from_aux = tb::scenario::geometry_is_codes(spec);
  return cfg;
}

/// The in-place AA storage is bit-identical to the two-lattice lbm by
/// contract, so both are checked against the two-lattice reference.
std::string oracle_op(const std::string& op) {
  return op == "lbm:aa" ? "lbm" : op;
}

std::string shape_of(const CaseSpec& s) {
  return std::to_string(s.nx) + "x" + std::to_string(s.ny) + "x" +
         std::to_string(s.nz);
}

std::string oracle_key(const CaseSpec& s) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "|%d|%.17g|%.17g|%.17g", s.steps, s.omega,
                s.ulid, s.kfiber);
  return oracle_op(s.op) + "|" + shape_of(s) + "|" + s.initial + "|" +
         tb::scenario::resolve_geometry(s) + buf;
}

struct Inputs {
  Grid3 initial;
  std::optional<Grid3> aux;
  const Grid3* aux_ptr() const { return aux ? &*aux : nullptr; }
};

Inputs make_inputs(const CaseSpec& spec) {
  return {tb::scenario::make_initial(spec), tb::scenario::make_aux(spec)};
}

tb::core::SolveRequest make_request(const CaseSpec& spec, const Inputs& in) {
  tb::core::SolveRequest req;
  req.variant = spec.variant;
  req.op = spec.op;
  req.cfg = engine_config(spec);
  req.initial = &in.initial;
  req.aux = in.aux_ptr();
  req.steps = spec.steps;
  return req;
}

/// Reference solutions as the measured process sees them: each key's
/// stored mean, kept in memory, and whole-solution comparisons streamed
/// from the store, so no reference grid is ever resident here.  The
/// --prepare process (prepare_references) stores them beforehand; one it
/// did not store fails the request's check.
class Oracles {
 public:
  explicit Oracles(const std::string& dir) : store_(dir) {}

  std::optional<double> mean(const CaseSpec& spec) {
    const std::string key = oracle_key(spec);
    auto it = means_.find(key);
    if (it == means_.end())
      it = means_.emplace(key, store_.mean(key, spec.nx, spec.ny, spec.nz)).first;
    return it->second;
  }

  [[nodiscard]] std::string compare(const CaseSpec& spec, const Grid3& got) const {
    return store_.compare(oracle_key(spec), got);
  }

 private:
  OracleStore store_;
  std::map<std::string, std::optional<double>> means_;
};

/// What the model says about the config a pooled solver resolved to.
struct Resolved {
  std::string variant;
  std::string config;  ///< the pipeline tunables, for the pipelined schedules
  double predicted_mlups = 0.0;
  double bytes_per_lup = 0.0;  ///< modeled, per the resolved config
};

Resolved resolve(const tb::core::StencilSolver& s, const CaseSpec& spec,
                 const tb::perfmodel::NodeModel& model) {
  const tb::core::SolverConfig& cfg = s.config();
  const std::string v = tb::core::variant_name(cfg);
  return {v, v == "pipelined" || v == "compressed" ? cfg.pipeline.describe() : v,
          tb::obs::predicted_solver_mlups(cfg, spec.op, model, spec.nx, spec.ny),
          tb::obs::model_bytes_per_lup(cfg, spec.op)};
}

/// One timed request and what the checks made of it.
struct Outcome {
  double wall_s = 0.0;
  double advance_s = 0.0;
  long long lups = 0;
  bool first = false;
  Resolved resolved;
  bool ok = false;
  std::string detail;
  JsonObject extra;
};

/// ooc-jacobi: one run_case.  The engine reports only the solution mean,
/// which is compared bitwise with the reference's on every request.
Outcome engine_request(tb::scenario::ScenarioEngine& engine, const CaseSpec& spec,
                       Oracles& oracles, Recorder& rec, long long id) {
  Outcome out;
  tb::scenario::CaseResult res;
  {
    Recorder::Span span(rec, "ScenarioEngine::run_case", "scenario", id);
    try {
      res = engine.run_case(spec);
    } catch (const std::exception& e) {
      out.detail = e.what();
    }
    out.wall_s = span.finish();
  }
  out.advance_s = res.stats.seconds;
  out.lups = res.stats.cell_updates;
  out.first = !res.reused;
  if (out.detail.empty()) {
    const std::optional<double> want = oracles.mean(spec);
    if (!want)
      out.detail = "reference missing";
    else if (!same_bits(res.mean, *want))
      out.detail = "solution mean differs from the reference";
  }
  out.ok = out.detail.empty();
  return out;
}

/// A first-seen ooc-jacobi key is replayed through the engine's own
/// session -- a pool hit on the solver the engine just built, outside the
/// request's span and registry delta -- and its whole solution compared
/// bit for bit.  The config it resolved to is kept for the key's hits.
/// The replay's input grid is freed before the next request.
void check_engine_key(tb::scenario::ScenarioEngine& engine, const CaseSpec& spec,
                      const Oracles& oracles, const tb::perfmodel::NodeModel& model,
                      std::map<std::string, Resolved>& resolved_by_key,
                      Recorder& rec, long long id, Outcome& out) {
  const std::string key = spec.variant + "|" + oracle_key(spec);
  if (out.ok && out.first) {
    const Inputs in = make_inputs(spec);
    Recorder::Span span(rec, "SolverSession::solve", "core.session", id);
    const tb::core::SolveResult replay = engine.session().solve(make_request(spec, in));
    out.extra.num("replay_wall_s", span.finish())
        .num("replay_advance_s", replay.stats.seconds);
    if (!replay.reused || replay.solver == nullptr)
      out.detail = "replay missed the engine's pooled solver (config drift)";
    else
      out.detail = oracles.compare(spec, replay.solver->solution());
    out.ok = out.detail.empty();
    if (out.ok) resolved_by_key[key] = resolve(*replay.solver, spec, model);
  }
  out.resolved = resolved_by_key[key];
}

/// lbm-cavity: one SolverSession::solve on inputs the client
/// already holds, compared bit for bit with the reference every time.
Outcome session_request(tb::core::SolverSession& session, const CaseSpec& spec,
                        const Inputs& in, const Oracles& oracles,
                        const tb::perfmodel::NodeModel& model, Recorder& rec,
                        long long id) {
  Outcome out;
  tb::core::SolveResult solved;
  {
    Recorder::Span span(rec, "SolverSession::solve", "core.session", id);
    try {
      solved = session.solve(make_request(spec, in));
    } catch (const std::exception& e) {
      out.detail = e.what();
    }
    out.wall_s = span.finish();
  }
  out.advance_s = solved.stats.seconds;
  out.lups = solved.stats.cell_updates;
  out.first = !solved.reused;
  if (!out.detail.empty()) return out;
  if (solved.solver == nullptr) {
    out.detail = "session returned no solver";
    return out;
  }
  out.detail = oracles.compare(spec, solved.solver->solution());
  out.resolved = resolve(*solved.solver, spec, model);
  out.ok = out.detail.empty();
  return out;
}

void record(Recorder& rec, Outcome& o, const CaseSpec& spec, long long id, int round,
            int engine, bool traced, bool ladder,
            const std::map<std::string, double>& reg, std::uint64_t allocs) {
  if (!o.ok) rec.add_check("request " + spec.name, false, o.detail);
  rec.add_request(o.extra.integer("id", id)
                      .integer("round", round)
                      .integer("engine", engine)
                      .str("name", spec.name)
                      .str("op", spec.op)
                      .str("variant", spec.variant)
                      .str("resolved", o.resolved.variant)
                      .str("resolved_config", o.resolved.config)
                      .str("shape", shape_of(spec))
                      .integer("steps", spec.steps)
                      .integer("threads", spec.threads)
                      .boolean("first", o.first)
                      .boolean("traced", traced)
                      .boolean("ladder", ladder)
                      .num("wall_s", o.wall_s)
                      .num("advance_s", o.advance_s)
                      .integer("lups", o.lups)
                      .num("predicted_mlups", o.resolved.predicted_mlups)
                      .num("bytes_per_lup", o.resolved.bytes_per_lup)
                      .integer("allocs", static_cast<long long>(allocs))
                      .boolean("ok", o.ok)
                      .str("error", o.detail)
                      .raw("reg", json_map(reg)));
}

/// Registry and allocation deltas around one call.
template <class F>
Outcome measured(F&& call, std::map<std::string, double>& reg, std::uint64_t& allocs) {
  const auto before = registry_values();
  const std::uint64_t allocs0 = tb::util::buffer_alloc_count();
  Outcome o = call();
  allocs = tb::util::buffer_alloc_count() - allocs0;
  reg = registry_diff(registry_values(), before);
  return o;
}

std::size_t working_set_bytes(const CaseSpec& s) {
  const std::size_t cells = static_cast<std::size_t>(s.nx) * s.ny * s.nz;
  if (s.op == "lbm:aa") return cells * 19 * sizeof(double);  // one lattice
  if (s.op == "lbm") return cells * 38 * sizeof(double);     // two lattices
  return cells * 2 * sizeof(double);                         // two grids
}

/// Traced runs only: direct calls into the layers the requests reach only
/// from inside (StencilSolver ctor/reset/advance, bench_variants' tunables,
/// a session hit, a run_case hit, tune::plan cold and cached) on the
/// representative problem `rep`, recorded as the "ladder" section; plus
/// traced ladder requests for every schedule missing from `variants_seen`.
void run_layer_probes(const Options& opt, Recorder& rec, const CaseSpec& rep,
                      const std::set<std::string>& variants_seen, long long id) {
  const tb::perfmodel::NodeModel model(tb::topo::host_machine());
  const Oracles oracles(opt.work_dir + "/oracles");
  tb::obs::set_enabled(true);
  JsonObject ladder;
  CaseSpec base = rep;
  base.variant = "pipelined";
  const Inputs in = make_inputs(base);
  {  // facade: StencilSolver construction, reset, advance
    tb::core::SolverConfig cfg = engine_config(base);
    double construct_s = 0.0, reset_s = 0.0;
    std::optional<tb::core::StencilSolver> s;
    {
      Recorder::Span span(rec, "StencilSolver::StencilSolver", "core.solver", -1);
      s.emplace(tb::core::Registry::global().make(base.variant, base.op, cfg,
                                                  in.initial, in.aux_ptr()));
      construct_s = span.finish();
    }
    {
      Recorder::Span span(rec, "StencilSolver::advance", "core", -1);
      s->advance(base.steps);
    }
    {
      Recorder::Span span(rec, "StencilSolver::reset", "core.solver", -1);
      if (in.aux)
        s->reset(in.initial, *in.aux);
      else
        s->reset(in.initial);
      reset_s = span.finish();
    }
    tb::core::RunStats st;
    {
      Recorder::Span span(rec, "StencilSolver::advance", "core", -1);
      st = s->advance(base.steps);
    }
    ladder.num("construct_s", construct_s)
        .num("reset_s", reset_s)
        .num("engine_config_mlups", st.mlups());
  }
  if (base.op == "jacobi") {  // the pipelined config bench/bench_variants.cpp times
    tb::core::SolverConfig cfg = engine_config(base);
    cfg.pipeline.steps_per_thread = 2;
    cfg.pipeline.block = {base.nx, 8, 8};
    cfg.pipeline.du = 4;
    tb::core::StencilSolver s = tb::core::Registry::global().make(
        base.variant, base.op, cfg, in.initial, in.aux_ptr());
    s.advance(base.steps);
    Recorder::Span span(rec, "StencilSolver::advance", "core", -1);
    ladder.num("bench_variants_config_mlups", s.advance(base.steps).mlups());
  }
  {  // session: the same key through a pool, miss then hit
    tb::core::SolverSession session;
    session.solve(make_request(base, in));
    Recorder::Span span(rec, "SolverSession::solve", "core.session", -1);
    const tb::core::SolveResult hit = session.solve(make_request(base, in));
    ladder.num("session_hit_wall_s", span.finish())
        .num("session_hit_advance_s", hit.stats.seconds);
  }
  {  // scenario: the same key through an engine, miss then hit
    tb::scenario::ScenarioEngine engine;
    engine.run_case(base);
    Recorder::Span span(rec, "ScenarioEngine::run_case", "scenario", -1);
    const tb::scenario::CaseResult hit = engine.run_case(base);
    ladder.num("engine_hit_wall_s", span.finish())
        .num("engine_hit_advance_s", hit.stats.seconds);
  }
  {  // tune: a cold plan (fresh cache) and a warm one
    tb::tune::Problem p;
    p.nx = base.nx;
    p.ny = base.ny;
    p.nz = base.nz;
    p.op = base.op;
    tb::tune::PlanOptions po;
    po.cache_path = opt.work_dir + "/tune_cache_ladder.json";
    std::filesystem::remove(po.cache_path);
    const auto before = registry_values();
    double cold = 0.0;
    int probes = 0;
    {
      Recorder::Span span(rec, "tune::plan", "tune", -1);
      probes = tb::tune::plan(p, po).probes_run;
      cold = span.finish();
    }
    Recorder::Span span(rec, "tune::plan", "tune", -1);
    (void)tb::tune::plan(p, po);
    ladder.num("plan_s", cold)
        .num("plan_cached_s", span.finish())
        .integer("plan_probes", probes)
        .raw("tune_reg", json_map(registry_diff(registry_values(), before)));
    std::filesystem::remove(po.cache_path);
  }
  rec.set_section("ladder", ladder.dump());

  // Schedules the requests did not run: one fresh session per variant on
  // the representative problem, miss then hit, traced like the requests.
  for (const char* v : {"baseline", "pipelined", "compressed", "wavefront"}) {
    if (variants_seen.count(v)) continue;
    CaseSpec spec = base;
    spec.variant = v;
    spec.name = std::string("ladder/") + v;
    tb::core::SolverSession session;
    for (int rep_i = 0; rep_i < 2; ++rep_i) {
      std::map<std::string, double> reg;
      std::uint64_t allocs = 0;
      Outcome o = measured(
          [&] { return session_request(session, spec, in, oracles, model, rec, id); },
          reg, allocs);
      record(rec, o, spec, id++, -1, -1, true, true, reg, allocs);
    }
  }
  tb::obs::set_enabled(false);
}

/// The generated case file: the requests in issue order and the
/// representative problem ("ladder/..." case) of the layer probes.
struct CaseFile {
  std::vector<CaseSpec> requests;
  CaseSpec rep;
  double load_s = 0.0;  ///< ScenarioConfig::load_file
};

CaseFile load_cases(const std::string& path) {
  const auto t0 = Clock::now();
  tb::scenario::ScenarioConfig config;
  config.load_file(path);
  CaseFile out;
  out.load_s = seconds_since(t0);
  bool have_rep = false;
  for (const CaseSpec& s : config.cases()) {
    if (s.name.rfind("ladder/", 0) == 0) {
      out.rep = s;
      have_rep = true;
    } else {
      out.requests.push_back(s);
    }
  }
  if (out.requests.empty() || !have_rep)
    throw std::invalid_argument("perfbench: case file needs requests and a ladder/ case");
  return out;
}

}  // namespace

void prepare_references(const Options& opt) {
  const CaseFile file = load_cases(opt.cases);
  const OracleStore store(opt.work_dir + "/oracles");
  std::set<std::string> done;
  std::vector<CaseSpec> specs = file.requests;
  specs.push_back(file.rep);  // the layer probes' schedules share its key
  for (const CaseSpec& spec : specs) {
    const std::string key = oracle_key(spec);
    if (!done.insert(key).second || store.mean(key, spec.nx, spec.ny, spec.nz))
      continue;
    const Inputs in = make_inputs(spec);
    tb::core::StencilSolver ref = tb::core::Registry::global().make(
        "reference", oracle_op(spec.op), engine_config(spec), in.initial, in.aux_ptr());
    ref.advance(spec.steps);
    store.store(key, ref.solution());
  }
}

void run_workload(const Options& opt, Recorder& rec) {
  const CaseFile file = load_cases(opt.cases);
  const std::vector<CaseSpec>& cases = file.requests;
  const bool via_engine = opt.workload == "ooc-jacobi";

  // Out-of-cache workloads must really be out of cache.
  const std::size_t llc = detected_llc_bytes();
  std::size_t max_ws = 0;
  for (const CaseSpec& s : cases) max_ws = std::max(max_ws, working_set_bytes(s));
  const double ratio = static_cast<double>(max_ws) / static_cast<double>(llc);
  rec.set_section("sizes", JsonObject()
                               .num("working_set_bytes", static_cast<double>(max_ws))
                               .num("llc_bytes", static_cast<double>(llc))
                               .num("ratio", ratio)
                               .dump());
  if (max_ws < 4 * llc)
    throw std::runtime_error("perfbench: out-of-cache working set is below 4x the LLC");

  const tb::perfmodel::NodeModel model(tb::topo::host_machine());
  Oracles oracles(opt.work_dir + "/oracles");
  // Rounds run whole.  After the first, another starts only while the
  // last one's length still fits in the window, so a run measures about
  // --seconds and never much more.
  const auto t_start = Clock::now();
  double last_round_s = 0.0;

  std::set<std::string> variants_seen;
  long long id = 0;
  int rounds = 0;
  std::size_t i = 0;
  auto tag_of = [&](std::size_t at) {
    int round = -1, engine = -1;
    if (std::sscanf(cases[at].name.c_str(), "r%d/e%d/", &round, &engine) != 2)
      throw std::invalid_argument("perfbench: case name '" + cases[at].name +
                                  "' lacks the r<round>/e<engine>/ prefix");
    return std::pair{round, engine};
  };
  while (i < cases.size()) {
    const int round = tag_of(i).first;
    if (rounds > 0 && seconds_since(t_start) + last_round_s > opt.seconds) break;
    const auto round_t0 = Clock::now();
    const std::string cache =
        opt.work_dir + "/tune_cache_r" + std::to_string(round) + ".json";
    std::filesystem::remove(cache);

    while (i < cases.size() && tag_of(i).first == round) {
      const int engine_id = tag_of(i).second;
      tb::core::SessionOptions so;
      so.tune_cache_path = cache;
      std::optional<tb::scenario::ScenarioEngine> engine;
      std::optional<tb::core::SolverSession> session;
      if (via_engine)
        engine.emplace(tb::scenario::EngineOptions{so, false});
      else
        session.emplace(so);
      std::map<std::string, Resolved> resolved_by_key;
      while (i < cases.size() && tag_of(i) == std::pair{round, engine_id}) {
        const CaseSpec& spec = cases[i++];
        // Traced runs alternate untraced and traced requests, so one run
        // yields the tracing overhead.
        const bool traced = opt.trace && id % 2 == 1;
        tb::obs::set_enabled(traced);
        if (traced) variants_seen.insert(spec.variant);
        std::map<std::string, double> reg;
        std::uint64_t allocs = 0;
        Outcome o;
        if (via_engine) {
          o = measured([&] { return engine_request(*engine, spec, oracles, rec, id); },
                       reg, allocs);
          check_engine_key(*engine, spec, oracles, model, resolved_by_key, rec, id, o);
        } else {
          const Inputs in = make_inputs(spec);
          o = measured(
              [&] { return session_request(*session, spec, in, oracles, model, rec, id); },
              reg, allocs);
        }
        record(rec, o, spec, id++, round, engine_id, traced, false, reg, allocs);
      }
    }
    std::filesystem::remove(cache);
    last_round_s = seconds_since(round_t0);
    ++rounds;
  }
  tb::obs::set_enabled(false);
  rec.set_section("run", JsonObject()
                             .integer("rounds", rounds)
                             .num("load_s", file.load_s)
                             .integer("requests", id)
                             .dump());
  rec.set_section("peak_rss_mib", std::to_string(peak_rss_mib()));
  // Grids and lattices alone (every AlignedBuffer of the process), next
  // to the resident set, which also counts code, heap and allocator slack.
  rec.set_section("buffer_high_water_mib",
                  std::to_string(static_cast<double>(tb::util::buffer_bytes_high_water()) /
                                 (1024.0 * 1024.0)));
  if (opt.trace) {
    run_layer_probes(opt, rec, file.rep, variants_seen, id);
    run_dist_probe(rec, id + 8);
    run_sweep_probe(rec);
    calibrate_host(rec, file.rep.threads);
  }
}

}  // namespace perfbench
