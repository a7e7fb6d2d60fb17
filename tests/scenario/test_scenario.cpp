// Scenario config + engine: JSON expansion semantics (defaults,
// cross-product sweeps, repeats, shapes, consumer hooks) and the
// engine's bit-identity guarantee — every case run through the session
// matches a fresh StencilSolver on the same inputs.  Also pins the
// shipped scenario files: sweep.json must expand to the >= 12-case
// sweep the CI smoke job runs, and mutants of them parse or are rejected
// with an exception, never crash.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/registry.hpp"
#include "core/session.hpp"
#include "lbm/stencil_op.hpp"
#include "scenario/grids.hpp"
#include "scenario/scenario_config.hpp"
#include "scenario/scenario_engine.hpp"
#include "support/grid_test_utils.hpp"
#include "util/aligned_buffer.hpp"

namespace tb::scenario {
namespace {

ScenarioConfig load(const std::string& text) {
  ScenarioConfig config;
  config.load_text(text);
  return config;
}

TEST(ScenarioConfig, DefaultsMergeUnderCases) {
  const ScenarioConfig c = load(R"({
    "name": "t",
    "defaults": { "steps": 5, "threads": 3, "variant": "baseline" },
    "cases": [ { "operator": "box27", "n": 10 },
               { "operator": "jacobi", "steps": 7 } ]
  })");
  ASSERT_EQ(c.cases().size(), 2u);
  EXPECT_EQ(c.name(), "t");
  EXPECT_EQ(c.cases()[0].op, "box27");
  EXPECT_EQ(c.cases()[0].steps, 5);
  EXPECT_EQ(c.cases()[0].threads, 3);
  EXPECT_EQ(c.cases()[0].nx, 10);
  EXPECT_EQ(c.cases()[1].steps, 7);  // case overrides default
  EXPECT_EQ(c.cases()[1].variant, "baseline");
}

TEST(ScenarioConfig, SweepListsCrossProduct) {
  const ScenarioConfig c = load(R"({
    "cases": [ { "operator": ["jacobi", "box27"],
                 "variant": ["baseline", "wavefront"],
                 "n": [8, 12], "steps": 3 } ]
  })");
  ASSERT_EQ(c.cases().size(), 8u);  // 2 x 2 x 2
  // Document order: later axes vary fastest.
  EXPECT_EQ(c.cases()[0].op, "jacobi");
  EXPECT_EQ(c.cases()[0].variant, "baseline");
  EXPECT_EQ(c.cases()[0].nx, 8);
  EXPECT_EQ(c.cases()[1].nx, 12);
  EXPECT_EQ(c.cases()[7].op, "box27");
  EXPECT_EQ(c.cases()[7].variant, "wavefront");
  // Generated names are unique.
  for (std::size_t i = 0; i < c.cases().size(); ++i)
    for (std::size_t j = i + 1; j < c.cases().size(); ++j)
      EXPECT_NE(c.cases()[i].name, c.cases()[j].name);
}

TEST(ScenarioConfig, RepeatDuplicatesCases) {
  const ScenarioConfig c = load(R"({
    "cases": [ { "operator": "jacobi", "n": 8, "repeat": 3 } ]
  })");
  ASSERT_EQ(c.cases().size(), 3u);
  EXPECT_EQ(c.cases()[0].repeat_index, 0);
  EXPECT_EQ(c.cases()[2].repeat_index, 2);
  EXPECT_EQ(c.cases()[2].repeat_count, 3);
  EXPECT_NE(c.cases()[0].name, c.cases()[1].name);
}

TEST(ScenarioConfig, RejectsExpansionsBeyondTheCaseBound) {
  // Caught before the cases are built, not after 2e9 of them.
  EXPECT_THROW(load(R"({"cases": [{"n": 8, "repeat": 2000000000}]})"),
               std::invalid_argument);
  EXPECT_THROW(load(R"({"defaults": {"repeat": 1000},
                       "cases": [{"n": [8, 9, 10, 11, 12, 13, 14, 15, 16,
                                        17, 18]}]})"),
               std::invalid_argument);
  EXPECT_EQ(load(R"({"cases": [{"n": 8, "repeat": 10000}]})").cases().size(),
            10000u);
}

TEST(ScenarioConfig, ShapeTripleWinsOverN) {
  const ScenarioConfig c = load(R"({
    "cases": [ { "shape": [9, 7, 11], "n": 32 } ]
  })");
  EXPECT_EQ(c.cases()[0].nx, 9);
  EXPECT_EQ(c.cases()[0].ny, 7);
  EXPECT_EQ(c.cases()[0].nz, 11);
}

TEST(ScenarioConfig, ScalarCaseKeyShadowsListDefault) {
  const ScenarioConfig c = load(R"({
    "defaults": { "n": [8, 12, 16] },
    "cases": [ { "operator": "jacobi", "n": 10 } ]
  })");
  ASSERT_EQ(c.cases().size(), 1u);
  EXPECT_EQ(c.cases()[0].nx, 10);
}

TEST(ScenarioConfig, RejectsUnknownKeysAndSections) {
  EXPECT_THROW(load(R"({ "cases": [ { "opertor": "jacobi" } ] })"),
               std::invalid_argument);
  EXPECT_THROW(load(R"({ "tyop": 1, "cases": [ {} ] })"),
               std::invalid_argument);
  EXPECT_THROW(load(R"({ "name": "x" })"), std::invalid_argument);
  EXPECT_THROW(load(R"({ "cases": [ { "initial": "rand" } ] })"),
               std::invalid_argument);
  EXPECT_THROW(load(R"({ "cases": [ { "n": 0 } ] })"),
               std::invalid_argument);
}

struct RecordingConsumer final : IScenarioConsumer {
  std::string seen;
  [[nodiscard]] std::string_view section() const override {
    return "custom";
  }
  void consume(const util::json::Value& v) override {
    seen = v.get("key").as_string();
  }
};

TEST(ScenarioConfig, ConsumerHooksClaimUnknownSections) {
  RecordingConsumer consumer;
  ScenarioConfig config;
  config.register_consumer(&consumer);
  config.load_text(R"({
    "custom": { "key": "value" },
    "cases": [ { "operator": "jacobi", "n": 8 } ]
  })");
  EXPECT_EQ(consumer.seen, "value");
  // Built-in sections cannot be claimed, nor can a section twice.
  RecordingConsumer other;
  EXPECT_THROW(config.register_consumer(&consumer),
               std::invalid_argument);
  struct CasesConsumer final : IScenarioConsumer {
    [[nodiscard]] std::string_view section() const override {
      return "cases";
    }
    void consume(const util::json::Value&) override {}
  } cases_consumer;
  EXPECT_THROW(config.register_consumer(&cases_consumer),
               std::invalid_argument);
}

TEST(ScenarioGrids, GeometryResolutionAndValidation) {
  CaseSpec spec;
  spec.op = "varcoef";
  EXPECT_EQ(resolve_geometry(spec), "slab");
  EXPECT_TRUE(make_aux(spec).has_value());
  spec.op = "lbm";
  EXPECT_EQ(resolve_geometry(spec), "none");
  EXPECT_FALSE(make_aux(spec).has_value());
  spec.geometry = "slab";
  EXPECT_THROW(make_aux(spec), std::invalid_argument);  // material on lbm
  spec.op = "jacobi";
  spec.geometry = "cavity";
  EXPECT_THROW(make_aux(spec), std::invalid_argument);  // codes on jacobi
  spec.op = "varcoef";
  spec.geometry = "none";
  EXPECT_THROW(make_aux(spec), std::invalid_argument);  // varcoef bare
}

TEST(ScenarioEngine, CasesBitIdenticalToFreshSolvers) {
  ScenarioConfig config;
  config.load_text(R"({
    "name": "bitident",
    "defaults": { "steps": 4, "threads": 2, "n": 10 },
    "cases": [
      { "operator": ["jacobi", "varcoef", "redblack"],
        "variant": ["baseline", "compressed"], "repeat": 2 },
      { "operator": "lbm", "variant": "pipelined", "initial": "uniform",
        "steps": 6 }
    ]
  })");
  ASSERT_GE(config.cases().size(), 12u);

  ScenarioEngine engine;
  const std::vector<CaseResult> results = engine.run(config);
  ASSERT_EQ(results.size(), config.cases().size());

  // After the full run each case's pooled solver holds the solution of
  // its (identical-input) last repeat; re-solving through the pool —
  // reset + advance, the path the repeats took — must match a fresh
  // StencilSolver bit for bit.
  for (const CaseSpec& spec : config.cases()) {
    const core::Grid3 initial = make_initial(spec);
    const auto aux = make_aux(spec);

    core::SolverConfig cfg;
    cfg.pipeline.teams = 1;
    cfg.pipeline.team_size = spec.threads;
    cfg.pipeline.block = {spec.nx, 16, 16};
    cfg.baseline.threads = spec.threads;
    cfg.wavefront.threads = spec.threads;
    cfg.lbm.omega = spec.omega;
    cfg.lbm.lid_velocity = {spec.ulid, 0.0, 0.0};
    cfg.lbm_geometry_from_aux = geometry_is_codes(spec);
    core::StencilSolver fresh = core::make_solver(
        spec.variant, spec.op, cfg, initial, aux ? &*aux : nullptr);
    fresh.advance(spec.steps);

    core::SolveRequest req;
    req.variant = spec.variant;
    req.op = spec.op;
    req.cfg = cfg;
    req.initial = &initial;
    req.aux = aux ? &*aux : nullptr;
    req.steps = spec.steps;
    const core::SolveResult pooled = engine.session().solve(req);
    ASSERT_NE(pooled.solver, nullptr) << spec.name;
    EXPECT_TRUE(pooled.reused) << spec.name;
    tb::test::expect_grids_bitwise_equal(pooled.solver->solution(),
                                         fresh.solution());
  }

  // The repeats hit the pool during the run itself.
  EXPECT_GT(engine.session().solvers_reused(), 0u);
}

TEST(ScenarioEngine, RunCaseAndHandBuiltRequestShareOnePooledSolver) {
  // perfbench's replay contract: a request built field by field like
  // config_for, depth left unset, resolves to the plan run_case ran and
  // hits its pooled solver.
  for (const auto& [variant, steps, depth] :
       {std::tuple{"pipelined", 16, 4}, std::tuple{"compressed", 16, 4},
        std::tuple{"pipelined", 8, 2}}) {
    CaseSpec spec;
    spec.name = std::string(variant) + "/" + std::to_string(steps);
    spec.variant = variant;
    spec.op = "jacobi";
    spec.nx = spec.ny = spec.nz = 14;
    spec.steps = steps;
    spec.threads = 4;
    spec.initial = "hot-face";

    ScenarioEngine engine;
    const CaseResult first = engine.run_case(spec);
    EXPECT_NE(first.resolved_config.find("T=" + std::to_string(depth)),
              std::string::npos)
        << spec.name << ": " << first.resolved_config;

    const core::Grid3 initial = make_initial(spec);
    core::SolveRequest req;
    req.variant = spec.variant;
    req.op = spec.op;
    req.cfg.pipeline.teams = 1;
    req.cfg.pipeline.team_size = spec.threads;
    req.cfg.pipeline.block = {spec.nx, 16, 16};
    req.cfg.baseline.threads = spec.threads;
    req.cfg.wavefront.threads = spec.threads;
    req.cfg.lbm.omega = spec.omega;
    req.cfg.lbm.lid_velocity = {spec.ulid, 0.0, 0.0};
    req.cfg.lbm_geometry_from_aux = geometry_is_codes(spec);
    req.initial = &initial;
    req.steps = spec.steps;
    const core::SolveResult replay = engine.session().solve(req);
    EXPECT_TRUE(replay.reused) << spec.name;
    EXPECT_EQ(engine.session().pool_size(), 1u) << spec.name;
  }
}

CaseSpec small_case(const std::string& initial, int threads) {
  CaseSpec spec;
  spec.nx = 13;
  spec.ny = 11;
  spec.nz = 10;  // uneven k-slabs on a team of 3
  spec.steps = 4;
  spec.threads = threads;
  spec.initial = initial;
  return spec;
}

TEST(ScenarioEngine, PoolHitRunCaseAllocatesNothing) {
  for (const char* initial : {"pattern", "uniform", "hot-face"})
    for (const auto& [variant, op, geometry] :
         {std::tuple{"baseline", "jacobi", "auto"},
          std::tuple{"compressed", "jacobi", "auto"},
          std::tuple{"pipelined", "lbm:aa", "cavity"}})
      for (int threads : {1, 3}) {
        CaseSpec spec = small_case(initial, threads);
        spec.variant = variant;
        spec.op = op;
        spec.geometry = geometry;
        spec.name = std::string(initial) + "/" + op + "/" + variant + "/t" +
                    std::to_string(threads);

        ScenarioEngine engine;
        (void)engine.run_case(spec);
        const std::uint64_t allocs = util::buffer_alloc_count();
        const CaseResult hit = engine.run_case(spec);
        EXPECT_TRUE(hit.reused) << spec.name;
        EXPECT_EQ(util::buffer_alloc_count(), allocs) << spec.name;

        ScenarioEngine fresh;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fresh.run_case(spec).mean),
                  std::bit_cast<std::uint64_t>(hit.mean))
            << spec.name;
      }
}

TEST(ScenarioGrids, Level0SourceAndMakeInitialAgreeBitwise) {
  for (const char* initial : {"pattern", "uniform", "hot-face"}) {
    const CaseSpec spec = small_case(initial, 3);
    core::SolverConfig cfg;
    cfg.baseline.threads = spec.threads;
    core::StencilSolver solver =
        core::make_solver("baseline", "jacobi", cfg, make_initial(spec));
    const core::Grid3 from_grid = solver.solution().clone();
    solver.reset(level0(spec));
    tb::test::expect_grids_bitwise_equal(solver.solution(), from_grid);
  }
  // The pattern is fill_test_pattern's, bit for bit.
  tb::test::expect_grids_bitwise_equal(
      make_initial(small_case("pattern", 1)),
      tb::test::make_initial(13, 11, 10));
}

TEST(ScenarioGrids, CavityCodesSpellTheBuiltInCavity) {
  CaseSpec spec = small_case("uniform", 1);
  spec.op = "lbm";
  spec.geometry = "cavity";
  const lbm::Geometry codes = lbm::geometry_from_codes(aux_source(spec));
  const lbm::Geometry cavity = lbm::Geometry::cavity(13, 11, 10);
  for (int k = 0; k < 10; ++k)
    for (int j = 0; j < 11; ++j)
      for (int i = 0; i < 13; ++i)
        ASSERT_EQ(codes.at(i, j, k), cavity.at(i, j, k))
            << i << "," << j << "," << k;
}

TEST(ScenarioGrids, FingerprintIgnoresWhereTheDataComeFrom) {
  CaseSpec spec = small_case("pattern", 2);
  spec.op = "lbm";
  spec.geometry = "obstacle";
  const core::Grid3 initial = make_initial(spec);
  const std::optional<core::Grid3> aux = make_aux(spec);
  ASSERT_TRUE(aux.has_value());

  core::SolveRequest from_grids;
  from_grids.variant = "pipelined";
  from_grids.op = spec.op;
  from_grids.initial = &initial;
  from_grids.aux = &*aux;
  core::SolveRequest from_sources = from_grids;
  from_sources.initial = level0(spec);
  from_sources.aux = aux_source(spec);
  EXPECT_EQ(core::SolverSession::fingerprint(from_sources),
            core::SolverSession::fingerprint(from_grids));
}

TEST(ScenarioEngine, ShippedSweepScenarioExpandsAndRuns) {
  const std::string dir = TB_SCENARIO_DIR;
  ScenarioConfig config;
  config.load_file(dir + "/sweep.json");
  EXPECT_EQ(config.name(), "sweep");
  // The acceptance floor: one run_scenario invocation on sweep.json is
  // a >= 12-case sweep in a single process.
  EXPECT_GE(config.cases().size(), 12u);

  int repeats = 0;
  for (const CaseSpec& spec : config.cases())
    if (spec.repeat_count > 1) ++repeats;
  EXPECT_GT(repeats, 0) << "sweep.json must contain repeat shapes";
}

TEST(ScenarioEngine, ShippedScenariosParse) {
  const std::string dir = TB_SCENARIO_DIR;
  for (const char* file :
       {"lid_cavity.json", "quickstart.json", "composite.json"}) {
    ScenarioConfig config;
    config.load_file(dir + "/" + file);
    EXPECT_FALSE(config.cases().empty()) << file;
  }
  // lid_cavity.json must carry an LBM geometry-code case.
  ScenarioConfig lid;
  lid.load_file(dir + "/lid_cavity.json");
  bool codes = false;
  for (const CaseSpec& spec : lid.cases())
    if (geometry_is_codes(spec)) codes = true;
  EXPECT_TRUE(codes);
}

// Seeded mutation fuzzing of the scenario parser (util/json underneath
// ScenarioConfig): byte flips, truncations and splices of the shipped
// files.  Each mutant must load or be rejected with the parser's own
// exceptions; anything else (a crash, a sanitizer report, another
// exception type) fails.  The RNG seed fixes the mutant sequence.
TEST(ScenarioFuzz, MutatedShippedScenariosParseOrThrow) {
  // Claims the "cluster" section without running its sweep, so the
  // cluster file's mutants reach the rest of the parser.
  struct IgnoreSection final : IScenarioConsumer {
    [[nodiscard]] std::string_view section() const override {
      return "cluster";
    }
    void consume(const util::json::Value&) override {}
  } cluster;

  std::vector<std::string> seeds;
  for (const char* file : {"sweep.json", "lid_cavity.json", "quickstart.json",
                           "composite.json", "cluster_weak.json"}) {
    std::ifstream in(std::string(TB_SCENARIO_DIR) + "/" + file);
    std::ostringstream text;
    text << in.rdbuf();
    ASSERT_FALSE(text.str().empty()) << file;
    seeds.push_back(text.str());
  }

  using Rng = std::mt19937_64;
  Rng rng(20100419);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // JSON structure and digits make far more interesting flips than
  // arbitrary bytes: they open, close and re-type values.
  const std::string alphabet = "{}[]\":,.-+eE0123456789 tfn\\/u";
  const std::vector<std::function<void(std::string&)>> mutations = {
      [&](std::string& t) {  // flip one bit
        if (!t.empty()) t[pick(t.size())] ^= static_cast<char>(1 << pick(8));
      },
      [&](std::string& t) {  // overwrite one byte with a JSON token char
        if (!t.empty()) t[pick(t.size())] = alphabet[pick(alphabet.size())];
      },
      [&](std::string& t) { t.resize(pick(t.size() + 1)); },  // truncate
      [&](std::string& t) {  // splice in a slice of any shipped file
        const std::string& from = seeds[pick(seeds.size())];
        const std::size_t at = pick(from.size());
        const std::string slice = from.substr(at, 1 + pick(32));
        const std::size_t pos = pick(t.size() + 1);
        t.replace(pos, pick(8), slice);
      },
  };

  const int kMutants = 100000;
  int loaded = 0, rejected = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string text = seeds[pick(seeds.size())];
    for (std::size_t k = 1 + pick(3); k > 0; --k)
      mutations[pick(mutations.size())](text);
    try {
      ScenarioConfig config;
      config.register_consumer(&cluster);
      config.load_text(text, "mutant");
      ++loaded;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(loaded + rejected, kMutants);
  EXPECT_GT(loaded, 0) << "no mutant survived: the mutations are too coarse";
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace tb::scenario
