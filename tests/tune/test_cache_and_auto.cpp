// Persistent-cache and auto-variant properties: plans round-trip to
// disk and come back field-exact, a machine-signature change or a
// corrupt file invalidates entries instead of erroring, the planner's
// second call performs zero timed probes, and `--variant auto` (the
// registry meta variant installed by tb_tune) produces solutions
// bit-identical to the naive reference for every operator.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "core/registry.hpp"
#include "core/stencil_op.hpp"
#include "support/grid_test_utils.hpp"
#include "topo/machine.hpp"
#include "tune/planner.hpp"
#include "tune/tuning_cache.hpp"

namespace tb::tune {
namespace {

using tb::test::make_initial;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tb_tune_" + name + "_" +
         std::to_string(::getpid()) + ".json";
}

Problem cube(int n, std::string op = "jacobi") {
  Problem p;
  p.nx = p.ny = p.nz = n;
  p.op = std::move(op);
  return p;
}

Candidate pipelined_plan() {
  Candidate c;
  c.variant = "compressed";
  core::apply_variant(c.cfg, "compressed");
  c.cfg.pipeline.teams = 1;
  c.cfg.pipeline.team_size = 2;
  c.cfg.pipeline.steps_per_thread = 2;
  c.cfg.pipeline.block = {32, 8, 8};
  c.cfg.pipeline.du = 4;
  c.cfg.baseline.threads = 2;
  c.predicted_mlups = 321.5;
  c.measured_mlups = 654.25;
  return c;
}

TEST(TuningCache, RoundTripsPlansFieldExact) {
  const std::string path = temp_path("roundtrip");
  const std::string sig = machine_signature(topo::nehalem_ep());
  {
    TuningCache cache(path, sig);
    cache.put(cube(32), pipelined_plan());
    Candidate wf;
    wf.variant = "wavefront";
    core::apply_variant(wf.cfg, "wavefront");
    wf.cfg.wavefront.threads = 3;
    wf.measured_mlups = 99.5;
    cache.put(cube(48, "varcoef"), wf);
    // A bare-"lbm" problem whose winning schedule carries the AA
    // storage policy: the policy must survive the disk round trip, or a
    // cache hit would silently deploy the two-lattice layout.
    Candidate aa = pipelined_plan();
    aa.cfg.lbm_storage = lbm::LbmStorage::kAA;
    cache.put(cube(40, "lbm"), aa);
    ASSERT_TRUE(cache.save());
  }
  TuningCache cache(path, sig);
  EXPECT_EQ(cache.load(), 3u);

  const auto hit = cache.find(cube(32));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->variant, "compressed");
  EXPECT_EQ(hit->cfg.variant, core::Variant::kPipelined);
  EXPECT_EQ(hit->cfg.pipeline.scheme, core::GridScheme::kCompressed);
  EXPECT_EQ(hit->cfg.pipeline.team_size, 2);
  EXPECT_EQ(hit->cfg.pipeline.steps_per_thread, 2);
  EXPECT_EQ(hit->cfg.pipeline.block.bx, 32);
  EXPECT_EQ(hit->cfg.pipeline.du, 4);
  EXPECT_EQ(hit->cfg.baseline.threads, 2);
  EXPECT_DOUBLE_EQ(hit->predicted_mlups, 321.5);
  EXPECT_DOUBLE_EQ(hit->measured_mlups, 654.25);

  const auto wf_hit = cache.find(cube(48, "varcoef"));
  ASSERT_TRUE(wf_hit.has_value());
  EXPECT_EQ(wf_hit->variant, "wavefront");
  EXPECT_EQ(wf_hit->cfg.wavefront.threads, 3);
  EXPECT_EQ(wf_hit->cfg.lbm_storage, lbm::LbmStorage::kTwoLattice);

  const auto aa_hit = cache.find(cube(40, "lbm"));
  ASSERT_TRUE(aa_hit.has_value());
  EXPECT_EQ(aa_hit->cfg.lbm_storage, lbm::LbmStorage::kAA);

  EXPECT_FALSE(cache.find(cube(33)).has_value());
  EXPECT_FALSE(cache.find(cube(32, "varcoef")).has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, ConstraintIsPartOfTheKey) {
  const std::string path = temp_path("constraint");
  TuningCache cache(path, "sig");
  Problem constrained = cube(32);
  constrained.variant = "wavefront";
  cache.put(cube(32), pipelined_plan());
  EXPECT_FALSE(cache.find(constrained).has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, SignatureChangeInvalidatesEverything) {
  const std::string path = temp_path("signature");
  {
    TuningCache cache(path,
                      machine_signature(topo::nehalem_ep()));
    cache.put(cube(32), pipelined_plan());
    ASSERT_TRUE(cache.save());
  }
  TuningCache other(path, machine_signature(topo::core2_like()));
  EXPECT_EQ(other.load(), 0u);
  EXPECT_FALSE(other.find(cube(32)).has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, MissingOrGarbageFilesDegradeToEmpty) {
  TuningCache missing(temp_path("does_not_exist"), "sig");
  EXPECT_EQ(missing.load(), 0u);

  const std::string path = temp_path("garbage");
  {
    std::ofstream out(path);
    out << "this is { not \" valid json [0,";
  }
  TuningCache garbage(path, "sig");
  EXPECT_EQ(garbage.load(), 0u);
  std::remove(path.c_str());
}

TEST(TuningCache, CorruptEntriesAreSkippedNotFatal) {
  const std::string path = temp_path("corrupt");
  const std::string sig = "sig";
  {
    TuningCache cache(path, sig);
    cache.put(cube(32), pipelined_plan());
    ASSERT_TRUE(cache.save());
  }
  // Append-edit the file: an unknown variant, an inadmissible pipeline
  // schedule (du < dl) and an invalid baseline (0 threads) must all be
  // dropped on load — a corrupt entry may never become a "cache hit"
  // that then throws inside solver construction.
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  const std::string bad =
      "    {\"nx\": 8, \"ny\": 8, \"nz\": 8, \"op\": \"jacobi\", "
      "\"constraint\": \"\", \"variant\": \"gauss-seidel\"},\n"
      "    {\"nx\": 9, \"ny\": 9, \"nz\": 9, \"op\": \"jacobi\", "
      "\"constraint\": \"\", \"variant\": \"pipelined\", \"dl\": 3, "
      "\"du\": 1},\n"
      "    {\"nx\": 10, \"ny\": 10, \"nz\": 10, \"op\": \"jacobi\", "
      "\"constraint\": \"\", \"variant\": \"baseline\", "
      "\"bl_threads\": 0},\n";
  const std::size_t pos = text.find("    {");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, bad);
  {
    std::ofstream out(path);
    out << text;
  }
  TuningCache cache(path, sig);
  EXPECT_EQ(cache.load(), 1u);
  EXPECT_TRUE(cache.find(cube(32)).has_value());
  std::remove(path.c_str());
}

TEST(TuningCache, FileFromBeforeTheWavefrontLostItsTileReplays) {
  // A format-1 file as written while the wavefront still carried a y
  // tile ("wf_by"): the extra key is ignored, the entry loads, and the
  // planner replays it with zero probes into a bit-exact solver.
  const std::string path = temp_path("wf_by");
  PlanOptions opts;
  opts.machine = topo::nehalem_ep_socket();
  opts.cache_path = path;
  {
    std::ofstream out(path);
    out << "{\n  \"version\": 1,\n  \"signature\": \""
        << machine_signature(*opts.machine) << "\",\n  \"entries\": [\n"
        << "    {\"nx\": 12, \"ny\": 12, \"nz\": 12, \"op\": \"jacobi\", "
           "\"constraint\": \"wavefront\",\n"
           "     \"variant\": \"wavefront\", \"teams\": 1, "
           "\"team_size\": 4, \"T\": 1, \"bx\": 120, \"by\": 20, "
           "\"bz\": 20, \"dl\": 1, \"du\": 4, \"dt\": 0,\n"
           "     \"bl_threads\": 3, \"bl_bx\": 120, \"bl_by\": 20, "
           "\"bl_bz\": 20, \"nontemporal\": 0, \"wf_threads\": 3, "
           "\"wf_by\": 8, \"lbm_aa\": 0, \"lbm_prefetch\": 0,\n"
           "     \"predicted_mlups\": 100.5, \"measured_mlups\": 200.25}\n"
        << "  ]\n}\n";
  }
  Problem p = cube(12);
  p.variant = "wavefront";
  const Plan replay = plan(p, opts);
  EXPECT_TRUE(replay.from_cache);
  EXPECT_EQ(replay.probes_run, 0);
  EXPECT_EQ(replay.best.variant, "wavefront");
  EXPECT_EQ(replay.best.cfg.wavefront.threads, 3);
  EXPECT_DOUBLE_EQ(replay.best.measured_mlups, 200.25);

  const core::Grid3 initial = make_initial(12);
  core::StencilSolver s =
      core::make_solver("wavefront", "jacobi", replay.best.cfg, initial);
  s.advance(7);  // two sweeps of depth 3 plus one remainder step
  EXPECT_EQ(core::max_abs_diff(s.solution(),
                               tb::test::reference_result(initial, 7)),
            0.0);
  std::remove(path.c_str());
}

TEST(TuningCache, MachineSignatureIsStableAndDiscriminating) {
  EXPECT_EQ(machine_signature(topo::host_machine()),
            machine_signature(topo::host_machine()));
  EXPECT_NE(machine_signature(topo::nehalem_ep()),
            machine_signature(topo::core2_like()));
  topo::MachineSpec shrunk = topo::nehalem_ep();
  shrunk.shared_cache_bytes /= 2;
  EXPECT_NE(machine_signature(topo::nehalem_ep()),
            machine_signature(shrunk));
}

TEST(Planner, SecondCallHitsTheCacheWithZeroProbes) {
  const std::string path = temp_path("planner");
  PlanOptions opts;
  opts.machine = topo::nehalem_ep_socket();
  opts.cache_path = path;
  opts.shortlist_size = 2;
  opts.probe.max_extent = 12;

  const Plan first = plan(cube(12), opts);
  EXPECT_FALSE(first.from_cache);
  EXPECT_EQ(first.probes_run, 2);

  const Plan second = plan(cube(12), opts);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.probes_run, 0);
  EXPECT_EQ(second.best.describe(), first.best.describe());
  EXPECT_DOUBLE_EQ(second.best.measured_mlups,
                   first.best.measured_mlups);

  // A different operator is a different key: tuned separately.
  const Plan box = plan(cube(12, "box27"), opts);
  EXPECT_FALSE(box.from_cache);
  std::remove(path.c_str());
}

// ---- the "auto" registry variant (linked via tb_tune) -----------------

class AutoVariant : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("auto");
    ASSERT_EQ(::setenv("TB_TUNE_CACHE", path_.c_str(), 1), 0);
  }
  void TearDown() override {
    ::unsetenv("TB_TUNE_CACHE");
    std::remove(path_.c_str());
  }
  std::string path_;
};

TEST_F(AutoVariant, IsInstalledAndSelectable) {
  bool found = false;
  for (const std::string& m : core::registered_meta_variants())
    found = found || m == "auto";
  EXPECT_TRUE(found);
  // ...and stays out of the enumerable sweep list.
  for (const std::string& v : core::registered_variants())
    EXPECT_NE(v, "auto");
}

TEST_F(AutoVariant, PlansBitMatchTheReferenceForEveryOperator) {
  const core::Grid3 initial = make_initial(14, 13, 15);
  const core::Grid3 kappa = tb::test::make_kappa(14, 13, 15);
  const int steps = 9;

  for (const std::string& op : core::registered_operators()) {
    core::SolverConfig cfg;
    core::StencilSolver ref =
        core::make_solver("reference", op, cfg, initial, &kappa);
    ref.advance(steps);

    core::StencilSolver tuned =
        core::make_solver("auto", op, cfg, initial, &kappa);
    tuned.advance(steps);
    EXPECT_EQ(core::max_abs_diff(tuned.solution(), ref.solution()), 0.0)
        << "operator " << op;

    // Second construction replays the cached plan (no new probes) and
    // must stay exact.
    core::StencilSolver replay =
        core::make_solver("auto", op, cfg, initial, &kappa);
    replay.advance(steps);
    EXPECT_EQ(core::max_abs_diff(replay.solution(), ref.solution()), 0.0)
        << "operator " << op << " (replayed plan)";
  }
}

TEST_F(AutoVariant, ConfigureFromArgsAcceptsAuto) {
  core::SolverConfig cfg;
  ASSERT_TRUE(core::apply_variant(cfg, "auto"));
  EXPECT_EQ(core::variant_name(cfg), "auto");
  const core::Grid3 initial = make_initial(10);
  core::StencilSolver s = core::make_solver(core::variant_name(cfg),
                                            "jacobi", cfg, initial);
  s.advance(4);
  EXPECT_EQ(core::max_abs_diff(s.solution(),
                               tb::test::reference_result(initial, 4)),
            0.0);
}

}  // namespace
}  // namespace tb::tune
