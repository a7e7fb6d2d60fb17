// Distributed string registry: every registry operator is constructible
// as a DistributedStencil by name (bare or "dist:"-prefixed), the
// decomposed run stays bit-identical to the shared-memory reference, and
// bad names / missing material fields fail loudly.
#include <gtest/gtest.h>

#include <string>

#include "core/registry.hpp"
#include "dist/registry.hpp"
#include "support/grid_test_utils.hpp"

namespace tb::dist {
namespace {

using tb::test::make_initial;
using tb::test::make_kappa;

TEST(DistRegistry, NamesEnumerateTheOperatorAxis) {
  // ':'-qualified storage-policy aliases ("lbm:aa") are shared-memory
  // only and must NOT appear on the distributed axis.
  std::size_t dist_capable = 0;
  for (const std::string& op : core::registered_operators())
    if (op.find(':') == std::string::npos) ++dist_capable;
  ASSERT_LT(dist_capable, core::registered_operators().size());

  const auto names = registered_dist_variants();
  ASSERT_EQ(names.size(), dist_capable);
  for (const std::string& name : names) {
    EXPECT_TRUE(is_dist_variant(name)) << name;
    EXPECT_EQ(dist_operator(name).find(':'), std::string_view::npos)
        << name;
    bool known = false;
    for (const std::string& op : core::registered_operators())
      known = known || op == dist_operator(name);
    EXPECT_TRUE(known) << name;
  }
  EXPECT_FALSE(is_dist_variant("pipelined"));
  EXPECT_EQ(dist_operator("dist:box27"), "box27");
  EXPECT_EQ(dist_operator("box27"), "box27");  // bare names pass through
}

TEST(DistRegistry, EveryOperatorRunsDecomposedBitIdentically) {
  const int n = 20, epochs = 2;
  const core::Grid3 initial = make_initial(n);
  const core::Grid3 kappa = make_kappa(n);

  DistConfig cfg;
  cfg.proc_dims = {2, 2, 1};
  cfg.pipeline.teams = 1;
  cfg.pipeline.team_size = 2;
  cfg.pipeline.steps_per_thread = 2;
  cfg.pipeline.block = {8, 6, 6};
  const int steps = epochs * cfg.pipeline.levels_per_sweep();

  for (const std::string& name : registered_dist_variants()) {
    const std::string op(dist_operator(name));
    core::SolverConfig ref_cfg;
    core::StencilSolver ref =
        core::make_solver("reference", op, ref_cfg, initial, &kappa);
    ref.advance(steps);

    core::Grid3 result = initial.clone();
    run_distributed_named(op, 4, cfg, initial, epochs, &result, &kappa);
    EXPECT_EQ(core::max_abs_diff(result, ref.solution()), 0.0)
        << "operator " << op;

    // The "dist:" spelling is the same factory.
    core::Grid3 prefixed = initial.clone();
    run_distributed_named(name, 4, cfg, initial, epochs, &prefixed,
                          &kappa);
    EXPECT_EQ(core::max_abs_diff(prefixed, result), 0.0)
        << "operator " << name;
  }
}

TEST(DistRegistry, AaStoragePolicyIsRejectedWithAnExplanation) {
  // The AA stream step pushes INTO the ghost ring; the ghost exchange
  // cannot transport that back, so the name is refused loudly instead of
  // silently running two-lattice.
  const core::Grid3 initial = make_initial(12);
  DistConfig cfg;
  cfg.pipeline.team_size = 1;
  simnet::World world(1);
  world.run([&](simnet::Comm& comm) {
    for (const char* name : {"lbm:aa", "dist:lbm:aa"}) {
      try {
        (void)make_distributed(name, comm, cfg, initial);
        FAIL() << name << " must not construct";
      } catch (const std::invalid_argument& err) {
        EXPECT_NE(std::string(err.what()).find("shared-memory"),
                  std::string::npos)
            << err.what();
      }
    }
  });
}

TEST(DistRegistry, LbmConstructsAndExposesItsStateFields) {
  // "dist:lbm" is constructible like every other registered name: with
  // the default lid-driven cavity geometry no aux grid is needed at all
  // (exactly like the shared-memory facade).
  core::Grid3 initial(12, 12, 12);
  initial.fill(1.0);
  DistConfig cfg;
  cfg.pipeline.team_size = 1;
  simnet::World world(1);
  world.run([&](simnet::Comm& comm) {
    std::unique_ptr<AnyDistributed> solver =
        make_distributed("dist:lbm", comm, cfg, initial);
    EXPECT_EQ(solver->state_field_count(), 19);
    solver->advance(2);
    core::Grid3 density = initial.clone();
    std::vector<core::Grid3> lattices;
    solver->gather(&density, 0);
    solver->gather_state(&lattices, 0);
    ASSERT_EQ(lattices.size(), 19u);
    // Carrier-only operators report an empty state, same collective call.
    std::unique_ptr<AnyDistributed> jacobi =
        make_distributed("jacobi", comm, cfg, initial);
    EXPECT_EQ(jacobi->state_field_count(), 0);
    std::vector<core::Grid3> none{};
    jacobi->gather_state(&none, 0);
    EXPECT_TRUE(none.empty());
  });
}

TEST(DistRegistry, LbmMissingOrIllShapedGeometryAuxThrows) {
  // Mirrors varcoef's missing-kappa contract: when the config asks for
  // aux-decoded geometry, a missing or wrongly shaped aux grid fails
  // loudly with a message naming the requirement.
  const core::Grid3 initial = make_initial(12);
  DistConfig cfg;
  cfg.pipeline.team_size = 1;
  cfg.lbm_geometry_from_aux = true;
  simnet::World world(1);
  world.run([&](simnet::Comm& comm) {
    try {
      (void)make_distributed("dist:lbm", comm, cfg, initial);
      FAIL() << "missing geometry aux grid must not construct";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find("geometry"),
                std::string::npos);
    }
    core::Grid3 ill_shaped(8, 8, 8);
    ill_shaped.fill(1.0);
    EXPECT_THROW((void)make_distributed("dist:lbm", comm, cfg, initial,
                                        &ill_shaped),
                 std::invalid_argument);
    core::Grid3 garbage(12, 12, 12);
    garbage.fill(0.5);  // not a valid 0/1/2 geometry code
    EXPECT_THROW((void)make_distributed("dist:lbm", comm, cfg, initial,
                                        &garbage),
                 std::invalid_argument);
  });
}

TEST(DistRegistry, BadNamesAndMissingKappaThrow) {
  const core::Grid3 initial = make_initial(12);
  DistConfig cfg;
  cfg.pipeline.team_size = 1;
  simnet::World world(1);
  world.run([&](simnet::Comm& comm) {
    try {
      (void)make_distributed("dist:gauss", comm, cfg, initial);
      FAIL() << "unknown operator must not construct";
    } catch (const std::invalid_argument& err) {
      // The listing names each operator's aux-field requirement.
      const std::string what = err.what();
      EXPECT_NE(what.find("kappa"), std::string::npos);
      EXPECT_NE(what.find("geometry"), std::string::npos);
    }
    EXPECT_THROW((void)make_distributed("varcoef", comm, cfg, initial),
                 std::invalid_argument);
  });
}

}  // namespace
}  // namespace tb::dist
