// The variant registry as an explicit re-entrant object: concurrent
// meta-variant registration and lookup must be race-free (the old
// function-local static map had no locking), meta factories may
// re-enter make() while resolving, and the process-global instance
// stays a thin shim over one shared Registry.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "support/grid_test_utils.hpp"

namespace tb::core {
namespace {

TEST(RegistryThreads, ConcurrentRegistrationAndLookup) {
  Registry& reg = Registry::global();
  constexpr int kThreads = 8;
  constexpr int kNamesPerThread = 16;

  std::atomic<bool> go{false};
  std::atomic<int> lookups{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < kNamesPerThread; ++i) {
        const std::string name =
            "mt-meta-" + std::to_string(t) + "-" + std::to_string(i);
        reg.register_meta(
            name, [](std::string_view op, SolverConfig cfg,
                     const GridSource& initial, const GridSource& kappa) {
              cfg.variant = Variant::kReference;
              return Registry::global().make("reference", op,
                                             std::move(cfg), initial,
                                             kappa);
            });
        // Interleave reads with the writes of every other thread.
        if (reg.is_meta(name)) ++lookups;
        (void)reg.meta_variants();
        (void)reg.selectable();
      }
    });
  go = true;
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(lookups.load(), kThreads * kNamesPerThread);
  const std::vector<std::string> metas = reg.meta_variants();
  int mine = 0;
  for (const std::string& m : metas)
    if (m.rfind("mt-meta-", 0) == 0) ++mine;
  EXPECT_EQ(mine, kThreads * kNamesPerThread);
}

TEST(RegistryThreads, MetaFactoryMayReenterMake) {
  Registry& reg = Registry::global();
  reg.register_meta(
      "reenter-reference",
      [](std::string_view op, SolverConfig cfg, const GridSource& initial,
         const GridSource& kappa) {
        // Re-entering make() under the registration lock would
        // deadlock; the registry must invoke factories unlocked.
        return Registry::global().make("reference", op, std::move(cfg),
                                       initial, kappa);
      });

  const Grid3 initial = tb::test::make_initial(8);
  StencilSolver solver =
      reg.make("reenter-reference", "jacobi", SolverConfig{}, initial,
               nullptr);
  solver.advance(2);

  StencilSolver fresh =
      reg.make("reference", "jacobi", SolverConfig{}, initial, nullptr);
  fresh.advance(2);
  tb::test::expect_grids_bitwise_equal(solver.solution(),
                                       fresh.solution());
}

TEST(RegistryThreads, ConcreteNamesAreReserved) {
  EXPECT_THROW(Registry::global().register_meta(
                   "baseline",
                   [](std::string_view, SolverConfig, const GridSource&,
                      const GridSource&) -> StencilSolver {
                     throw std::logic_error("never called");
                   }),
               std::invalid_argument);
}

TEST(RegistryThreads, UnknownNamesStillThrow) {
  const Grid3 initial = tb::test::make_initial(6);
  EXPECT_THROW(Registry::global().make("no-such-variant", "jacobi",
                                       SolverConfig{}, initial, nullptr),
               std::invalid_argument);
  EXPECT_THROW(Registry::global().make("baseline", "no-such-op",
                                       SolverConfig{}, initial, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace tb::core
