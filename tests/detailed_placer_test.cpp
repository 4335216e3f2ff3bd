#include <gtest/gtest.h>

#include "common/flow_context.h"
#include "common/rng.h"
#include "db/metrics.h"
#include "dp/detailed_placer.h"
#include "gen/netlist_generator.h"
#include "lg/abacus_legalizer.h"

namespace dreamplace {
namespace {

std::unique_ptr<Database> legalizedDesign(std::uint64_t seed,
                                          Index cells = 500,
                                          Index macros = 0) {
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.numMacros = macros;
  cfg.seed = seed;
  auto db = generateNetlist(cfg);
  Rng rng(seed + 100);
  const Box<Coord>& die = db->dieArea();
  for (Index i = 0; i < db->numMovable(); ++i) {
    db->setCellPosition(
        i, rng.uniform(die.xl, die.xh - db->cellWidth(i)),
        rng.uniform(die.yl, die.yh - db->cellHeight(i)));
  }
  AbacusLegalizer().run(*db);
  EXPECT_TRUE(checkLegality(*db).legal);
  return db;
}

TEST(DetailedPlacerTest, NeverIncreasesHpwl) {
  auto db = legalizedDesign(11);
  const double before = hpwl(*db);
  const auto result = DetailedPlacer().run(*db);
  EXPECT_LE(result.finalHpwl, before + 1e-6);
  EXPECT_DOUBLE_EQ(result.initialHpwl, before);
  EXPECT_NEAR(result.finalHpwl, hpwl(*db), 1e-9);
}

TEST(DetailedPlacerTest, ImprovesRandomLegalPlacement) {
  // A randomly legalized placement has plenty of slack; DP must find some.
  auto db = legalizedDesign(13);
  const auto result = DetailedPlacer().run(*db);
  EXPECT_LT(result.finalHpwl, result.initialHpwl * 0.995);
  EXPECT_GT(result.reorderMoves + result.swapMoves, 0);
}

TEST(DetailedPlacerTest, PreservesLegality) {
  auto db = legalizedDesign(17);
  DetailedPlacer().run(*db);
  const auto report = checkLegality(*db);
  EXPECT_TRUE(report.legal) << report.summary();
}

TEST(DetailedPlacerTest, PreservesLegalityWithMacros) {
  auto db = legalizedDesign(19, 600, /*macros=*/5);
  DetailedPlacer().run(*db);
  const auto report = checkLegality(*db);
  EXPECT_TRUE(report.legal) << report.summary();
}

TEST(DetailedPlacerTest, MorePassesNeverHurt) {
  auto db1 = legalizedDesign(23);
  auto db2 = legalizedDesign(23);
  DetailedPlacer::Options one;
  one.passes = 1;
  DetailedPlacer::Options three;
  three.passes = 3;
  const auto r1 = DetailedPlacer(one).run(*db1);
  const auto r3 = DetailedPlacer(three).run(*db2);
  EXPECT_LE(r3.finalHpwl, r1.finalHpwl + 1e-6);
}

TEST(DetailedPlacerTest, WindowSizeFourWorks) {
  auto db = legalizedDesign(29, 300);
  DetailedPlacer::Options options;
  options.windowSize = 4;
  const auto result = DetailedPlacer(options).run(*db);
  EXPECT_LE(result.finalHpwl, result.initialHpwl + 1e-6);
  EXPECT_TRUE(checkLegality(*db).legal);
}

TEST(DetailedPlacerTest, IdempotentOnConvergedPlacement) {
  auto db = legalizedDesign(31, 300);
  DetailedPlacer::Options options;
  options.passes = 30;
  options.convergenceTolerance = 1e-4;  // run to a fixed point
  DetailedPlacer(options).run(*db);
  const double converged = hpwl(*db);
  const auto again = DetailedPlacer(options).run(*db);
  // A second full run should find (almost) nothing at the fixed point.
  EXPECT_NEAR(again.finalHpwl, converged, 0.003 * converged);
}

// DP polls the flow's cancel and deadline per reorder row and per batch
// of swap cells (ISM per set: IsmTest.HonoursCancel).
TEST(DetailedPlacerTest, HonoursCancelAndDeadline) {
  auto db = legalizedDesign(37);
  {
    FlowContext context;
    context.requestCancel();
    FlowContextScope scope(context);
    EXPECT_THROW(DetailedPlacer().run(*db), FlowCancelledError);
  }
  {
    FlowContext context;
    context.setDeadline(std::chrono::steady_clock::now());
    FlowContextScope scope(context);
    EXPECT_THROW(DetailedPlacer().run(*db), FlowTimeoutError);
  }
}

}  // namespace
}  // namespace dreamplace
