#include <gtest/gtest.h>

#include "common/flow_context.h"
#include "common/rng.h"
#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "lg/abacus_legalizer.h"
#include "lg/greedy_legalizer.h"
#include "lg/segments.h"

namespace dreamplace {
namespace {

std::unique_ptr<Database> randomizedDesign(std::uint64_t seed,
                                           Index cells = 500,
                                           Index macros = 0,
                                           double util = 0.7) {
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.numMacros = macros;
  cfg.utilization = util;
  cfg.seed = seed;
  auto db = generateNetlist(cfg);
  // Scatter cells continuously (GP-like, overlapping, off-row) so the
  // legalizer has real work.
  Rng rng(seed * 31 + 1);
  const Box<Coord>& die = db->dieArea();
  for (Index i = 0; i < db->numMovable(); ++i) {
    db->setCellPosition(
        i, rng.uniform(die.xl, die.xh - db->cellWidth(i)),
        rng.uniform(die.yl, die.yh - db->cellHeight(i)));
  }
  return db;
}

TEST(SegmentsTest, FullRowsWithoutObstacles) {
  auto db = randomizedDesign(1, 100);
  const auto segments = buildRowSegments(*db);
  // Pads sit on the periphery, so most rows should be one (nearly) full
  // segment; total segment length ~ total row length minus pad widths.
  double total = 0;
  for (const auto& seg : segments) {
    EXPECT_GE(seg.xh - seg.xl, db->siteWidth());
    total += seg.xh - seg.xl;
  }
  double row_total = 0;
  for (const auto& row : db->rows()) {
    row_total += row.xh - row.xl;
  }
  EXPECT_NEAR(total, row_total, db->totalFixedArea() / db->rowHeight() + 8);
}

TEST(SegmentsTest, MacrosSplitRows) {
  auto db = randomizedDesign(2, 600, /*macros=*/4);
  const auto segments = buildRowSegments(*db);
  // No segment may overlap a fixed cell.
  for (const auto& seg : segments) {
    for (Index i = db->numMovable(); i < db->numCells(); ++i) {
      const Box<Coord> box = db->cellBox(i);
      const bool y_overlap =
          box.yl < seg.y + db->rowHeight() && box.yh > seg.y;
      if (y_overlap) {
        EXPECT_LE(overlapLength(seg.xl, seg.xh, box.xl, box.xh), 1e-9)
            << "segment overlaps fixed cell " << db->cellName(i);
      }
    }
  }
}

class LegalizerKindTest : public ::testing::TestWithParam<int> {
 protected:
  LegalizerResult legalize(Database& db) const {
    if (GetParam() == 0) {
      return GreedyLegalizer().run(db);
    }
    return AbacusLegalizer().run(db);
  }
};

TEST_P(LegalizerKindTest, ProducesLegalPlacement) {
  auto db = randomizedDesign(3, 500);
  const auto result = legalize(*db);
  EXPECT_EQ(result.failed, 0);
  EXPECT_EQ(result.placed, db->numMovable());
  const auto report = checkLegality(*db);
  EXPECT_TRUE(report.legal) << report.summary();
}

TEST_P(LegalizerKindTest, LegalWithMacros) {
  auto db = randomizedDesign(4, 600, /*macros=*/5);
  const auto result = legalize(*db);
  EXPECT_EQ(result.failed, 0);
  const auto report = checkLegality(*db);
  EXPECT_TRUE(report.legal) << report.summary();
}

TEST_P(LegalizerKindTest, LegalAtHighUtilization) {
  auto db = randomizedDesign(5, 800, 0, /*util=*/0.9);
  const auto result = legalize(*db);
  EXPECT_EQ(result.failed, 0);
  EXPECT_TRUE(checkLegality(*db).legal);
}

TEST_P(LegalizerKindTest, IdempotentOnLegalInput) {
  auto db = randomizedDesign(6, 400);
  legalize(*db);
  const double first = hpwl(*db);
  const auto second = legalize(*db);
  // Re-legalizing a legal placement must not move cells much.
  EXPECT_LT(second.totalDisplacement,
            0.05 * db->numMovable() * db->rowHeight());
  EXPECT_NEAR(hpwl(*db), first, 0.02 * first);
}

INSTANTIATE_TEST_SUITE_P(Kinds, LegalizerKindTest, ::testing::Values(0, 1),
                         [](const auto& info) {
                           return info.param == 0 ? "Greedy" : "Abacus";
                         });

TEST(AbacusTest, LowerDisplacementThanGreedy) {
  auto db_greedy = randomizedDesign(7, 500);
  auto db_abacus = randomizedDesign(7, 500);
  const auto greedy = GreedyLegalizer().run(*db_greedy);
  const auto abacus = AbacusLegalizer().run(*db_abacus);
  // Abacus minimizes movement within rows; it should beat (or at least
  // match) Tetris packing on total displacement.
  EXPECT_LE(abacus.totalDisplacement, greedy.totalDisplacement * 1.05);
}

TEST(AbacusTest, PreservesHpwlBetter) {
  auto db_greedy = randomizedDesign(8, 500);
  auto db_abacus = randomizedDesign(8, 500);
  const double before = hpwl(*db_greedy);
  GreedyLegalizer().run(*db_greedy);
  AbacusLegalizer().run(*db_abacus);
  const double greedy_delta = std::abs(hpwl(*db_greedy) - before);
  const double abacus_delta = std::abs(hpwl(*db_abacus) - before);
  EXPECT_LE(abacus_delta, greedy_delta * 1.10);
}

TEST(LegalizerTest, SiteAlignmentExact) {
  auto db = randomizedDesign(9, 300);
  AbacusLegalizer().run(*db);
  const Coord site = db->siteWidth();
  const Coord base = db->rows().front().xl;
  for (Index i = 0; i < db->numMovable(); ++i) {
    const double offset = (db->cellX(i) - base) / site;
    EXPECT_NEAR(offset, std::round(offset), 1e-9) << db->cellName(i);
  }
}

// Abacus polls the flow's cancel and deadline between cell batches, so a
// job past its deadline stops inside LG instead of at the next stage.
TEST(AbacusTest, HonoursDeadline) {
  auto db = randomizedDesign(23);
  FlowContext context;
  context.setDeadline(std::chrono::steady_clock::now());
  FlowContextScope scope(context);
  EXPECT_THROW(AbacusLegalizer().run(*db), FlowTimeoutError);
}

}  // namespace
}  // namespace dreamplace
