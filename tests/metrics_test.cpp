#include <gtest/gtest.h>

#include <limits>

#include "db/database.h"
#include "db/metrics.h"

namespace dreamplace {
namespace {

/// Two cells, one 2-pin net with centered pins; HPWL is the center
/// distance in x plus in y.
Database makePairDb(Coord bx, Coord by) {
  Database db;
  const Index a = db.addCell("a", 2, 12, true);
  const Index b = db.addCell("b", 2, 12, true);
  const Index n = db.addNet("n");
  db.addPin(n, a, 0, 0);
  db.addPin(n, b, 0, 0);
  db.setDieArea({0, 0, 200, 120});
  for (int r = 0; r < 10; ++r) {
    db.addRow({static_cast<Coord>(r * 12), 12, 0, 200, 1});
  }
  db.setCellPosition(a, 10, 0);
  db.setCellPosition(b, bx, by);
  db.finalize();
  return db;
}

TEST(MetricsTest, HpwlHandComputed) {
  Database db = makePairDb(50, 24);
  // Centers: (11, 6) and (51, 30) => |dx| + |dy| = 40 + 24.
  EXPECT_DOUBLE_EQ(hpwl(db), 64.0);
}

TEST(MetricsTest, HpwlZeroWhenCoincident) {
  Database db = makePairDb(10, 0);
  EXPECT_DOUBLE_EQ(hpwl(db), 0.0);
}

TEST(MetricsTest, SinglePinNetsIgnored) {
  Database db;
  const Index a = db.addCell("a", 2, 12, true);
  const Index n = db.addNet("n");
  db.addPin(n, a, 0, 0);
  const Index n2 = db.addNet("n2");
  const Index b = db.addCell("b", 2, 12, true);
  db.addPin(n2, a, 0, 0);
  db.addPin(n2, b, 0, 0);
  db.setDieArea({0, 0, 100, 24});
  db.addRow({0, 12, 0, 100, 1});
  db.addRow({12, 12, 0, 100, 1});
  db.setCellPosition(a, 0, 0);
  db.setCellPosition(b, 10, 0);
  db.finalize();
  EXPECT_DOUBLE_EQ(hpwl(db), 10.0);  // only the 2-pin net counts
}

TEST(MetricsTest, ExternalArrayHpwlMatchesCommitted) {
  Database db = makePairDb(50, 24);
  std::vector<double> x(db.numMovable()), y(db.numMovable());
  for (Index i = 0; i < db.numMovable(); ++i) {
    x[i] = db.cellX(i);
    y[i] = db.cellY(i);
  }
  EXPECT_DOUBLE_EQ(hpwl(db, x, y), hpwl(db));
  // Moving b in the external view changes the external HPWL only.
  x[1] += 10;
  EXPECT_DOUBLE_EQ(hpwl(db, x, y), hpwl(db) + 10);
}

TEST(MetricsTest, NetHpwlSumsToTotal) {
  Database db = makePairDb(50, 24);
  double sum = 0;
  for (Index e = 0; e < db.numNets(); ++e) {
    sum += netHpwl(db, e);
  }
  EXPECT_DOUBLE_EQ(sum, hpwl(db));
}

TEST(MetricsTest, OverlapAreaDetectsOverlap) {
  Database db = makePairDb(10, 0);  // identical positions, full overlap
  EXPECT_DOUBLE_EQ(totalOverlapArea(db), 2 * 12.0);
  Database db2 = makePairDb(12, 0);  // abutting
  EXPECT_DOUBLE_EQ(totalOverlapArea(db2), 0.0);
}

TEST(MetricsTest, LegalityLegalCase) {
  Database db = makePairDb(50, 24);
  const LegalityReport report = checkLegality(db);
  EXPECT_TRUE(report.legal) << report.summary();
}

TEST(MetricsTest, LegalityDetectsOffRowOffSiteOutOfRegion) {
  Database db = makePairDb(50.5, 25);  // off-site x, off-row y
  const LegalityReport report = checkLegality(db);
  EXPECT_FALSE(report.legal);
  EXPECT_EQ(report.offSite, 1);
  EXPECT_EQ(report.offRow, 1);

  Database db2 = makePairDb(199, 0);  // b sticks out of the die
  const LegalityReport report2 = checkLegality(db2);
  EXPECT_EQ(report2.outOfRegion, 1);
}

TEST(MetricsTest, NonFinitePositionIsOutOfRegion) {
  // Every comparison with NaN is false: without an explicit finiteness
  // check a NaN cell would pass the region, row, site and overlap tests.
  for (const Coord bad : {std::numeric_limits<Coord>::quiet_NaN(),
                          std::numeric_limits<Coord>::infinity()}) {
    Database db = makePairDb(bad, 24);
    const LegalityReport report = checkLegality(db);
    EXPECT_FALSE(report.legal) << report.summary();
    EXPECT_EQ(report.outOfRegion, 1) << report.summary();
  }
}

TEST(MetricsTest, LegalityDetectsOverlap) {
  Database db = makePairDb(11, 0);  // a at 10 (width 2) overlaps b at 11
  const LegalityReport report = checkLegality(db);
  EXPECT_FALSE(report.legal);
  EXPECT_GE(report.overlaps, 1);
}

TEST(MetricsTest, AnchoredBoundIsFinite) {
  Database db = makePairDb(50, 24);
  const double bound = anchoredHpwlBound(db);
  EXPECT_GE(bound, 0.0);
}

}  // namespace
}  // namespace dreamplace
