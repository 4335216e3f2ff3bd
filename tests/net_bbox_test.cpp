// Unit tests for the DP net-bbox layer (dp/net_bbox.h): every value the
// cache or a move table produces must equal a full rescan bit-for-bit
// (EXPECT_EQ on doubles, no tolerance) — that is the property that lets
// the DP back-end score candidates from tables without perturbing any
// placement result. Sums are compared against brute-force values added in
// the order the placer adds them: ascending net order for swaps and
// reorder windows, the cell's pin order for ISM cost entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/metrics.h"
#include "dp/net_bbox.h"
#include "dp/row_index.h"
#include "gen/netlist_generator.h"
#include "lg/abacus_legalizer.h"

namespace dreamplace {
namespace {

std::unique_ptr<Database> synthDesign(std::uint64_t seed, Index cells = 300) {
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.numPads = 8;
  cfg.utilization = 0.7;
  cfg.seed = seed;
  return generateNetlist(cfg);
}

/// A legalized copy of a synthetic design with extra nets that the
/// generator does not make: nets holding two pins of one movable cell and
/// single-pin nets. Cells keep their indices.
std::unique_ptr<Database> legalizedWithSharedPins(std::uint64_t seed) {
  auto src = synthDesign(seed);
  auto db = std::make_unique<Database>();
  for (Index c = 0; c < src->numCells(); ++c) {
    db->addCell(src->cellName(c), src->cellWidth(c), src->cellHeight(c),
                src->isMovable(c));
  }
  for (Index e = 0; e < src->numNets(); ++e) {
    db->addNet(src->netName(e), src->netWeight(e));
    for (Index p = src->netPinBegin(e); p < src->netPinEnd(e); ++p) {
      db->addPin(e, src->pinCell(p), src->pinOffsetX(p), src->pinOffsetY(p));
    }
  }
  Rng rng(seed + 7);
  const auto movable = static_cast<std::uint32_t>(src->numMovable());
  for (int k = 0; k < 40; ++k) {
    const Index net = db->addNet("shared" + std::to_string(k), 1.0 + k % 3);
    const auto cell = static_cast<Index>(rng.uniformInt(movable));
    const Coord hw = src->cellWidth(cell) / 2;
    db->addPin(net, cell, -hw / 2, 1.0);
    db->addPin(net, cell, hw / 2, -1.0);
    const int others = static_cast<int>(rng.uniformInt(3));
    for (int i = 0; i < others; ++i) {
      db->addPin(net, static_cast<Index>(rng.uniformInt(movable)), 0.0, 0.0);
    }
  }
  for (int k = 0; k < 10; ++k) {
    const Index net = db->addNet("single" + std::to_string(k));
    db->addPin(net, static_cast<Index>(rng.uniformInt(movable)), 0.0, 0.0);
  }
  db->setDieArea(src->dieArea());
  for (const Row& row : src->rows()) {
    db->addRow(row);
  }
  for (Index c = 0; c < src->numCells(); ++c) {
    db->setCellPosition(c, src->cellX(c), src->cellY(c));
  }
  db->finalize();
  AbacusLegalizer().run(*db);
  EXPECT_TRUE(checkLegality(*db).legal);
  return db;
}

/// Brute-force reference: weighted HPWL of `net` with the given cells'
/// positions overridden, by scanning every pin.
double scanNetHpwl(const Database& db, Index net,
                   const std::vector<Index>& ovCells,
                   const std::vector<Coord>& ovX,
                   const std::vector<Coord>& ovY) {
  if (db.netPinEnd(net) - db.netPinBegin(net) < 2) {
    return 0.0;
  }
  double xl = std::numeric_limits<double>::infinity();
  double xh = -xl, yl = xl, yh = -xl;
  for (Index p = db.netPinBegin(net); p < db.netPinEnd(net); ++p) {
    const Index c = db.pinCell(p);
    double base_x = db.cellX(c);
    double base_y = db.cellY(c);
    for (std::size_t k = 0; k < ovCells.size(); ++k) {
      if (ovCells[k] == c) {
        base_x = ovX[k];
        base_y = ovY[k];
        break;
      }
    }
    const double px = base_x + db.cellWidth(c) / 2 + db.pinOffsetX(p);
    const double py = base_y + db.cellHeight(c) / 2 + db.pinOffsetY(p);
    xl = std::min(xl, px);
    xh = std::max(xh, px);
    yl = std::min(yl, py);
    yh = std::max(yh, py);
  }
  return db.netWeight(net) * ((xh - xl) + (yh - yl));
}

/// Ascending, deduplicated union of the nets of `cells`.
std::vector<Index> netUnion(const Database& db,
                            const std::vector<Index>& cells) {
  std::vector<Index> nets;
  for (const Index c : cells) {
    for (Index s = db.cellPinBegin(c); s < db.cellPinEnd(c); ++s) {
      nets.push_back(db.pinNet(db.cellPinAt(s)));
    }
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

/// Brute-force sum over `nets` in list order.
double scanSum(const Database& db, const std::vector<Index>& nets,
               const std::vector<Index>& ovCells,
               const std::vector<Coord>& ovX, const std::vector<Coord>& ovY) {
  double total = 0.0;
  for (const Index e : nets) {
    total += scanNetHpwl(db, e, ovCells, ovX, ovY);
  }
  return total;
}

/// Moves random movable cells by a few rows, keeping `cache` in lockstep
/// (committed moves, as DP makes them between scoring calls).
void randomCommittedMoves(Database& db, NetBboxCache& cache, Rng& rng,
                          int count) {
  const Coord h = db.rowHeight();
  for (int step = 0; step < count; ++step) {
    const auto cell = static_cast<Index>(rng.uniformInt(db.numMovable()));
    const Coord old_x = db.cellX(cell);
    const Coord old_y = db.cellY(cell);
    db.setCellPosition(cell, old_x + rng.uniform(-4 * h, 4 * h),
                       old_y + rng.uniform(-4 * h, 4 * h));
    cache.moveCell(db, cell, old_x, old_y);
  }
}

TEST(NetBboxCacheTest, TracksRandomMoveSequenceExactly) {
  auto db = synthDesign(11);
  NetBboxCache cache;
  cache.build(*db);

  // Random walk: move random cells (including exact revisits of previous
  // positions, which stress the boundary-multiplicity bookkeeping) and
  // keep the cache in lockstep.
  Rng rng(7);
  const Coord h = db->rowHeight();
  for (int step = 0; step < 500; ++step) {
    const auto cell =
        static_cast<Index>(rng.uniformInt(db->numMovable()));
    const Coord old_x = db->cellX(cell);
    const Coord old_y = db->cellY(cell);
    Coord nx = old_x + rng.uniform(-4 * h, 4 * h);
    Coord ny = old_y + rng.uniform(-4 * h, 4 * h);
    if (step % 5 == 0) {
      nx = old_x;  // pure-y move: x boundaries must survive untouched
    }
    db->setCellPosition(cell, nx, ny);
    cache.moveCell(*db, cell, old_x, old_y);
  }

  for (Index e = 0; e < db->numNets(); ++e) {
    EXPECT_EQ(cache.netHpwl(*db, e), scanNetHpwl(*db, e, {}, {}, {}))
        << "net " << e;
  }
  // The walk above is long enough that some move must have taken a
  // boundary away (rescan) and some must not have (pure delta).
  EXPECT_GT(cache.maintenanceRescans, 0);
}

TEST(NetBboxCacheTest, TracksCellsWithSeveralPinsOnOneNet) {
  // A move whose first pin on a net forces a rescan must not fold the
  // cell's later pins on that net a second time.
  for (const std::uint64_t seed : {17, 43, 59}) {
    auto db = legalizedWithSharedPins(seed);
    NetBboxCache cache;
    cache.build(*db);
    Rng rng(seed + 1);
    randomCommittedMoves(*db, cache, rng, 300);
    for (Index e = 0; e < db->numNets(); ++e) {
      EXPECT_EQ(cache.netHpwl(*db, e), scanNetHpwl(*db, e, {}, {}, {}))
          << "net " << e << " seed " << seed;
    }
  }
}

TEST(MoveTableTest, FoldsMatchBruteForce) {
  auto db = synthDesign(23);
  NetBboxCache cache;
  cache.build(*db);
  Rng rng(3);
  randomCommittedMoves(*db, cache, rng, 200);

  MoveTable table;
  BboxCounts counts;
  const Coord h = db->rowHeight();
  std::vector<Index> cells;
  std::vector<Coord> xs, ys;
  for (int trial = 0; trial < 200; ++trial) {
    cells.clear();
    xs.clear();
    const int k = 1 + static_cast<int>(rng.uniformInt(3));
    for (int i = 0; i < k; ++i) {
      const auto c = static_cast<Index>(rng.uniformInt(db->numMovable()));
      if (std::find(cells.begin(), cells.end(), c) != cells.end()) {
        continue;
      }
      cells.push_back(c);
      xs.push_back(db->cellX(c) + rng.uniform(-6 * h, 6 * h));
    }
    const Coord y = db->cellY(cells[0]) + rng.uniform(-6 * h, 6 * h);
    ys.assign(cells.size(), y);
    table.build(*db, cells.data(), static_cast<int>(cells.size()),
                kInvalidIndex, counts);
    // The table lists exactly the cells' net union, ascending, each with
    // the bbox of the pins that are not on the cells.
    const std::vector<Index> nets = netUnion(*db, cells);
    ASSERT_EQ(table.nets().size(), nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const MoveTable::Net& n = table.nets()[i];
      ASSERT_EQ(n.net, nets[i]);
      double xl = std::numeric_limits<double>::infinity();
      double xh = -xl, yl = xl, yh = -xl;
      bool rest = false;
      for (Index p = db->netPinBegin(n.net); p < db->netPinEnd(n.net); ++p) {
        if (std::find(cells.begin(), cells.end(), db->pinCell(p)) ==
            cells.end()) {
          rest = true;
          xl = std::min(xl, db->pinX(p));
          xh = std::max(xh, db->pinX(p));
          yl = std::min(yl, db->pinY(p));
          yh = std::max(yh, db->pinY(p));
        }
      }
      ASSERT_EQ(n.hasRest, rest) << "net " << n.net;
      ASSERT_EQ(n.xl, xl) << "net " << n.net;
      ASSERT_EQ(n.xh, xh) << "net " << n.net;
      ASSERT_EQ(n.yl, yl) << "net " << n.net;
      ASSERT_EQ(n.yh, yh) << "net " << n.net;
    }
    table.setRowY(y);
    ASSERT_EQ(table.sumHpwlInRow(xs.data(), counts),
              scanSum(*db, nets, cells, xs, ys))
        << "trial " << trial;
  }
  EXPECT_GT(counts.rescans, 0);
}

TEST(MoveTableTest, ReusedTableMatchesFreshTable) {
  // One table scores many positions of a fixed cell set; each score must
  // equal a table built fresh for it and the brute-force scan.
  auto db = synthDesign(41);
  NetBboxCache cache;
  cache.build(*db);
  const std::vector<Index> cells = {3, static_cast<Index>(
                                           db->numMovable() - 5)};
  const std::vector<Index> nets = netUnion(*db, cells);
  MoveTable reused, fresh;
  BboxCounts counts;
  reused.build(*db, cells.data(), 2, kInvalidIndex, counts);
  Rng rng(5);
  const Coord h = db->rowHeight();
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Coord> xs;
    for (const Index c : cells) {
      xs.push_back(db->cellX(c) + rng.uniform(-6 * h, 6 * h));
    }
    const Coord y = db->cellY(cells[0]) + rng.uniform(-6 * h, 6 * h);
    const std::vector<Coord> ys(cells.size(), y);
    reused.setRowY(y);
    fresh.build(*db, cells.data(), 2, kInvalidIndex, counts);
    fresh.setRowY(y);
    const double value = reused.sumHpwlInRow(xs.data(), counts);
    ASSERT_EQ(value, fresh.sumHpwlInRow(xs.data(), counts))
        << "trial " << trial;
    ASSERT_EQ(value, scanSum(*db, nets, cells, xs, ys)) << "trial " << trial;
  }
}

TEST(MoveTableTest, SumsAccumulateInAscendingNetOrder) {
  auto db = synthDesign(31, 200);
  NetBboxCache cache;
  cache.build(*db);
  const auto cell = static_cast<Index>(db->numMovable() / 2);
  const std::vector<Coord> xs = {db->cellX(cell) + 3 * db->rowHeight()};
  const std::vector<Coord> ys = {db->cellY(cell)};
  MoveTable table;
  BboxCounts counts;
  table.build(*db, &cell, 1, kInvalidIndex, counts);
  const std::vector<Index> nets = netUnion(*db, {cell});
  table.setRowY(ys[0]);
  EXPECT_EQ(table.sumHpwlInRow(xs.data(), counts),
            scanSum(*db, nets, {cell}, xs, ys));
  EXPECT_EQ(table.cachedHpwl(cache, counts), scanSum(*db, nets, {}, {}, {}));
  EXPECT_GT(counts.deltas, 0);
}

/// Checks scoreSwap for exchanging a and b against brute force.
void expectSwapMatches(const Database& db, const NetBboxCache& cache,
                       Index a, Index b) {
  MoveTable ta, tb;
  BboxCounts counts;
  ta.build(db, &a, 1, kInvalidIndex, counts);
  tb.build(db, &b, 1, a, counts);
  const SwapScore score = scoreSwap(cache, ta, db.cellX(a), db.cellY(a), tb,
                                    db.cellX(b), db.cellY(b), counts);
  const std::vector<Index> nets = netUnion(db, {a, b});
  EXPECT_EQ(score.before, scanSum(db, nets, {}, {}, {}))
      << "cells " << a << ", " << b;
  EXPECT_EQ(score.after,
            scanSum(db, nets, {a, b}, {db.cellX(b), db.cellX(a)},
                    {db.cellY(b), db.cellY(a)}))
      << "cells " << a << ", " << b;
}

TEST(MoveTableTest, SwapScoresMatchBruteForce) {
  auto db = legalizedWithSharedPins(17);
  NetBboxCache cache;
  cache.build(*db);
  Rng rng(13);
  randomCommittedMoves(*db, cache, rng, 100);
  RowIndex rows;
  rows.build(*db);

  int same_row = 0, cross_row = 0, shared = 0;
  // Same-row pairs: neighbours and far cells of each row.
  for (Index r = 0; r < rows.numRows(); ++r) {
    std::vector<Index> movable;
    for (const Index c : rows.row(r).cells) {
      if (rows.isMovableEntry(c)) {
        movable.push_back(c);
      }
    }
    for (std::size_t i = 1; i < movable.size(); i += 3) {
      expectSwapMatches(*db, cache, movable[i - 1], movable[i]);
      expectSwapMatches(*db, cache, movable[i], movable.front());
      same_row += 2;
    }
  }
  // Cross-row pairs.
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = static_cast<Index>(rng.uniformInt(db->numMovable()));
    const auto b = static_cast<Index>(rng.uniformInt(db->numMovable()));
    if (a != b && db->cellY(a) != db->cellY(b)) {
      expectSwapMatches(*db, cache, a, b);
      ++cross_row;
    }
  }
  // Pairs sharing a net, in both roles.
  for (Index e = 0; e < db->numNets(); ++e) {
    const Index p0 = db->netPinBegin(e);
    for (Index p = p0 + 1; p < db->netPinEnd(e); ++p) {
      const Index a = db->pinCell(p0);
      const Index b = db->pinCell(p);
      if (a != b && db->isMovable(a) && db->isMovable(b)) {
        expectSwapMatches(*db, cache, a, b);
        expectSwapMatches(*db, cache, b, a);
        ++shared;
        break;
      }
    }
  }
  EXPECT_GT(same_row, 20);
  EXPECT_GT(cross_row, 100);
  EXPECT_GT(shared, 50);
}

TEST(MoveTableTest, WindowPermutationCostsMatchBruteForce) {
  auto db = legalizedWithSharedPins(29);
  NetBboxCache cache;
  cache.build(*db);
  Rng rng(19);
  randomCommittedMoves(*db, cache, rng, 50);
  // Re-legalize so rows are clean again; the cache follows a rebuild.
  AbacusLegalizer().run(*db);
  cache.build(*db);
  RowIndex rows;
  rows.build(*db);

  MoveTable table;
  BboxCounts counts;
  int windows = 0;
  for (const int w : {3, 4}) {
    for (Index r = 0; r < rows.numRows(); r += 2) {
      const RowIndex::Row& row = rows.row(r);
      for (std::size_t start = 0; start + w <= row.cells.size();
           start += w) {
        std::vector<Index> cells(row.cells.begin() + start,
                                 row.cells.begin() + start + w);
        if (!std::all_of(cells.begin(), cells.end(), [&](Index c) {
              return rows.isMovableEntry(c);
            })) {
          continue;
        }
        table.build(*db, cells.data(), w, kInvalidIndex, counts);
        const std::vector<Index> nets = netUnion(*db, cells);
        ASSERT_EQ(table.cachedHpwl(cache, counts),
                  scanSum(*db, nets, {}, {}, {}));
        const Coord y = db->cellY(cells[0]);
        table.setRowY(y);
        std::vector<int> perm(w);
        std::iota(perm.begin(), perm.end(), 0);
        std::vector<Coord> xs(w), ys(w, y);
        do {
          Coord x = row.x[start];
          for (int k = 0; k < w; ++k) {
            xs[perm[k]] = x;
            x += db->cellWidth(cells[perm[k]]);
          }
          const double expected = scanSum(*db, nets, cells, xs, ys);
          ASSERT_EQ(table.sumHpwlInRow(xs.data(), counts), expected);
        } while (std::next_permutation(perm.begin(), perm.end()));
        ++windows;
      }
    }
  }
  EXPECT_GT(windows, 20);
}

TEST(MoveTableTest, IsmCostEntriesMatchBruteForce) {
  auto db = legalizedWithSharedPins(37);
  NetBboxCache cache;
  cache.build(*db);
  Rng rng(23);
  randomCommittedMoves(*db, cache, rng, 100);

  // Cells with two pins on one net lead every set.
  std::vector<Index> doubled;
  for (Index c = 0; c < db->numMovable(); ++c) {
    const auto num_pins =
        static_cast<std::size_t>(db->cellPinEnd(c) - db->cellPinBegin(c));
    if (netUnion(*db, {c}).size() < num_pins) {
      doubled.push_back(c);
    }
  }
  ASSERT_FALSE(doubled.empty());

  MoveTable table;
  BboxCounts counts;
  int double_pin_rows = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Index> set = {doubled[trial % doubled.size()]};
    for (int i = 1; i < 8; ++i) {
      set.push_back(static_cast<Index>(rng.uniformInt(db->numMovable())));
    }
    for (const Index cell : set) {
      table.build(*db, &cell, 1, kInvalidIndex, counts);
      double_pin_rows +=
          std::find(doubled.begin(), doubled.end(), cell) != doubled.end();
      for (const Index slot : set) {
        const std::vector<Coord> xs = {db->cellX(slot)};
        const std::vector<Coord> ys = {db->cellY(slot)};
        // The cell's pins in pin order: a net holding two of them counts
        // twice.
        double expected = 0.0;
        for (Index s = db->cellPinBegin(cell); s < db->cellPinEnd(cell);
             ++s) {
          expected +=
              scanNetHpwl(*db, db->pinNet(db->cellPinAt(s)), {cell}, xs, ys);
        }
        ASSERT_EQ(table.pinOrderHpwl(xs[0], ys[0], counts), expected)
            << "cell " << cell << " at slot of " << slot;
      }
    }
  }
  EXPECT_GE(double_pin_rows, 60);
}

}  // namespace
}  // namespace dreamplace
