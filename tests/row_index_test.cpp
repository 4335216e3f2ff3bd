// Unit tests for the DP row index (dp/row_index.h): after any committed
// exchange every row must stay sorted by x, list each movable cell exactly
// once, and mirror its cells' x and width.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "db/metrics.h"
#include "dp/row_index.h"
#include "gen/netlist_generator.h"
#include "lg/abacus_legalizer.h"

namespace dreamplace {
namespace {

std::unique_ptr<Database> legalizedDesign(std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.numCells = 400;
  cfg.seed = seed;
  auto db = generateNetlist(cfg);
  Rng rng(seed + 100);
  const Box<Coord>& die = db->dieArea();
  for (Index i = 0; i < db->numMovable(); ++i) {
    db->setCellPosition(i, rng.uniform(die.xl, die.xh - db->cellWidth(i)),
                        rng.uniform(die.yl, die.yh - db->cellHeight(i)));
  }
  AbacusLegalizer().run(*db);
  EXPECT_TRUE(checkLegality(*db).legal);
  return db;
}

/// Every row sorted by x; every movable entry listed exactly once, in the
/// row its y maps to.
void expectConsistent(const Database& db, const RowIndex& rows) {
  std::vector<int> seen(db.numCells(), 0);
  for (Index r = 0; r < rows.numRows(); ++r) {
    const RowIndex::Row& row = rows.row(r);
    for (std::size_t k = 0; k < row.cells.size(); ++k) {
      const Index c = row.cells[k];
      if (k > 0) {
        EXPECT_LE(db.cellX(row.cells[k - 1]), db.cellX(c))
            << "row " << r << " unsorted at slot " << k;
      }
      EXPECT_EQ(row.x[k], db.cellX(c)) << "cell " << c;
      EXPECT_EQ(row.width[k], db.cellWidth(c)) << "cell " << c;
      EXPECT_EQ(row.movable[k] != 0, rows.isMovableEntry(c)) << "cell " << c;
      if (rows.isMovableEntry(c)) {
        ++seen[c];
        EXPECT_EQ(rows.rowOf(db.cellY(c)), r) << "cell " << c;
        EXPECT_EQ(rows.rowOfCell(c), r) << "cell " << c;
      }
    }
  }
  for (Index c = 0; c < db.numCells(); ++c) {
    if (rows.isMovableEntry(c)) {
      EXPECT_EQ(seen[c], 1) << "cell " << c;
    }
  }
}

/// Swaps the positions of equal-width cells `a` and `b` in the database
/// and the index, as a committed global swap does.
void swapCells(Database& db, RowIndex& rows, Index a, Index b) {
  const Coord ax = db.cellX(a), ay = db.cellY(a);
  db.setCellPosition(a, db.cellX(b), db.cellY(b));
  db.setCellPosition(b, ax, ay);
  rows.exchange(a, b);
}

TEST(RowIndexTest, ExchangeWithinOneRowKeepsRowSortedAndComplete) {
  auto db = legalizedDesign(5);
  RowIndex rows;
  rows.build(*db);
  expectConsistent(*db, rows);

  // Pairs of equal-width movable cells, several slots apart, in every row.
  int swaps = 0;
  for (Index r = 0; r < rows.numRows(); ++r) {
    const std::vector<Index> cells = rows.row(r).cells;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      for (std::size_t j = i + 2; j < cells.size(); ++j) {
        if (rows.isMovableEntry(cells[i]) && rows.isMovableEntry(cells[j]) &&
            db->cellWidth(cells[i]) == db->cellWidth(cells[j])) {
          swapCells(*db, rows, cells[i], cells[j]);
          ++swaps;
          break;
        }
      }
    }
  }
  EXPECT_GT(swaps, 10);
  expectConsistent(*db, rows);
}

TEST(RowIndexTest, ExchangeAcrossRowsKeepsRowsSortedAndComplete) {
  auto db = legalizedDesign(9);
  RowIndex rows;
  rows.build(*db);

  Rng rng(3);
  int swaps = 0;
  for (int step = 0; step < 2000; ++step) {
    const auto a = static_cast<Index>(rng.uniformInt(db->numMovable()));
    const auto b = static_cast<Index>(rng.uniformInt(db->numMovable()));
    if (a == b || !rows.isMovableEntry(a) || !rows.isMovableEntry(b) ||
        db->cellWidth(a) != db->cellWidth(b)) {
      continue;
    }
    swapCells(*db, rows, a, b);
    ++swaps;
  }
  EXPECT_GT(swaps, 10);
  expectConsistent(*db, rows);
}

}  // namespace
}  // namespace dreamplace
