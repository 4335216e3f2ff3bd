// Row occupancy for detailed placement: the cells of each row sorted by x.
//
// Fixed cells (pads, macros) and movable macros are included as immovable
// entries in every row band they overlap, so window and swap moves never
// pack over them. Standard movable cells ("movable entries") sit in exactly
// one row, and a cell -> (row, slot) map locates each of them in O(1), so a
// committed move rewrites the index in place instead of searching rows.
//
// Each row also mirrors its entries' x, width and movable flag in slot
// order, so a swap probe (a binary search on x plus a few neighbour reads)
// touches only contiguous per-row arrays. An equal-width exchange leaves
// those arrays unchanged: the two cells trade positions, so each slot's x
// and width stay what they were.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/log.h"
#include "db/database.h"
#include "lg/macro_legalizer.h"

namespace dreamplace {

class RowIndex {
 public:
  struct Row {
    std::vector<Index> cells;
    std::vector<Coord> x;       ///< cellX per slot.
    std::vector<Coord> width;   ///< cellWidth per slot.
    std::vector<char> movable;  ///< isMovableEntry per slot.
  };

  /// Rebuilds the index from the database's current positions.
  void build(const Database& db) {
    rowHeight_ = db.rowHeight();
    yBase_ = db.rows().front().y;
    rows_.assign(db.rows().size(), {});
    movableEntry_.assign(db.numCells(), 0);
    cellRow_.assign(db.numCells(), kInvalidIndex);
    cellSlot_.assign(db.numCells(), kInvalidIndex);
    const auto num_rows = static_cast<Index>(rows_.size());
    for (Index i = 0; i < db.numCells(); ++i) {
      // Standard movable cells are DP-movable; fixed cells and movable
      // macros are obstacles spanning every row band they overlap.
      if (db.isMovable(i) && !isMovableMacro(db, i)) {
        movableEntry_[i] = 1;
        rows_[rowOf(db.cellY(i))].cells.push_back(i);
        continue;
      }
      const Box<Coord> box = db.cellBox(i);
      const Index r0 = rowOf(box.yl + 1e-9);
      const Index r1 = rowOf(box.yh - 1e-9);
      for (Index r = std::max<Index>(0, r0);
           r <= std::min(num_rows - 1, r1); ++r) {
        rows_[r].cells.push_back(i);
      }
    }
    for (Index r = 0; r < num_rows; ++r) {
      Row& row = rows_[r];
      std::sort(row.cells.begin(), row.cells.end(), [&](Index a, Index b) {
        return db.cellX(a) < db.cellX(b);
      });
      row.x.resize(row.cells.size());
      row.width.resize(row.cells.size());
      row.movable.resize(row.cells.size());
      for (std::size_t k = 0; k < row.cells.size(); ++k) {
        const Index c = row.cells[k];
        row.x[k] = db.cellX(c);
        row.width[k] = db.cellWidth(c);
        row.movable[k] = movableEntry_[c];
        if (movableEntry_[c]) {
          cellRow_[c] = r;
          cellSlot_[c] = static_cast<Index>(k);
        }
      }
    }
  }

  Index numRows() const { return static_cast<Index>(rows_.size()); }
  const Row& row(Index r) const { return rows_[r]; }
  /// Row of movable entry `cell`.
  Index rowOfCell(Index cell) const { return cellRow_[cell]; }
  bool isMovableEntry(Index cell) const { return movableEntry_[cell] != 0; }

  /// Row band containing y (clamped to the die's rows).
  Index rowOf(Coord y) const {
    const auto r = static_cast<Index>(std::round((y - yBase_) / rowHeight_));
    return std::clamp<Index>(r, 0, numRows() - 1);
  }

  /// Puts movable entry `cell`, already moved in `db`, into slot `k` of
  /// row `r` (a reorder commit permutes a window's cells among the
  /// window's own slots).
  void place(const Database& db, Index r, std::size_t k, Index cell) {
    DP_ASSERT(isMovableEntry(cell));
    Row& row = rows_[r];
    row.cells[k] = cell;
    row.x[k] = db.cellX(cell);
    row.width[k] = db.cellWidth(cell);
    cellRow_[cell] = r;
    cellSlot_[cell] = static_cast<Index>(k);
  }

  /// Exchanges the slots of equal-width movable entries `a` and `b` (a
  /// committed swap of their positions), in the same row or not.
  void exchange(Index a, Index b) {
    DP_ASSERT(isMovableEntry(a) && isMovableEntry(b));
    const Index ra = cellRow_[a], sa = cellSlot_[a];
    const Index rb = cellRow_[b], sb = cellSlot_[b];
    DP_ASSERT(rows_[ra].width[sa] == rows_[rb].width[sb]);
    rows_[ra].cells[sa] = b;
    rows_[rb].cells[sb] = a;
    std::swap(cellRow_[a], cellRow_[b]);
    std::swap(cellSlot_[a], cellSlot_[b]);
  }

 private:
  std::vector<Row> rows_;
  std::vector<char> movableEntry_;  ///< Per cell: participates in DP moves.
  std::vector<Index> cellRow_;      ///< Movable entries: row, else invalid.
  std::vector<Index> cellSlot_;     ///< Movable entries: slot in its row.
  Coord rowHeight_ = 0;
  Coord yBase_ = 0;
};

}  // namespace dreamplace
