// Net bounding boxes for scoring detailed-placement moves.
//
// Every DP move candidate asks "what is the HPWL of these nets with one or
// a few cells displaced?". Rescanning every pin of every incident net per
// candidate is O(sum of net degrees) work. Two structures avoid it:
//
//  * NetBboxCache keeps, per net, the exact bounding box of its pins plus
//    the *multiplicity* of pins on each boundary, updated after every
//    committed move in O(pins of the moved cell) — with an exact per-net
//    rescan only when a move takes away the last pin on a boundary. It
//    answers the "before" side of every move: a net whose pins all stay
//    put evaluates straight from its cached box.
//  * MoveTable holds what stays fixed while one set of cells is tried at
//    many positions: for each net of the cells (ascending, deduplicated)
//    its *complement box* — the bbox of its pins NOT on the moving or
//    excluded cells — its weight and degree flag, and the moving cells'
//    pin offsets on it. A table is built once per fixed cell set (a swap
//    source cell, a swap candidate, a reorder window, an ISM cost row);
//    scoring a position is then a min/max fold of the moved pins onto the
//    complement boxes, never a rescan.
//
// Pin positions are computed as x + cellWidth/2 + pinOffset, the same
// expression as Database::pinX/pinY, and min/max over doubles are exact,
// order-independent selections, so a complement box extended by the moved
// pins equals a full rescan bit-for-bit. Sums run over nets in ascending
// order. The back-end therefore reproduces the full-scan evaluator's
// values exactly, which is what lets the determinism suite keep
// EXPECT_EQ-exact HPWL across thread counts.
//
// Counts are accumulated in a caller-owned BboxCounts so hot loops never
// touch the registry; callers flush them into dp/bbox_delta and
// dp/bbox_rescan at phase boundaries.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "db/database.h"

namespace dreamplace {

/// Exact per-net bounding boxes with boundary multiplicities, kept in
/// lockstep with the database by moveCell() calls after each committed
/// move.
class NetBboxCache {
 public:
  struct Box {
    double xl = 0, xh = 0, yl = 0, yh = 0;
    // Number of pins whose coordinate equals the respective boundary.
    std::int32_t nxl = 0, nxh = 0, nyl = 0, nyh = 0;
  };

  /// Rebuilds every net's box from the database's current positions.
  void build(const Database& db);

  /// Updates the boxes of `cell`'s nets after db.setCellPosition(cell, …).
  /// (oldX, oldY) is the position the cell had when the cache last saw it.
  /// Boundary-losing pin moves trigger an exact per-net rescan.
  void moveCell(const Database& db, Index cell, Coord oldX, Coord oldY);

  const Box& box(Index net) const { return boxes_[net]; }

  /// Exact weighted HPWL of one net from the cache (0 for degree < 2,
  /// matching the full-scan evaluator's skip).
  double netHpwl(const Database& db, Index net) const {
    if (db.netPinEnd(net) - db.netPinBegin(net) < 2) {
      return 0.0;
    }
    const Box& b = boxes_[net];
    return db.netWeight(net) * ((b.xh - b.xl) + (b.yh - b.yl));
  }

  /// Cache-maintenance rescans performed by moveCell (boundary losses).
  std::int64_t maintenanceRescans = 0;

 private:
  void rescanNet(const Database& db, Index net);

  std::vector<Box> boxes_;
  /// moveStamp_ of the moveCell call that last rescanned each net, so a
  /// cell with several pins on one net folds none of them after a rescan.
  std::vector<std::uint32_t> rescanStamp_;
  std::uint32_t moveStamp_ = 0;
};

/// Evaluation counts, flushed by their owner into the counter registry.
struct BboxCounts {
  std::int64_t deltas = 0;   ///< Net evaluations (cached box or table fold).
  std::int64_t rescans = 0;  ///< Complement-box scans (table builds).
};

/// The fixed part of scoring one set of moving cells at many positions.
/// Slot k is the k-th cell passed to build(). A table keeps its storage
/// across builds, so rebuilding it allocates nothing once warm.
class MoveTable {
 public:
  struct Pin {
    std::int32_t slot;  ///< Moving cell the pin belongs to.
    Coord halfW, halfH; ///< That cell's half extents.
    Coord offX, offY;   ///< Pin offset from the cell center.
  };
  struct Net {
    Index net;
    bool degenerate;  ///< Degree < 2: contributes 0, like the cache.
    bool hasRest;     ///< Some pin stays put (the box is not empty).
    double weight;
    double xl, xh, yl, yh;  ///< Complement box (±inf when !hasRest).
    std::int32_t pinBegin, pinEnd;  ///< Moving pins on the net in pins().
    double ySpan;  ///< yh - yl with every pin folded in (setRowY).
  };

  /// Builds the table of cells[0..count): their nets, ascending and
  /// deduplicated, with complement boxes that exclude those cells and
  /// also `alsoExcluded` (a swap partner; kInvalidIndex for none).
  void build(const Database& db, const Index* cells, int count,
             Index alsoExcluded, BboxCounts& counts);

  const std::vector<Net>& nets() const { return nets_; }
  const Pin* pins(const Net& n) const { return pins_.data() + n.pinBegin; }
  const Pin* pinsEnd(const Net& n) const { return pins_.data() + n.pinEnd; }

  /// Index into nets() of the i-th pin of the moving cells (cell order,
  /// then each cell's pin order).
  std::int32_t netOfPin(int i) const { return netOfPin_[i]; }

  /// Sum over nets() in ascending order of the cached (current) HPWL —
  /// the "before" value of any move of the table's cells.
  double cachedHpwl(const NetBboxCache& cache, BboxCounts& counts) const;

  /// Fixes every slot's y at `y` (cells permuted along one row) and folds
  /// the nets' y extents once, so sumHpwlInRow folds only x per call.
  void setRowY(Coord y);
  /// Sum over nets() in ascending order of the weighted HPWL with slot k's
  /// cell at (xs[k], the setRowY y).
  double sumHpwlInRow(const Coord* xs, BboxCounts& counts) const;

  /// Single-cell tables: the cell at (x, y), per-net values summed in the
  /// cell's *pin* order, so a net holding two of its pins counts twice.
  double pinOrderHpwl(Coord x, Coord y, BboxCounts& counts);

 private:
  std::vector<Net> nets_;
  std::vector<Pin> pins_;
  std::vector<std::int32_t> netOfPin_;
  /// Build scratch: (net, pin ordinal) pairs sorted by net.
  std::vector<std::pair<Index, std::int32_t>> order_;
  std::vector<Pin> unsorted_;
  std::vector<double> values_;  ///< pinOrderHpwl per-net values.
};

/// Before/after HPWL of exchanging two cells' positions.
struct SwapScore {
  double before = 0.0;  ///< Over both cells' nets, from the cache.
  double after = 0.0;   ///< The same nets with the two cells exchanged.
};

/// Scores exchanging cells a and b, where `a` is a's table (built with no
/// partner) and `b` is b's table built with a as `alsoExcluded`; a sits
/// at (ax, ay) and b at (bx, by). Both sums run over the union of the two
/// cells' nets in ascending order: a net only on a folds a's pins at b's
/// position, a net only on b folds b's pins at a's position, and a shared
/// net folds both onto b's both-excluded box.
SwapScore scoreSwap(const NetBboxCache& cache, const MoveTable& a,
                    Coord ax, Coord ay, const MoveTable& b, Coord bx,
                    Coord by, BboxCounts& counts);

}  // namespace dreamplace
