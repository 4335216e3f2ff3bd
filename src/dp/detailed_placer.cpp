#include "dp/detailed_placer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/counters.h"
#include "common/flow_context.h"
#include "common/log.h"
#include "common/timer.h"
#include "db/metrics.h"
#include "dp/independent_set.h"
#include "dp/net_bbox.h"
#include "dp/row_index.h"
#include "lg/macro_legalizer.h"

// Every pass is serial (docs/PARALLEL.md, "The back-end"): each move
// reads the placement the previous one left, and no parallel form of
// reorder, swap or ISM was 1.2x faster at 4 threads than this loop.
// Candidates are scored from MoveTables (dp/net_bbox.h), so a pass
// computes exactly the values a full rescan would.

namespace dreamplace {

namespace {

// ---- Intra-row reordering -------------------------------------------------

struct ReorderScratch {
  MoveTable table;  ///< The window's nets; slot k = window[k].
  BboxCounts counts;
  std::vector<Index> window;
  std::vector<int> perm;
  std::vector<int> bestPerm;
  std::vector<Coord> xs;  ///< Slot x under the current permutation.

  explicit ReorderScratch(int w) : window(w), perm(w), bestPerm(w), xs(w) {}
};

struct WindowEval {
  bool evaluated = false;  ///< Passed the fixed/feasibility gates.
  bool improved = false;   ///< Best permutation beats base by > 1e-9.
  Coord spanXl = 0;        ///< Packing origin (first cell's x).
};

/// Evaluates the window of w cells at `start` in row r against the current
/// database state: exhaustively permutes the cells, packed from the span
/// start, and records the best ordering in `s.bestPerm` (composition in
/// `s.window`). Read-only.
WindowEval evaluateWindow(const Database& db, const NetBboxCache& cache,
                          const RowIndex& rows, Index r, std::size_t start,
                          int w, ReorderScratch& s) {
  WindowEval out;
  const RowIndex::Row& row = rows.row(r);
  bool has_fixed = false;
  for (int k = 0; k < w; ++k) {
    s.window[k] = row.cells[start + k];
    has_fixed |= !row.movable[start + k];
  }
  if (has_fixed) {
    return out;
  }
  // Window span: from first cell's x to the next cell (or +inf);
  // permutations are packed from the span start.
  out.spanXl = row.x[start];
  Coord span_xh;
  if (start + w < row.cells.size()) {
    span_xh = row.x[start + w];
  } else {
    span_xh = std::numeric_limits<Coord>::infinity();
  }
  Coord total_w = 0;
  for (int k = 0; k < w; ++k) {
    total_w += row.width[start + k];
  }
  if (out.spanXl + total_w > span_xh) {
    return out;  // no room to repack (should not happen)
  }
  s.table.build(db, s.window.data(), w, kInvalidIndex, s.counts);
  out.evaluated = true;

  std::iota(s.perm.begin(), s.perm.end(), 0);
  const double base = s.table.cachedHpwl(cache, s.counts);
  double best = base;
  std::copy(s.perm.begin(), s.perm.end(), s.bestPerm.begin());
  // Every permutation keeps the window in its row, so the nets' y extents
  // are folded once and each permutation folds only x.
  s.table.setRowY(db.cellY(s.window[0]));
  while (std::next_permutation(s.perm.begin(), s.perm.end())) {
    Coord x = out.spanXl;
    for (int k = 0; k < w; ++k) {
      s.xs[s.perm[k]] = x;
      x += row.width[start + s.perm[k]];
    }
    const double cost = s.table.sumHpwlInRow(s.xs.data(), s.counts);
    if (cost < best - 1e-9) {
      best = cost;
      std::copy(s.perm.begin(), s.perm.end(), s.bestPerm.begin());
    }
  }
  out.improved = best < base - 1e-9;
  return out;
}

/// Applies a winning permutation: moves the w cells to their packed
/// positions (updating the bbox cache move-by-move so its rescans always
/// see a database consistent with the cache) and rewrites the row.
void commitWindow(Database& db, NetBboxCache& cache, RowIndex& rows, Index r,
                  std::size_t start, int w, const std::vector<int>& perm,
                  Coord span_xl) {
  Index cells[DetailedPlacer::kMaxWindowSize];
  for (int k = 0; k < w; ++k) {
    cells[k] = rows.row(r).cells[start + k];
  }
  const Coord orig_y = db.cellY(cells[0]);
  Coord x = span_xl;
  for (int k = 0; k < w; ++k) {
    const Index c = cells[perm[k]];
    const Coord old_x = db.cellX(c);
    const Coord old_y = db.cellY(c);
    db.setCellPosition(c, x, orig_y);
    cache.moveCell(db, c, old_x, old_y);
    rows.place(db, r, start + k, c);
    x += db.cellWidth(c);
  }
}

// ---- Global swap ----------------------------------------------------------

struct SwapScratch {
  MoveTable cellTable;   ///< The source cell's nets, no partner.
  MoveTable otherTable;  ///< The candidate's nets, source cell excluded.
  BboxCounts counts;
  std::vector<double> lx, hx, ly, hy;
};

struct SwapRegion {
  bool skip = true;
  double ox = 0;
  Index targetRow = 0;
};

/// Builds `cell`'s table in s.cellTable and returns its optimal region:
/// the median of its nets' bounding boxes with the cell itself excluded
/// (the table's complement boxes), taken per pin so a net holding two of
/// the cell's pins counts twice. skip is set when the cell has no
/// external pins or already sits in its optimal region.
SwapRegion computeSwapRegion(const Database& db, const RowIndex& rows,
                             Index cell, SwapScratch& s) {
  SwapRegion region;
  s.cellTable.build(db, &cell, 1, kInvalidIndex, s.counts);
  s.lx.clear();
  s.hx.clear();
  s.ly.clear();
  s.hy.clear();
  const int num_pins = db.cellPinEnd(cell) - db.cellPinBegin(cell);
  for (int i = 0; i < num_pins; ++i) {
    const MoveTable::Net& n = s.cellTable.nets()[s.cellTable.netOfPin(i)];
    if (n.hasRest) {
      s.lx.push_back(n.xl);
      s.hx.push_back(n.xh);
      s.ly.push_back(n.yl);
      s.hy.push_back(n.yh);
    }
  }
  if (s.lx.empty()) {
    return region;
  }
  auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  region.ox = 0.5 * (median(s.lx) + median(s.hx));
  const double oy = 0.5 * (median(s.ly) + median(s.hy));
  region.targetRow = rows.rowOf(oy - db.rowHeight() / 2);

  // Already close to optimal? Skip.
  region.skip = std::abs(db.cellX(cell) - region.ox) < db.rowHeight() &&
                rows.rowOfCell(cell) == region.targetRow;
  return region;
}

/// Walks the swap candidates of `cell` around its optimal region in the
/// serial order (rows by distance from the target, nearest-x probes per
/// row), invoking tryCand(other) for each admissible candidate until it
/// returns true (committed) or the candidate budget is exhausted.
/// Read-only with respect to `rows` and the database.
template <typename TryFn>
void enumerateSwapCandidates(const Database& db, const RowIndex& rows,
                             Index cell, double ox, Index target_row,
                             const DetailedPlacer::Options& opt,
                             TryFn&& tryCand) {
  int tried = 0;
  const auto max_row_delta = static_cast<Index>(opt.swapRadiusRows);
  const Coord cell_x = db.cellX(cell);
  const Coord cell_w = db.cellWidth(cell);
  const Index cell_row = rows.rowOfCell(cell);
  for (Index dr = 0; dr <= max_row_delta && tried < opt.maxCandidates;
       ++dr) {
    for (int sign : {+1, -1}) {
      if (sign < 0 && dr == 0) {
        continue;
      }
      const Index r = target_row + sign * dr;
      if (r < 0 || r >= rows.numRows()) {
        continue;
      }
      const RowIndex::Row& row = rows.row(r);
      if (row.cells.empty()) {
        continue;
      }
      // Binary search the cell nearest ox.
      const std::ptrdiff_t at =
          std::lower_bound(row.x.begin(), row.x.end(), ox) - row.x.begin();
      for (int probe = -1; probe <= 1; ++probe) {
        const std::ptrdiff_t j = at + probe;
        if (j < 0 || j >= static_cast<std::ptrdiff_t>(row.cells.size())) {
          continue;
        }
        const Index other = row.cells[j];
        if (other == cell || !row.movable[j] || row.width[j] != cell_w) {
          continue;  // only equal-width movable swaps stay legal
        }
        if (r == cell_row && std::abs(row.x[j] - cell_x) < 4 * db.rowHeight()) {
          continue;  // near same-row swaps are covered by reordering
        }
        ++tried;
        if (tryCand(other)) {
          tried = opt.maxCandidates;  // move on to next cell
          break;
        }
      }
      if (tried >= opt.maxCandidates) {
        break;
      }
    }
  }
}

/// Scores exchanging `cell` (whose table is s.cellTable) with `other`.
SwapScore evalSwap(const Database& db, const NetBboxCache& cache, Index cell,
                   Index other, SwapScratch& s) {
  s.otherTable.build(db, &other, 1, cell, s.counts);
  return scoreSwap(cache, s.cellTable, db.cellX(cell), db.cellY(cell),
                   s.otherTable, db.cellX(other), db.cellY(other), s.counts);
}

}  // namespace

DetailedPlacerResult DetailedPlacer::run(Database& db) const {
  ScopedTimer timer("dp");
  DetailedPlacerResult result;
  result.initialHpwl = hpwl(db);

  const int w = options_.windowSize;
  DP_ASSERT_MSG(w >= 2 && w <= kMaxWindowSize,
                "windowSize must be in [2, %d]", kMaxWindowSize);

  NetBboxCache cache;
  RowIndex rows;
  const FlowContext& flow = FlowContext::current();
  // Swap source cells between two cancel/deadline polls.
  constexpr Index kPollCells = 256;

  ReorderScratch rscratch(w);
  SwapScratch sscratch;

  std::int64_t reorder_windows = 0, swap_candidates = 0;
  BboxCounts bbox;
  const auto drainCounts = [&](BboxCounts& c) {
    bbox.deltas += c.deltas;
    bbox.rescans += c.rescans;
    c = BboxCounts();
  };

  double pass_start_hpwl = result.initialHpwl;
  for (int pass = 0; pass < options_.passes; ++pass) {
    rows.build(db);
    cache.build(db);  // ISM (below) moves cells outside the cache's view

    // ---- Intra-row local reordering ------------------------------------
    {
      ScopedTimer t("dp/reorder");
      for (Index r = 0; r < rows.numRows(); ++r) {
        flow.throwIfInterrupted();
        const std::size_t row_size = rows.row(r).cells.size();
        for (std::size_t start = 0; start + w <= row_size; ++start) {
          const WindowEval ev =
              evaluateWindow(db, cache, rows, r, start, w, rscratch);
          if (!ev.evaluated) {
            continue;
          }
          ++reorder_windows;
          if (!ev.improved) {
            continue;
          }
          commitWindow(db, cache, rows, r, start, w, rscratch.bestPerm,
                       ev.spanXl);
          ++result.reorderMoves;
        }
      }
      drainCounts(rscratch.counts);
    }

    // ---- Global swap / relocation ----------------------------------------
    {
      ScopedTimer t("dp/swap");
      rows.build(db);
      for (Index cell = 0; cell < db.numMovable(); ++cell) {
        if (cell % kPollCells == 0) {
          flow.throwIfInterrupted();
        }
        if (isMovableMacro(db, cell)) {
          continue;
        }
        const SwapRegion region = computeSwapRegion(db, rows, cell, sscratch);
        if (region.skip) {
          continue;
        }
        enumerateSwapCandidates(
            db, rows, cell, region.ox, region.targetRow, options_,
            [&](Index other) {
              ++swap_candidates;
              const SwapScore score = evalSwap(db, cache, cell, other, sscratch);
              if (!(score.after < score.before - 1e-9)) {
                return false;
              }
              const Coord cx = db.cellX(cell);
              const Coord cy = db.cellY(cell);
              const Coord ox = db.cellX(other);
              const Coord oy = db.cellY(other);
              db.setCellPosition(cell, ox, oy);
              cache.moveCell(db, cell, cx, cy);
              db.setCellPosition(other, cx, cy);
              cache.moveCell(db, other, ox, oy);
              rows.exchange(cell, other);
              ++result.swapMoves;
              return true;
            });
      }
      drainCounts(sscratch.counts);
    }

    // ---- Independent-set matching ----------------------------------------
    if (options_.enableIsm) {
      IsmOptions ism;
      ism.maxSetSize = options_.ismSetSize;
      const IsmResult r = independentSetMatching(db, ism);
      result.ismMoves += r.cellsMoved;
    }

    if (options_.convergenceTolerance > 0) {
      const double pass_end_hpwl = hpwl(db);
      if (pass_start_hpwl - pass_end_hpwl <
          options_.convergenceTolerance * pass_end_hpwl) {
        break;
      }
      pass_start_hpwl = pass_end_hpwl;
    }
  }

  result.finalHpwl = hpwl(db);

  CounterRegistry& reg = currentCounterRegistry();
  reg.add("dp/reorder_windows", reorder_windows);
  reg.add("dp/swap_candidates", swap_candidates);
  reg.add("dp/reorder_moves", result.reorderMoves);
  reg.add("dp/swap_moves", result.swapMoves);
  reg.add("dp/ism_moves", result.ismMoves);
  reg.add("dp/bbox_delta", bbox.deltas);
  reg.add("dp/bbox_rescan", bbox.rescans + cache.maintenanceRescans);

  logInfo("dp: hpwl %.4e -> %.4e (%.2f%%), %ld reorders, %ld swaps, "
          "%ld ism moves",
          result.initialHpwl, result.finalHpwl,
          result.initialHpwl > 0
              ? 100.0 * (result.finalHpwl - result.initialHpwl) /
                    result.initialHpwl
              : 0.0,
          result.reorderMoves, result.swapMoves, result.ismMoves);
  return result;
}

}  // namespace dreamplace
