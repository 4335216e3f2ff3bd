#include "dp/detailed_placer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/counters.h"
#include "common/flow_context.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "db/metrics.h"
#include "dp/independent_set.h"
#include "dp/net_bbox.h"
#include "lg/macro_legalizer.h"

// Parallelization (docs/PARALLEL.md, "The back-end"): reorder and ISM
// are serial; global swap is speculative propose + sequential commit.
// The propose phase evaluates every swap source cell against a frozen
// snapshot of positions in parallel; the commit pass then walks the
// cells in the serial order, *stamping* every cell and net a committed
// swap touches. A cell whose footprint (itself, its nets, the candidate
// and the candidate's nets) carries no stamp provably saw identical
// inputs in the propose phase, so its precomputed values are reused; a
// stamped ("stale") cell is re-evaluated against live state. Either way
// each cell resolves to exactly what the serial loop would have
// computed, so results are bit-identical at any thread count, including
// the threads==1 path that skips proposals entirely.

namespace dreamplace {

namespace {

/// Union of the nets incident to `cells`, sorted ascending and
/// deduplicated, written into `out` (no allocation when capacity
/// suffices).
void incidentNetsInto(const Database& db, const Index* cells, int count,
                      std::vector<Index>& out) {
  out.clear();
  for (int i = 0; i < count; ++i) {
    const Index c = cells[i];
    for (Index s = db.cellPinBegin(c); s < db.cellPinEnd(c); ++s) {
      out.push_back(db.pinNet(db.cellPinAt(s)));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

/// Row occupancy: cells of each row sorted by x. Fixed cells (pads,
/// macros) are included as immovable entries so window/swap moves never
/// pack over them.
struct RowIndex {
  std::vector<std::vector<Index>> rows;
  std::vector<char> movableEntry;  ///< Per cell: participates in DP moves.
  Coord rowHeight = 0;
  Coord yBase = 0;

  bool isMovableEntry(Index i) const { return movableEntry[i] != 0; }

  void build(const Database& db) {
    rowHeight = db.rowHeight();
    yBase = db.rows().front().y;
    rows.assign(db.rows().size(), {});
    movableEntry.assign(db.numCells(), 0);
    const auto num_rows = static_cast<Index>(rows.size());
    for (Index i = 0; i < db.numCells(); ++i) {
      // Standard movable cells are DP-movable; fixed cells and movable
      // macros are obstacles spanning every row band they overlap.
      if (db.isMovable(i) && !isMovableMacro(db, i)) {
        movableEntry[i] = 1;
        rows[rowOf(db.cellY(i))].push_back(i);
        continue;
      }
      const Box<Coord> box = db.cellBox(i);
      const Index r0 = rowOf(box.yl + 1e-9);
      const Index r1 = rowOf(box.yh - 1e-9);
      for (Index r = std::max<Index>(0, r0);
           r <= std::min(num_rows - 1, r1); ++r) {
        rows[r].push_back(i);
      }
    }
    for (std::vector<Index>& row : rows) {
      std::sort(row.begin(), row.end(), [&](Index a, Index b) {
        return db.cellX(a) < db.cellX(b);
      });
    }
  }

  Index rowOf(Coord y) const {
    const auto r = static_cast<Index>(std::round((y - yBase) / rowHeight));
    return std::clamp<Index>(r, 0, static_cast<Index>(rows.size()) - 1);
  }
};

// ---- Intra-row reordering -------------------------------------------------

struct ReorderScratch {
  NetBboxEval eval;
  std::vector<Index> window;
  std::vector<int> perm;
  std::vector<int> bestPerm;
  std::vector<Index> nets;

  ReorderScratch(const Database& db, const NetBboxCache& cache, int w)
      : eval(db, cache), window(w), perm(w), bestPerm(w) {}
};

struct WindowEval {
  bool evaluated = false;  ///< Passed the fixed/feasibility gates.
  bool improved = false;   ///< Best permutation beats base by > 1e-9.
  Coord spanXl = 0;        ///< Packing origin (first cell's x).
};

/// Evaluates one reorder window against the current database state:
/// exhaustively permutes the w cells, packed from the span start, and
/// records the best ordering in `s.bestPerm` (net union in `s.nets`,
/// composition in `s.window`). Read-only; safe to run speculatively.
WindowEval evaluateWindow(const Database& db, const RowIndex& rowIndex,
                          const std::vector<Index>& row, std::size_t start,
                          int w, ReorderScratch& s) {
  WindowEval out;
  bool has_fixed = false;
  for (int k = 0; k < w; ++k) {
    s.window[k] = row[start + k];
    has_fixed |= !rowIndex.isMovableEntry(s.window[k]);
  }
  if (has_fixed) {
    return out;
  }
  // Window span: from first cell's x to the next cell (or +inf);
  // permutations are packed from the span start.
  out.spanXl = db.cellX(s.window[0]);
  Coord span_xh;
  if (start + w < row.size()) {
    span_xh = db.cellX(row[start + w]);
  } else {
    span_xh = std::numeric_limits<Coord>::infinity();
  }
  Coord total_w = 0;
  for (int k = 0; k < w; ++k) {
    total_w += db.cellWidth(s.window[k]);
  }
  if (out.spanXl + total_w > span_xh) {
    return out;  // no room to repack (should not happen)
  }
  incidentNetsInto(db, s.window.data(), w, s.nets);
  out.evaluated = true;

  std::iota(s.perm.begin(), s.perm.end(), 0);
  s.eval.clearOverrides();
  const double base = s.eval.netsHpwl(s.nets);
  double best = base;
  std::copy(s.perm.begin(), s.perm.end(), s.bestPerm.begin());
  const Coord orig_y = db.cellY(s.window[0]);
  // The override cell set is the window for every permutation — slot k
  // holds s.window[k] — so after the first refresh each permutation only
  // re-positions slots (no moved-pin rebuild+sort per candidate).
  for (int k = 0; k < w; ++k) {
    s.eval.setOverride(s.window[k], db.cellX(s.window[k]), orig_y);
  }
  while (std::next_permutation(s.perm.begin(), s.perm.end())) {
    Coord x = out.spanXl;
    for (int k = 0; k < w; ++k) {
      const Index c = s.window[s.perm[k]];
      s.eval.updateOverride(s.perm[k], x, orig_y);
      x += db.cellWidth(c);
    }
    const double cost = s.eval.netsHpwl(s.nets);
    if (cost < best - 1e-9) {
      best = cost;
      std::copy(s.perm.begin(), s.perm.end(), s.bestPerm.begin());
    }
  }
  s.eval.clearOverrides();
  out.improved = best < base - 1e-9;
  return out;
}

/// Applies a winning permutation: moves the w cells to their packed
/// positions (updating the bbox cache move-by-move so its rescans always
/// see a database consistent with the cache) and rewrites the row order.
void commitWindow(Database& db, NetBboxCache& cache, std::vector<Index>& row,
                  std::size_t start, int w, const std::vector<int>& perm,
                  Coord span_xl) {
  Index cells[NetBboxEval::kMaxOverrides];
  for (int k = 0; k < w; ++k) {
    cells[k] = row[start + k];
  }
  const Coord orig_y = db.cellY(cells[0]);
  Coord x = span_xl;
  for (int k = 0; k < w; ++k) {
    const Index c = cells[perm[k]];
    const Coord old_x = db.cellX(c);
    const Coord old_y = db.cellY(c);
    db.setCellPosition(c, x, orig_y);
    cache.moveCell(db, c, old_x, old_y);
    row[start + k] = c;
    x += db.cellWidth(c);
  }
}

// ---- Global swap ----------------------------------------------------------

struct SwapScratch {
  NetBboxEval eval;
  std::vector<double> lx, hx, ly, hy;
  std::vector<Index> nets;

  SwapScratch(const Database& db, const NetBboxCache& cache)
      : eval(db, cache) {}
};

struct SwapRegion {
  bool skip = true;
  double ox = 0;
  Index targetRow = 0;
};

/// Optimal region of `cell`: median of the bounding boxes of its nets
/// with the cell itself excluded. skip is set when the cell has no
/// external pins or already sits in its optimal region.
SwapRegion computeSwapRegion(const Database& db, const RowIndex& rows,
                             Index cell, SwapScratch& s) {
  SwapRegion region;
  s.lx.clear();
  s.hx.clear();
  s.ly.clear();
  s.hy.clear();
  for (Index ps = db.cellPinBegin(cell); ps < db.cellPinEnd(cell); ++ps) {
    const Index pin = db.cellPinAt(ps);
    const Index e = db.pinNet(pin);
    double xl = std::numeric_limits<double>::infinity();
    double xh = -xl, yl = xl, yh = -xl;
    bool any = false;
    for (Index p = db.netPinBegin(e); p < db.netPinEnd(e); ++p) {
      if (db.pinCell(p) == cell) {
        continue;
      }
      any = true;
      xl = std::min(xl, db.pinX(p));
      xh = std::max(xh, db.pinX(p));
      yl = std::min(yl, db.pinY(p));
      yh = std::max(yh, db.pinY(p));
    }
    if (any) {
      s.lx.push_back(xl);
      s.hx.push_back(xh);
      s.ly.push_back(yl);
      s.hy.push_back(yh);
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
                rows.rowOf(db.cellY(cell)) == region.targetRow;
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
  for (Index dr = 0; dr <= max_row_delta && tried < opt.maxCandidates;
       ++dr) {
    for (int sign : {+1, -1}) {
      if (sign < 0 && dr == 0) {
        continue;
      }
      const Index r = target_row + sign * dr;
      if (r < 0 || r >= static_cast<Index>(rows.rows.size())) {
        continue;
      }
      const auto& row = rows.rows[r];
      if (row.empty()) {
        continue;
      }
      // Binary search the cell nearest ox.
      const auto it = std::lower_bound(
          row.begin(), row.end(), ox,
          [&](Index a, double v) { return db.cellX(a) < v; });
      for (int probe = -1; probe <= 1; ++probe) {
        const std::ptrdiff_t j = (it - row.begin()) + probe;
        if (j < 0 || j >= static_cast<std::ptrdiff_t>(row.size())) {
          continue;
        }
        const Index other = row[j];
        if (other == cell || !rows.isMovableEntry(other) ||
            db.cellWidth(other) != db.cellWidth(cell)) {
          continue;  // only equal-width movable swaps stay legal
        }
        if (rows.rowOf(db.cellY(other)) == rows.rowOf(db.cellY(cell)) &&
            std::abs(db.cellX(other) - db.cellX(cell)) <
                4 * db.rowHeight()) {
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

/// HPWL of the {cell, other} net union before and after exchanging the
/// two cells' positions (union left in s.nets).
void evalSwap(const Database& db, Index cell, Index other, SwapScratch& s,
              double& before, double& after) {
  const Index pair[2] = {cell, other};
  incidentNetsInto(db, pair, 2, s.nets);
  s.eval.clearOverrides();
  before = s.eval.netsHpwl(s.nets);
  s.eval.setOverride(cell, db.cellX(other), db.cellY(other));
  s.eval.setOverride(other, db.cellX(cell), db.cellY(cell));
  after = s.eval.netsHpwl(s.nets);
  s.eval.clearOverrides();
}

struct SwapProposal {
  bool skip = true;
  double ox = 0;
  Index targetRow = 0;
  // Candidate evals recorded along the frozen-state trajectory, reused in
  // the commit pass as a value memo keyed by the candidate cell.
  std::vector<Index> candOther;
  std::vector<double> candBefore;
  std::vector<double> candAfter;
};

}  // namespace

DetailedPlacerResult DetailedPlacer::run(Database& db) const {
  ScopedTimer timer("dp");
  DetailedPlacerResult result;
  result.initialHpwl = hpwl(db);

  const int w = options_.windowSize;
  DP_ASSERT_MSG(w >= 2 && w <= NetBboxEval::kMaxOverrides,
                "windowSize must be in [2, %d]", NetBboxEval::kMaxOverrides);

  const int pool_threads = currentThreadPool().threads();
  const bool parallel_mode = pool_threads > 1;

  NetBboxCache cache;
  RowIndex rows;
  const FlowContext& flow = FlowContext::current();
  // Swap source cells between two cancel/deadline polls.
  constexpr Index kPollCells = 256;

  ReorderScratch rscratch(db, cache, w);
  // Per-worker swap scratch; worker 0's doubles as the commit-pass
  // evaluator.
  std::vector<SwapScratch> sscratch;
  sscratch.reserve(pool_threads);
  for (int t = 0; t < pool_threads; ++t) {
    sscratch.emplace_back(db, cache);
  }

  std::int64_t reorder_windows = 0, swap_candidates = 0;
  std::int64_t swap_stale = 0;
  std::int64_t bbox_deltas = 0, bbox_rescans = 0;
  const auto drainEval = [&](NetBboxEval& e) {
    bbox_deltas += e.deltas;
    bbox_rescans += e.rescans;
    e.deltas = 0;
    e.rescans = 0;
  };

  // Swap commit-pass stamps: cells moved and nets perturbed by commits
  // so far in the current pass (parallel mode only).
  std::vector<char> cell_stamp, net_stamp;
  std::vector<SwapProposal> sprops;

  double pass_start_hpwl = result.initialHpwl;
  for (int pass = 0; pass < options_.passes; ++pass) {
    rows.build(db);
    cache.build(db);  // ISM (below) moves cells outside the cache's view

    // ---- Intra-row local reordering ------------------------------------
    {
      ScopedTimer t("dp/reorder");
      for (std::vector<Index>& row : rows.rows) {
        flow.throwIfInterrupted();
        if (static_cast<int>(row.size()) < w) {
          continue;
        }
        for (std::size_t start = 0; start + w <= row.size(); ++start) {
          const WindowEval ev =
              evaluateWindow(db, rows, row, start, w, rscratch);
          if (!ev.evaluated) {
            continue;
          }
          ++reorder_windows;
          if (!ev.improved) {
            continue;
          }
          commitWindow(db, cache, row, start, w, rscratch.bestPerm,
                       ev.spanXl);
          ++result.reorderMoves;
        }
      }
      drainEval(rscratch.eval);
    }

    // ---- Global swap / relocation ----------------------------------------
    {
      ScopedTimer t("dp/swap");
      rows.build(db);

      if (parallel_mode) {
        sprops.assign(db.numMovable(), {});
        parallelForBlocked(
            "dp/swap_propose", db.numMovable(), 16,
            [&](Index lo, Index hi, int worker) {
              SwapScratch& s = sscratch[worker];
              for (Index cell = lo; cell < hi; ++cell) {
                if (isMovableMacro(db, cell)) {
                  continue;
                }
                SwapProposal& p = sprops[cell];
                const SwapRegion region =
                    computeSwapRegion(db, rows, cell, s);
                p.skip = region.skip;
                p.ox = region.ox;
                p.targetRow = region.targetRow;
                if (region.skip) {
                  continue;
                }
                enumerateSwapCandidates(
                    db, rows, cell, region.ox, region.targetRow, options_,
                    [&](Index other) {
                      double before = 0, after = 0;
                      evalSwap(db, cell, other, s, before, after);
                      p.candOther.push_back(other);
                      p.candBefore.push_back(before);
                      p.candAfter.push_back(after);
                      return after < before - 1e-9;
                    });
              }
            });
        for (auto& s : sscratch) {
          drainEval(s.eval);
        }
        cell_stamp.assign(db.numCells(), 0);
        net_stamp.assign(db.numNets(), 0);
      }

      SwapScratch& live = sscratch[0];
      for (Index cell = 0; cell < db.numMovable(); ++cell) {
        if (cell % kPollCells == 0) {
          flow.throwIfInterrupted();
        }
        if (isMovableMacro(db, cell)) {
          continue;
        }
        // The region memo is valid when neither the cell nor any of its
        // nets saw a commit: position, medians, and skip state are then
        // unchanged from the propose snapshot.
        bool memo_valid = parallel_mode && !cell_stamp[cell];
        if (memo_valid) {
          for (Index ps = db.cellPinBegin(cell); ps < db.cellPinEnd(cell);
               ++ps) {
            if (net_stamp[db.pinNet(db.cellPinAt(ps))]) {
              memo_valid = false;
              break;
            }
          }
        }
        bool skip;
        double ox;
        Index target_row;
        if (memo_valid) {
          skip = sprops[cell].skip;
          ox = sprops[cell].ox;
          target_row = sprops[cell].targetRow;
        } else {
          if (parallel_mode) {
            ++swap_stale;
          }
          const SwapRegion region = computeSwapRegion(db, rows, cell, live);
          skip = region.skip;
          ox = region.ox;
          target_row = region.targetRow;
        }
        if (skip) {
          continue;
        }
        const SwapProposal* memo = memo_valid ? &sprops[cell] : nullptr;
        enumerateSwapCandidates(
            db, rows, cell, ox, target_row, options_, [&](Index other) {
              ++swap_candidates;
              double before = 0, after = 0;
              bool hit = false;
              if (memo != nullptr && !cell_stamp[other]) {
                for (std::size_t j = 0; j < memo->candOther.size(); ++j) {
                  if (memo->candOther[j] != other) {
                    continue;
                  }
                  // The recorded values are live values iff every net of
                  // the {cell, other} union is unstamped.
                  const Index pair[2] = {cell, other};
                  incidentNetsInto(db, pair, 2, live.nets);
                  bool ok = true;
                  for (Index e : live.nets) {
                    if (net_stamp[e]) {
                      ok = false;
                      break;
                    }
                  }
                  if (ok) {
                    before = memo->candBefore[j];
                    after = memo->candAfter[j];
                    hit = true;
                  }
                  break;
                }
              }
              if (!hit) {
                evalSwap(db, cell, other, live, before, after);
              }
              if (!(after < before - 1e-9)) {
                return false;
              }
              const Coord cx = db.cellX(cell);
              const Coord cy = db.cellY(cell);
              const Coord ox2 = db.cellX(other);
              const Coord oy2 = db.cellY(other);
              db.setCellPosition(cell, ox2, oy2);
              cache.moveCell(db, cell, cx, cy);
              db.setCellPosition(other, cx, cy);
              cache.moveCell(db, other, ox2, oy2);
              // Update row occupancy.
              const Index cell_row = rows.rowOf(db.cellY(other));
              const Index other_row = rows.rowOf(db.cellY(cell));
              std::replace(rows.rows[cell_row].begin(),
                           rows.rows[cell_row].end(), cell, other);
              std::replace(rows.rows[other_row].begin(),
                           rows.rows[other_row].end(), other, cell);
              if (parallel_mode) {
                cell_stamp[cell] = 1;
                cell_stamp[other] = 1;
                const Index pair[2] = {cell, other};
                incidentNetsInto(db, pair, 2, live.nets);
                for (Index e : live.nets) {
                  net_stamp[e] = 1;
                }
              }
              ++result.swapMoves;
              return true;
            });
      }
      drainEval(live.eval);
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
  reg.add("dp/bbox_delta", bbox_deltas);
  reg.add("dp/bbox_rescan", bbox_rescans + cache.maintenanceRescans);
  if (parallel_mode) {
    reg.add("dp/swap_stale", swap_stale);
  }

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
