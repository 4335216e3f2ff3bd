#include "dp/independent_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_set>

#include "common/counters.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "db/metrics.h"
#include "dp/net_bbox.h"
#include "lg/macro_legalizer.h"

namespace dreamplace {

std::vector<int> solveAssignment(
    const std::vector<std::vector<double>>& cost) {
  // Kuhn-Munkres with potentials (the standard O(n^3) formulation using
  // 1-based auxiliary arrays; row 0 / column 0 are sentinels).
  const int n = static_cast<int>(cost.size());
  // A NaN or infinite cost makes every `<` below false, so the augmenting
  // search would never find a column and never exit.
  for (const std::vector<double>& row : cost) {
    for (double c : row) {
      if (!std::isfinite(c)) {
        return {};
      }
    }
  }
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<int> p(n + 1, 0), way(n + 1, 0);
  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<double> minv(n + 1, std::numeric_limits<double>::infinity());
    std::vector<char> used(n + 1, 0);
    do {
      used[j0] = 1;
      const int i0 = p[j0];
      double delta = std::numeric_limits<double>::infinity();
      int j1 = 0;
      for (int j = 1; j <= n; ++j) {
        if (used[j]) {
          continue;
        }
        const double cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (int j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0);
  }
  std::vector<int> assignment(n, -1);
  for (int j = 1; j <= n; ++j) {
    if (p[j] > 0) {
      assignment[p[j] - 1] = j - 1;
    }
  }
  return assignment;
}

namespace {

/// Cost of placing `cell` with lower-left (x, y): sum of its incident
/// nets' HPWL with the cell moved there and everything else in place.
/// Deliberately iterates the cell's pins (a net shared by two of the
/// cell's pins counts twice), matching the original full-scan cost; each
/// per-net value comes from the bbox cache's exact delta/rescan path.
/// The caller establishes `cell` as override slot 0 once per matrix row;
/// updateOverride then skips the moved-pin rebuild per entry.
double moveCost(const Database& db, NetBboxEval& eval, Index cell, Coord x,
                Coord y) {
  eval.updateOverride(0, x, y);
  double total = 0.0;
  for (Index s = db.cellPinBegin(cell); s < db.cellPinEnd(cell); ++s) {
    total += eval.netHpwl(db.pinNet(db.cellPinAt(s)));
  }
  return total;
}

}  // namespace

IsmResult independentSetMatching(Database& db, const IsmOptions& options) {
  ScopedTimer timer("dp/ism");
  IsmResult result;

  // Group movable standard cells by (width, height): equal-footprint
  // cells can exchange slots without perturbing anything else. Movable
  // macros are frozen after macro legalization.
  std::map<std::pair<Coord, Coord>, std::vector<Index>> by_width;
  for (Index i = 0; i < db.numMovable(); ++i) {
    if (!isMovableMacro(db, i)) {
      by_width[{db.cellWidth(i), db.cellHeight(i)}].push_back(i);
    }
  }

  NetBboxCache cache;
  cache.build(db);
  const int pool_threads = currentThreadPool().threads();
  std::vector<NetBboxEval> evals;
  evals.reserve(pool_threads);
  for (int t = 0; t < pool_threads; ++t) {
    evals.emplace_back(db, cache);
  }
  const auto flushCounters = [&]() {
    std::int64_t deltas = 0, rescans = 0;
    for (NetBboxEval& e : evals) {
      deltas += e.deltas;
      rescans += e.rescans;
    }
    CounterRegistry& reg = currentCounterRegistry();
    reg.add("dp/bbox_delta", deltas);
    reg.add("dp/bbox_rescan", rescans + cache.maintenanceRescans);
  };

  static Counter nonfinite_sets("dp/ism_nonfinite_sets");
  std::unordered_set<Index> used_nets;
  std::vector<Index> set;
  for (auto& [footprint, cells] : by_width) {
    if (static_cast<int>(cells.size()) < 2) {
      continue;
    }
    // Scan cells in index order, greedily building maximal independent
    // sets: a cell joins if none of its nets are used by the set yet
    // (net-disjointness makes the assignment costs exact).
    size_t cursor = 0;
    while (cursor < cells.size()) {
      set.clear();
      used_nets.clear();
      for (; cursor < cells.size() &&
             static_cast<int>(set.size()) < options.maxSetSize;
           ++cursor) {
        const Index cell = cells[cursor];
        bool independent = true;
        for (Index s = db.cellPinBegin(cell);
             s < db.cellPinEnd(cell) && independent; ++s) {
          independent = !used_nets.count(db.pinNet(db.cellPinAt(s)));
        }
        if (!independent) {
          continue;  // skipped for this pass (the next pass rescans)
        }
        set.push_back(cell);
        for (Index s = db.cellPinBegin(cell); s < db.cellPinEnd(cell);
             ++s) {
          used_nets.insert(db.pinNet(db.cellPinAt(s)));
        }
      }
      const int k = static_cast<int>(set.size());
      if (k < 2) {
        continue;
      }
      // Cost matrix: cell i at slot j (= cell j's current position). Rows
      // are independent pure reads of the live positions, so they fill in
      // parallel; each entry's value is thread-count-invariant.
      std::vector<std::vector<double>> cost(k, std::vector<double>(k));
      parallelForBlocked(
          "dp/ism_cost", k, 1, [&](Index lo, Index hi, int worker) {
            NetBboxEval& eval = evals[worker];
            for (Index i = lo; i < hi; ++i) {
              eval.clearOverrides();
              eval.setOverride(set[i], db.cellX(set[i]), db.cellY(set[i]));
              for (int j = 0; j < k; ++j) {
                cost[i][j] = moveCost(db, eval, set[i], db.cellX(set[j]),
                                      db.cellY(set[j]));
              }
              eval.clearOverrides();
            }
          });
      double identity_cost = 0.0;
      for (int i = 0; i < k; ++i) {
        identity_cost += cost[i][i];
      }
      const std::vector<int> assignment = solveAssignment(cost);
      if (assignment.empty()) {
        // Non-finite cost: keep the set where it is.
        nonfinite_sets.add();
        continue;
      }
      double best_cost = 0.0;
      for (int i = 0; i < k; ++i) {
        best_cost += cost[i][assignment[i]];
      }
      ++result.setsSolved;
      if (best_cost < identity_cost - 1e-9) {
        // Apply the permutation, keeping the bbox cache in lockstep so
        // later sets' cost rows stay exact.
        std::vector<std::pair<Coord, Coord>> slots(k);
        for (int j = 0; j < k; ++j) {
          slots[j] = {db.cellX(set[j]), db.cellY(set[j])};
        }
        for (int i = 0; i < k; ++i) {
          if (assignment[i] != i) {
            ++result.cellsMoved;
          }
          db.setCellPosition(set[i], slots[assignment[i]].first,
                             slots[assignment[i]].second);
          cache.moveCell(db, set[i], slots[i].first, slots[i].second);
        }
        result.hpwlGain += identity_cost - best_cost;
      }
      if (options.maxSetsPerPass > 0 &&
          result.setsSolved >= options.maxSetsPerPass) {
        flushCounters();
        return result;
      }
    }
  }
  flushCounters();
  return result;
}

}  // namespace dreamplace
