#include "dp/independent_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/counters.h"
#include "common/flow_context.h"
#include "common/log.h"
#include "common/timer.h"
#include "db/metrics.h"
#include "dp/net_bbox.h"
#include "lg/macro_legalizer.h"

namespace dreamplace {

namespace {

/// Reusable workspace of the assignment solver (1-based auxiliary arrays;
/// row 0 / column 0 are sentinels), so solving a set allocates nothing
/// once the largest set size has been seen.
struct AssignmentScratch {
  std::vector<double> u, v, minv;
  std::vector<int> p, way;
  std::vector<char> used;
};

/// Kuhn-Munkres with potentials (the standard O(n^3) formulation) over the
/// row-major n x n matrix `cost`. Writes the optimal column of each row to
/// `assignment`; returns false when any cost is NaN or infinite.
bool solveAssignmentInto(const double* cost, int n, AssignmentScratch& ws,
                         std::vector<int>& assignment) {
  // A NaN or infinite cost makes every `<` below false, so the augmenting
  // search would never find a column and never exit.
  for (int i = 0; i < n * n; ++i) {
    if (!std::isfinite(cost[i])) {
      return false;
    }
  }
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  std::vector<double>& u = ws.u;
  std::vector<double>& v = ws.v;
  std::vector<double>& minv = ws.minv;
  std::vector<int>& p = ws.p;
  std::vector<int>& way = ws.way;
  std::vector<char>& used = ws.used;
  u.assign(n + 1, 0.0);
  v.assign(n + 1, 0.0);
  p.assign(n + 1, 0);
  way.assign(n + 1, 0);
  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    minv.assign(n + 1, kInfinity);
    used.assign(n + 1, 0);
    do {
      used[j0] = 1;
      const int i0 = p[j0];
      double delta = kInfinity;
      int j1 = 0;
      for (int j = 1; j <= n; ++j) {
        if (used[j]) {
          continue;
        }
        const double cur = cost[(i0 - 1) * n + (j - 1)] - u[i0] - v[j];
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
  assignment.assign(n, -1);
  for (int j = 1; j <= n; ++j) {
    if (p[j] > 0) {
      assignment[p[j] - 1] = j - 1;
    }
  }
  return true;
}

}  // namespace

std::vector<int> solveAssignment(
    const std::vector<std::vector<double>>& cost) {
  const int n = static_cast<int>(cost.size());
  std::vector<double> flat;
  flat.reserve(static_cast<std::size_t>(n) * n);
  for (const std::vector<double>& row : cost) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  AssignmentScratch ws;
  std::vector<int> assignment;
  if (!solveAssignmentInto(flat.data(), n, ws, assignment)) {
    return {};
  }
  return assignment;
}

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
  MoveTable table;
  BboxCounts counts;
  const auto flushCounters = [&]() {
    CounterRegistry& reg = currentCounterRegistry();
    reg.add("dp/bbox_delta", counts.deltas);
    reg.add("dp/bbox_rescan", counts.rescans + cache.maintenanceRescans);
  };
  const FlowContext& flow = FlowContext::current();

  static Counter nonfinite_sets("dp/ism_nonfinite_sets");
  // A net is used by the set being built iff its stamp equals the set's
  // epoch, so starting a set is one increment instead of a clear.
  std::vector<std::int64_t> net_epoch(db.numNets(), 0);
  std::int64_t epoch = 0;
  std::vector<Index> set;
  std::vector<double> cost;  ///< Row-major k x k: cell i at slot j.
  std::vector<int> assignment;
  std::vector<std::pair<Coord, Coord>> slots;
  AssignmentScratch ws;
  for (auto& [footprint, cells] : by_width) {
    if (static_cast<int>(cells.size()) < 2) {
      continue;
    }
    // Scan cells in index order, greedily building maximal independent
    // sets: a cell joins if none of its nets are used by the set yet
    // (net-disjointness makes the assignment costs exact).
    size_t cursor = 0;
    while (cursor < cells.size()) {
      flow.throwIfInterrupted();
      set.clear();
      ++epoch;
      for (; cursor < cells.size() &&
             static_cast<int>(set.size()) < options.maxSetSize;
           ++cursor) {
        const Index cell = cells[cursor];
        bool independent = true;
        for (Index s = db.cellPinBegin(cell);
             s < db.cellPinEnd(cell) && independent; ++s) {
          independent = net_epoch[db.pinNet(db.cellPinAt(s))] != epoch;
        }
        if (!independent) {
          continue;  // skipped for this pass (the next pass rescans)
        }
        set.push_back(cell);
        for (Index s = db.cellPinBegin(cell); s < db.cellPinEnd(cell);
             ++s) {
          net_epoch[db.pinNet(db.cellPinAt(s))] = epoch;
        }
      }
      const int k = static_cast<int>(set.size());
      if (k < 2) {
        continue;
      }
      // Cost matrix: cell i at slot j (= cell j's current position), its
      // nets summed in its pin order (a net holding two of the cell's pins
      // counts twice, matching the original full-scan cost). One table
      // per row: the slots only move the cell.
      cost.resize(static_cast<std::size_t>(k) * k);
      for (int i = 0; i < k; ++i) {
        table.build(db, &set[i], 1, kInvalidIndex, counts);
        for (int j = 0; j < k; ++j) {
          cost[i * k + j] =
              table.pinOrderHpwl(db.cellX(set[j]), db.cellY(set[j]), counts);
        }
      }
      double identity_cost = 0.0;
      for (int i = 0; i < k; ++i) {
        identity_cost += cost[i * k + i];
      }
      if (!solveAssignmentInto(cost.data(), k, ws, assignment)) {
        // Non-finite cost: keep the set where it is.
        nonfinite_sets.add();
        continue;
      }
      double best_cost = 0.0;
      for (int i = 0; i < k; ++i) {
        best_cost += cost[i * k + assignment[i]];
      }
      ++result.setsSolved;
      if (best_cost < identity_cost - 1e-9) {
        // Apply the permutation, keeping the bbox cache in lockstep so
        // later sets' cost rows stay exact.
        slots.resize(k);
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
