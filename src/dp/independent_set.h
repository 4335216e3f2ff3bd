// Independent-set matching (ISM) for detailed placement.
//
// The classic third detailed-placement move (alongside local reordering
// and global swap), and the core batch algorithm of the GPU-DP line of
// work the paper cites as future work (ABCDPlace): pick a set of
// equal-width cells that share no nets (so their costs are independent),
// treat their current locations as slots, and solve the assignment
// problem that places each cell on the slot minimizing its own net cost.
// The Hungarian algorithm returns the jointly optimal permutation; the
// identity permutation is always feasible, so ISM never increases HPWL.
#pragma once

#include <vector>

#include "db/database.h"

namespace dreamplace {

struct IsmOptions {
  int maxSetSize = 24;    ///< Cells per matching problem (O(K^3) solve).
  int maxSetsPerPass = 0; ///< 0 => unlimited.
};

struct IsmResult {
  long setsSolved = 0;
  long cellsMoved = 0;
  double hpwlGain = 0.0;  ///< Positive = improvement.
};

/// One ISM pass over all width classes. Positions in `db` are permuted
/// within each matched set; legality is preserved (slots are the cells'
/// own legal positions).
IsmResult independentSetMatching(Database& db, const IsmOptions& options);

/// Solves the square assignment problem min sum_i cost[i][perm[i]]
/// (Hungarian / Kuhn-Munkres, O(n^3)). Returns the optimal column for
/// each row, or an empty vector when any cost is NaN or infinite (no
/// assignment is defined then; ISM keeps such a set in place and counts
/// it under dp/ism_nonfinite_sets). Exposed for testing.
std::vector<int> solveAssignment(const std::vector<std::vector<double>>& cost);

}  // namespace dreamplace
