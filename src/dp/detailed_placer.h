// Detailed placement: incremental refinement of a legal placement.
//
// The paper delegates DP to NTUplace3; this module is the in-repo stand-in
// providing the two classic moves academic detailed placers share:
//  * intra-row local reordering — sliding windows of consecutive cells are
//    exhaustively permuted and re-packed, keeping the best HPWL;
//  * global swap — each cell computes its optimal region (median of its
//    nets' bounding boxes) and tries swapping with an equal-width cell
//    there;
//  * independent-set matching — equal-width, net-disjoint cell sets are
//    jointly re-permuted over their slots via the Hungarian algorithm
//    (dp/independent_set.h).
// All moves preserve legality and are only applied when they strictly
// reduce HPWL, so DP never degrades the solution.
#pragma once

#include "db/database.h"

namespace dreamplace {

struct DetailedPlacerResult {
  double initialHpwl = 0.0;
  double finalHpwl = 0.0;
  long reorderMoves = 0;
  long swapMoves = 0;
  long ismMoves = 0;
};

class DetailedPlacer {
 public:
  static constexpr int kMaxWindowSize = 16;

  struct Options {
    int passes = 3;
    /// Cells per reorder window (3 => 6 perms), in [2, kMaxWindowSize].
    int windowSize = 3;
    double swapRadiusRows = 10;  ///< Search radius around the optimal region.
    int maxCandidates = 12;      ///< Swap candidates examined per cell.
    /// Stop early once a full pass improves HPWL by less than this
    /// fraction; 0 disables the check (always run `passes` passes).
    double convergenceTolerance = 0.0;
    bool enableIsm = true;        ///< Independent-set matching pass.
    int ismSetSize = 24;
  };

  explicit DetailedPlacer(Options options) : options_(options) {}
  DetailedPlacer() : DetailedPlacer(Options()) {}

  DetailedPlacerResult run(Database& db) const;

 private:
  Options options_;
};

}  // namespace dreamplace
