#include "lg/abacus_legalizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/counters.h"
#include "common/flow_context.h"
#include "common/log.h"
#include "common/timer.h"
#include "lg/segments.h"

namespace dreamplace {

namespace {

/// A maximal group of abutting cells within a segment. Optimal cluster
/// position minimizes sum_i e_i (x_c + offset_i - x_i*)^2, giving
/// x_c = q / e with q = sum e_i (x_i* - offset_i).
struct Cluster {
  Coord x = 0;      ///< Cluster left edge.
  double e = 0;     ///< Total weight.
  double q = 0;     ///< Weighted target sum.
  Coord w = 0;      ///< Total width.
  int first = -1;   ///< First member index into the segment's member list.
  int count = 0;    ///< Number of member cells.
};

struct SegmentCells {
  RowSegment seg;
  std::vector<Index> members;    ///< Cells in insertion (x) order.
  std::vector<Cluster> clusters;
  Coord usedWidth = 0;           ///< Total width of committed members.
};

/// Simulates appending a cell with target x `tx` and width `width` into
/// the segment, returning the final x of the cell (or infinity if it does
/// not fit) without modifying the segment. The append can only merge the
/// tail run of existing clusters, so the simulation walks backwards over
/// them carrying a virtual merged cluster — no copy, no allocation. The
/// arithmetic mirrors commitPlace's collapse expression-for-expression so
/// trial and commit agree bit-for-bit.
Coord trialPlace(const SegmentCells& segment, double weight, Coord tx,
                 Coord width) {
  const Coord xl = segment.seg.xl;
  const Coord xh = segment.seg.xh;
  if (segment.usedWidth + width > xh - xl) {
    return std::numeric_limits<Coord>::infinity();
  }
  double e = weight;
  double q = weight * tx;
  Coord w = width;
  std::size_t i = segment.clusters.size();
  for (;;) {
    const Coord x = std::clamp(static_cast<Coord>(q / e), xl, xh - w);
    if (i == 0) {
      return x + w - width;
    }
    const Cluster& prev = segment.clusters[i - 1];
    if (prev.x + prev.w <= x) {
      return x + w - width;
    }
    // Merge prev into the virtual tail cluster: members of the tail sit
    // after prev's, offset by prev.w; their targets shift accordingly in q.
    q = prev.q + (q - e * prev.w);
    e = prev.e + e;
    w = prev.w + w;
    --i;
  }
}

/// Commits the append the trial simulated: pushes a singleton cluster and
/// collapses overlapping tail clusters in place.
void commitPlace(SegmentCells& segment, double weight, Coord tx,
                 Coord width) {
  const Coord xl = segment.seg.xl;
  const Coord xh = segment.seg.xh;
  DP_ASSERT(segment.usedWidth + width <= xh - xl);
  std::vector<Cluster>& clusters = segment.clusters;

  Cluster fresh;
  fresh.e = weight;
  fresh.q = weight * tx;
  fresh.w = width;
  fresh.x = std::clamp(tx, xl, xh - width);
  fresh.first = static_cast<int>(segment.members.size());
  fresh.count = 1;
  clusters.push_back(fresh);

  // Collapse: while the last cluster overlaps its predecessor, merge.
  for (;;) {
    Cluster& last = clusters.back();
    last.x = std::clamp(static_cast<Coord>(last.q / last.e), xl,
                        xh - last.w);
    if (clusters.size() < 2) {
      break;
    }
    Cluster& prev = clusters[clusters.size() - 2];
    if (prev.x + prev.w <= last.x) {
      break;
    }
    prev.q += last.q - last.e * prev.w;
    prev.e += last.e;
    prev.w += last.w;
    prev.count += last.count;
    clusters.pop_back();
  }
  segment.usedWidth += width;
}

}  // namespace

LegalizerResult AbacusLegalizer::run(Database& db) const {
  ScopedTimer timer("lg/abacus");
  LegalizerResult result;

  std::vector<SegmentCells> segments;
  for (const RowSegment& seg : buildRowSegments(db)) {
    segments.push_back({seg, {}, {}, 0});
  }
  DP_ASSERT_MSG(!segments.empty(), "no free row segments to legalize into");

  const auto num_rows = static_cast<Index>(db.rows().size());
  const Coord row_height = db.rowHeight();
  const Coord y_base = db.rows().front().y;
  std::vector<std::vector<int>> by_row(num_rows);
  for (int s = 0; s < static_cast<int>(segments.size()); ++s) {
    by_row[segments[s].seg.row].push_back(s);
  }

  std::vector<Index> order;
  order.reserve(db.numMovable());
  for (Index i = 0; i < db.numMovable(); ++i) {
    if (!isMovableMacro(db, i)) {
      order.push_back(i);  // macros are legalized separately (obstacles)
    }
  }
  std::sort(order.begin(), order.end(), [&](Index a, Index b) {
    return db.cellX(a) < db.cellX(b);
  });

  // Candidate segments are tried outward by row distance (want_row + d,
  // then want_row - d), stopping once no farther row can beat the best
  // cost. A far-away segment whose displacement lower bound already
  // meets the incumbent is skipped without a trial: its true cost is at
  // least that bound and replacement needs a strictly smaller cost.
  // Cells between two cancel/deadline polls.
  constexpr std::size_t kPollCells = 256;
  const FlowContext& flow = FlowContext::current();
  std::int64_t segments_tried = 0;

  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k % kPollCells == 0) {
      flow.throwIfInterrupted();
    }
    const Index cell = order[k];
    const Coord want_x = db.cellX(cell);
    const Coord want_y = db.cellY(cell);
    const Coord width = db.cellWidth(cell);
    const auto want_row = static_cast<Index>(
        std::clamp<double>(std::round((want_y - y_base) / row_height), 0,
                           num_rows - 1));

    double best_cost = std::numeric_limits<double>::infinity();
    int best_seg = -1;

    const auto try_row = [&](Index r) {
      for (int s : by_row[r]) {
        const SegmentCells& segment = segments[s];
        if (want_x + width < segment.seg.xl || want_x > segment.seg.xh) {
          const double lower_bound =
              std::max<double>(segment.seg.xl - want_x - width,
                               want_x - segment.seg.xh) +
              std::abs(segment.seg.y - want_y);
          if (lower_bound >= best_cost) {
            continue;
          }
        }
        ++segments_tried;
        const Coord x = trialPlace(segment, 1.0, want_x, width);
        if (!std::isfinite(x)) {
          continue;
        }
        const double cost =
            std::abs(x - want_x) + std::abs(segment.seg.y - want_y);
        if (cost < best_cost) {
          best_cost = cost;
          best_seg = s;
        }
      }
    };

    for (Index d = 0; d < num_rows; ++d) {
      bool any = false;
      if (want_row + d < num_rows) {
        try_row(want_row + d);
        any = true;
      }
      if (d > 0 && want_row - d >= 0) {
        try_row(want_row - d);
        any = true;
      }
      if (!any) {
        break;
      }
      if (best_seg >= 0 && d > options_.rowSearchWindow &&
          d * row_height > best_cost) {
        break;
      }
    }

    if (best_seg < 0) {
      ++result.failed;
      continue;
    }
    SegmentCells& segment = segments[best_seg];
    commitPlace(segment, 1.0, want_x, width);
    segment.members.push_back(cell);
    ++result.placed;
    result.totalDisplacement += best_cost;
    result.maxDisplacement = std::max(result.maxDisplacement, best_cost);
  }
  currentCounterRegistry().add("lg/segments_tried", segments_tried);

  // Commit final coordinates: walk each segment's clusters, snapping to the
  // site grid (cells have integral site widths, so packing is preserved).
  for (SegmentCells& segment : segments) {
    const Coord site =
        db.rows()[segment.seg.row].siteWidth > 0
            ? db.rows()[segment.seg.row].siteWidth
            : 1;
    int member = 0;
    Coord prev_end = segment.seg.xl;
    for (const Cluster& cluster : segment.clusters) {
      Coord x = segment.seg.xl +
                std::floor((cluster.x - segment.seg.xl) / site) * site;
      // Snapping can collide with the previous cluster's tail; packing
      // left-to-right from prev_end is always feasible because cell widths
      // are site multiples and Abacus guaranteed the total fits.
      x = std::clamp(x, prev_end, segment.seg.xh - cluster.w);
      x = std::max(x, prev_end);
      for (int k = 0; k < cluster.count; ++k) {
        const Index cell = segment.members[member++];
        db.setCellPosition(cell, x, segment.seg.y);
        x += db.cellWidth(cell);
      }
      prev_end = x;
    }
  }

  if (result.failed > 0) {
    logWarn("abacus legalizer: %d cells could not be placed", result.failed);
  }
  return result;
}

}  // namespace dreamplace
