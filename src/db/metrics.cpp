#include "db/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.h"

namespace dreamplace {

namespace {

/// Shared HPWL kernel; `getX`/`getY` map a pin index to its position.
template <typename GetX, typename GetY>
double hpwlImpl(const Database& db, GetX getX, GetY getY) {
  double total = 0.0;
  for (Index e = 0; e < db.numNets(); ++e) {
    const Index begin = db.netPinBegin(e);
    const Index end = db.netPinEnd(e);
    if (end - begin < 2) {
      continue;
    }
    double xl = std::numeric_limits<double>::infinity();
    double xh = -xl;
    double yl = xl;
    double yh = -xl;
    for (Index p = begin; p < end; ++p) {
      const double px = getX(p);
      const double py = getY(p);
      xl = std::min(xl, px);
      xh = std::max(xh, px);
      yl = std::min(yl, py);
      yh = std::max(yh, py);
    }
    total += db.netWeight(e) * ((xh - xl) + (yh - yl));
  }
  return total;
}

}  // namespace

double hpwl(const Database& db) {
  return hpwlImpl(
      db, [&](Index p) { return db.pinX(p); },
      [&](Index p) { return db.pinY(p); });
}

double hpwl(const Database& db, std::span<const double> x,
            std::span<const double> y) {
  DP_ASSERT(static_cast<Index>(x.size()) >= db.numMovable());
  auto posX = [&](Index p) {
    const Index c = db.pinCell(p);
    const double base = db.isMovable(c) ? x[c] : db.cellX(c);
    return base + db.cellWidth(c) / 2 + db.pinOffsetX(p);
  };
  auto posY = [&](Index p) {
    const Index c = db.pinCell(p);
    const double base = db.isMovable(c) ? y[c] : db.cellY(c);
    return base + db.cellHeight(c) / 2 + db.pinOffsetY(p);
  };
  return hpwlImpl(db, posX, posY);
}

double netHpwl(const Database& db, Index net) {
  const Index begin = db.netPinBegin(net);
  const Index end = db.netPinEnd(net);
  if (end - begin < 2) {
    return 0.0;
  }
  double xl = std::numeric_limits<double>::infinity();
  double xh = -xl;
  double yl = xl;
  double yh = -xl;
  for (Index p = begin; p < end; ++p) {
    xl = std::min(xl, db.pinX(p));
    xh = std::max(xh, db.pinX(p));
    yl = std::min(yl, db.pinY(p));
    yh = std::max(yh, db.pinY(p));
  }
  return db.netWeight(net) * ((xh - xl) + (yh - yl));
}

namespace {

/// Sweep-line enumeration of overlapping cell pairs. Calls `visit(i, j,
/// area)` for every overlapping pair with positive area where at least one
/// cell is movable.
template <typename Visit>
void forEachOverlap(const Database& db, Visit visit) {
  const Index n = db.numCells();
  std::vector<Index> order(n);
  for (Index i = 0; i < n; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](Index a, Index b) {
    return db.cellX(a) < db.cellX(b);
  });
  // Active set sorted by x-high; for each cell, compare against actives
  // whose x-interval still overlaps. For legalized placements the active
  // set stays small, so this is near O(n log n) in practice.
  std::vector<Index> active;
  for (Index idx : order) {
    const Box<Coord> box = db.cellBox(idx);
    // Drop actives that end before this cell begins.
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](Index a) {
                                  return db.cellX(a) + db.cellWidth(a) <=
                                         box.xl;
                                }),
                 active.end());
    for (Index a : active) {
      if (!db.isMovable(a) && !db.isMovable(idx)) {
        continue;
      }
      const Coord area = box.overlapArea(db.cellBox(a));
      if (area > 0) {
        visit(a, idx, area);
      }
    }
    active.push_back(idx);
  }
}

}  // namespace

double totalOverlapArea(const Database& db) {
  double total = 0.0;
  forEachOverlap(db, [&](Index, Index, Coord area) { total += area; });
  return total;
}

LegalityReport checkLegality(const Database& db, double tolerance) {
  LegalityReport report;
  const Box<Coord>& die = db.dieArea();
  const Coord row_height = db.rowHeight();
  const Coord site_width = db.siteWidth();
  const Coord row_base = db.rows().empty() ? die.yl : db.rows().front().y;
  const Coord site_base = db.rows().empty() ? die.xl : db.rows().front().xl;

  for (Index i = 0; i < db.numMovable(); ++i) {
    const Box<Coord> box = db.cellBox(i);
    // Every comparison with NaN is false, so a non-finite box would pass
    // each check below; it is in no region.
    const bool finite = std::isfinite(box.xl) && std::isfinite(box.xh) &&
                        std::isfinite(box.yl) && std::isfinite(box.yh);
    if (!finite || box.xl < die.xl - tolerance ||
        box.xh > die.xh + tolerance || box.yl < die.yl - tolerance ||
        box.yh > die.yh + tolerance) {
      ++report.outOfRegion;
    }
    if (row_height > 0) {
      const double rows_off =
          std::abs(std::remainder(box.yl - row_base, row_height));
      if (rows_off > tolerance) {
        ++report.offRow;
      }
    }
    if (site_width > 0) {
      const double site_off =
          std::abs(std::remainder(box.xl - site_base, site_width));
      if (site_off > tolerance) {
        ++report.offSite;
      }
    }
  }
  forEachOverlap(db, [&](Index, Index, Coord area) {
    if (area > tolerance) {
      ++report.overlaps;
    }
  });
  report.legal = report.overlaps == 0 && report.offRow == 0 &&
                 report.offSite == 0 && report.outOfRegion == 0;
  return report;
}

std::string LegalityReport::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "legal=%d overlaps=%d offRow=%d offSite=%d outOfRegion=%d",
                legal ? 1 : 0, overlaps, offRow, offSite, outOfRegion);
  return buf;
}

double anchoredHpwlBound(const Database& db) {
  // Place every movable cell at the centroid of the fixed pins on its nets
  // (or die center if none), then measure HPWL. Not a true lower bound but
  // a stable reference point for sanity tests.
  std::vector<double> x(db.numMovable());
  std::vector<double> y(db.numMovable());
  const Box<Coord>& die = db.dieArea();
  for (Index c = 0; c < db.numMovable(); ++c) {
    double sx = 0.0;
    double sy = 0.0;
    int count = 0;
    for (Index s = db.cellPinBegin(c); s < db.cellPinEnd(c); ++s) {
      const Index pin = db.cellPinAt(s);
      const Index net = db.pinNet(pin);
      for (Index q = db.netPinBegin(net); q < db.netPinEnd(net); ++q) {
        const Index other = db.pinCell(q);
        if (!db.isMovable(other)) {
          sx += db.pinX(q);
          sy += db.pinY(q);
          ++count;
        }
      }
    }
    if (count > 0) {
      x[c] = sx / count - db.cellWidth(c) / 2;
      y[c] = sy / count - db.cellHeight(c) / 2;
    } else {
      x[c] = die.centerX() - db.cellWidth(c) / 2;
      y[c] = die.centerY() - db.cellHeight(c) / 2;
    }
  }
  return hpwl(db, x, y);
}

}  // namespace dreamplace
