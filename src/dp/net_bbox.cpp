#include "dp/net_bbox.h"

#include <algorithm>
#include <limits>

#include "common/log.h"

namespace dreamplace {

namespace {

inline void foldPin(NetBboxCache::Box& b, double px, double py) {
  if (px < b.xl) {
    b.xl = px;
    b.nxl = 1;
  } else if (px == b.xl) {
    ++b.nxl;
  }
  if (px > b.xh) {
    b.xh = px;
    b.nxh = 1;
  } else if (px == b.xh) {
    ++b.nxh;
  }
  if (py < b.yl) {
    b.yl = py;
    b.nyl = 1;
  } else if (py == b.yl) {
    ++b.nyl;
  }
  if (py > b.yh) {
    b.yh = py;
    b.nyh = 1;
  } else if (py == b.yh) {
    ++b.nyh;
  }
}

inline NetBboxCache::Box scanNet(const Database& db, Index net) {
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  NetBboxCache::Box b{kInfinity, -kInfinity, kInfinity, -kInfinity,
                      0, 0, 0, 0};
  for (Index p = db.netPinBegin(net); p < db.netPinEnd(net); ++p) {
    foldPin(b, db.pinX(p), db.pinY(p));
  }
  return b;
}

}  // namespace

void NetBboxCache::build(const Database& db) {
  boxes_.resize(db.numNets());
  rescanStamp_.assign(db.numNets(), 0);
  moveStamp_ = 0;
  for (Index e = 0; e < db.numNets(); ++e) {
    boxes_[e] = scanNet(db, e);
  }
}

void NetBboxCache::rescanNet(const Database& db, Index net) {
  boxes_[net] = scanNet(db, net);
  ++maintenanceRescans;
}

void NetBboxCache::moveCell(const Database& db, Index cell, Coord oldX,
                            Coord oldY) {
  const Coord halfW = db.cellWidth(cell) / 2;
  const Coord halfH = db.cellHeight(cell) / 2;
  ++moveStamp_;
  for (Index s = db.cellPinBegin(cell); s < db.cellPinEnd(cell); ++s) {
    const Index pin = db.cellPinAt(s);
    const Index net = db.pinNet(pin);
    if (rescanStamp_[net] == moveStamp_) {
      // Rescanned for an earlier pin of this cell: the box already holds
      // every pin of the cell at its new position.
      continue;
    }
    // Same arithmetic as Database::pinX/pinY, so equal inputs give equal
    // coordinates bit-for-bit.
    const double oldPx = oldX + halfW + db.pinOffsetX(pin);
    const double oldPy = oldY + halfH + db.pinOffsetY(pin);
    const double newPx = db.pinX(pin);
    const double newPy = db.pinY(pin);
    Box& b = boxes_[net];
    // Remove the old coordinate: a pin that solely held a boundary may
    // shrink the box, which only a rescan can answer exactly.
    if ((oldPx == b.xl && b.nxl <= 1) || (oldPx == b.xh && b.nxh <= 1) ||
        (oldPy == b.yl && b.nyl <= 1) || (oldPy == b.yh && b.nyh <= 1)) {
      rescanNet(db, net);
      rescanStamp_[net] = moveStamp_;
      continue;
    }
    if (oldPx == b.xl) --b.nxl;
    if (oldPx == b.xh) --b.nxh;
    if (oldPy == b.yl) --b.nyl;
    if (oldPy == b.yh) --b.nyh;
    foldPin(b, newPx, newPy);
  }
}

void MoveTable::build(const Database& db, const Index* cells, int count,
                      Index alsoExcluded, BboxCounts& counts) {
  nets_.clear();
  pins_.clear();
  order_.clear();
  unsorted_.clear();
  for (int k = 0; k < count; ++k) {
    const Index cell = cells[k];
    const Coord halfW = db.cellWidth(cell) / 2;
    const Coord halfH = db.cellHeight(cell) / 2;
    for (Index s = db.cellPinBegin(cell); s < db.cellPinEnd(cell); ++s) {
      const Index pin = db.cellPinAt(s);
      order_.emplace_back(db.pinNet(pin),
                          static_cast<std::int32_t>(unsorted_.size()));
      unsorted_.push_back({k, halfW, halfH, db.pinOffsetX(pin),
                           db.pinOffsetY(pin)});
    }
  }
  std::sort(order_.begin(), order_.end());
  netOfPin_.resize(order_.size());
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < order_.size();) {
    const Index e = order_[i].first;
    Net n;
    n.net = e;
    n.degenerate = db.netPinEnd(e) - db.netPinBegin(e) < 2;
    n.hasRest = false;
    n.weight = db.netWeight(e);
    n.xl = kInfinity;
    n.xh = -kInfinity;
    n.yl = kInfinity;
    n.yh = -kInfinity;
    n.pinBegin = static_cast<std::int32_t>(pins_.size());
    for (; i < order_.size() && order_[i].first == e; ++i) {
      netOfPin_[order_[i].second] = static_cast<std::int32_t>(nets_.size());
      pins_.push_back(unsorted_[order_[i].second]);
    }
    n.pinEnd = static_cast<std::int32_t>(pins_.size());
    n.ySpan = 0.0;
    // The complement box: the net's pins on neither a moving cell nor the
    // excluded partner. It depends only on pins that stay put.
    for (Index p = db.netPinBegin(e); p < db.netPinEnd(e); ++p) {
      const Index c = db.pinCell(p);
      bool moving = c == alsoExcluded;
      for (int k = 0; k < count && !moving; ++k) {
        moving = cells[k] == c;
      }
      if (moving) {
        continue;
      }
      const double px = db.pinX(p);
      const double py = db.pinY(p);
      n.hasRest = true;
      n.xl = std::min(n.xl, px);
      n.xh = std::max(n.xh, px);
      n.yl = std::min(n.yl, py);
      n.yh = std::max(n.yh, py);
    }
    ++counts.rescans;
    nets_.push_back(n);
  }
}

namespace {

/// Extends (xl, xh, yl, yh) by pins [p, end) of a cell at (x, y).
inline void foldPins(double& xl, double& xh, double& yl, double& yh,
                     const MoveTable::Pin* p, const MoveTable::Pin* end,
                     Coord x, Coord y) {
  for (; p < end; ++p) {
    const double px = x + p->halfW + p->offX;
    const double py = y + p->halfH + p->offY;
    xl = std::min(xl, px);
    xh = std::max(xh, px);
    yl = std::min(yl, py);
    yh = std::max(yh, py);
  }
}

}  // namespace

double MoveTable::cachedHpwl(const NetBboxCache& cache,
                             BboxCounts& counts) const {
  double total = 0.0;
  for (const Net& n : nets_) {
    if (n.degenerate) {
      total += 0.0;
      continue;
    }
    const NetBboxCache::Box& b = cache.box(n.net);
    total += n.weight * ((b.xh - b.xl) + (b.yh - b.yl));
    ++counts.deltas;
  }
  return total;
}

void MoveTable::setRowY(Coord y) {
  for (Net& n : nets_) {
    double yl = n.yl, yh = n.yh;
    for (const Pin* p = pins(n); p < pinsEnd(n); ++p) {
      const double py = y + p->halfH + p->offY;
      yl = std::min(yl, py);
      yh = std::max(yh, py);
    }
    n.ySpan = yh - yl;
  }
}

double MoveTable::sumHpwlInRow(const Coord* xs, BboxCounts& counts) const {
  double total = 0.0;
  for (const Net& n : nets_) {
    if (n.degenerate) {
      total += 0.0;
      continue;
    }
    double xl = n.xl, xh = n.xh;
    for (const Pin* p = pins(n); p < pinsEnd(n); ++p) {
      const double px = xs[p->slot] + p->halfW + p->offX;
      xl = std::min(xl, px);
      xh = std::max(xh, px);
    }
    total += n.weight * ((xh - xl) + n.ySpan);
    ++counts.deltas;
  }
  return total;
}

double MoveTable::pinOrderHpwl(Coord x, Coord y, BboxCounts& counts) {
  values_.resize(nets_.size());
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    const Net& n = nets_[i];
    double xl = n.xl, xh = n.xh, yl = n.yl, yh = n.yh;
    foldPins(xl, xh, yl, yh, pins(n), pinsEnd(n), x, y);
    values_[i] = n.degenerate ? 0.0 : n.weight * ((xh - xl) + (yh - yl));
    counts.deltas += !n.degenerate;
  }
  double total = 0.0;
  for (const std::int32_t i : netOfPin_) {
    total += values_[i];
  }
  return total;
}

SwapScore scoreSwap(const NetBboxCache& cache, const MoveTable& a,
                    Coord ax, Coord ay, const MoveTable& b, Coord bx,
                    Coord by, BboxCounts& counts) {
  SwapScore score;
  const std::vector<MoveTable::Net>& an = a.nets();
  const std::vector<MoveTable::Net>& bn = b.nets();
  std::size_t i = 0, j = 0;
  while (i < an.size() || j < bn.size()) {
    const MoveTable::Net* n;
    double xl, xh, yl, yh;
    if (j == bn.size() || (i < an.size() && an[i].net < bn[j].net)) {
      n = &an[i];
      xl = n->xl, xh = n->xh, yl = n->yl, yh = n->yh;
      foldPins(xl, xh, yl, yh, a.pins(*n), a.pinsEnd(*n), bx, by);
      ++i;
    } else {
      n = &bn[j];
      xl = n->xl, xh = n->xh, yl = n->yl, yh = n->yh;
      if (i < an.size() && an[i].net == n->net) {
        const MoveTable::Net& shared = an[i];
        foldPins(xl, xh, yl, yh, a.pins(shared), a.pinsEnd(shared), bx, by);
        ++i;
      }
      foldPins(xl, xh, yl, yh, b.pins(*n), b.pinsEnd(*n), ax, ay);
      ++j;
    }
    if (n->degenerate) {
      score.before += 0.0;
      score.after += 0.0;
      continue;
    }
    const NetBboxCache::Box& cached = cache.box(n->net);
    score.before +=
        n->weight * ((cached.xh - cached.xl) + (cached.yh - cached.yl));
    score.after += n->weight * ((xh - xl) + (yh - yl));
    counts.deltas += 2;
  }
  return score;
}

}  // namespace dreamplace
