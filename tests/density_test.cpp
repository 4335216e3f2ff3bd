#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "common/simd.h"
#include "gen/netlist_generator.h"
#include "ops/density_map.h"
#include "ops/density_op.h"

namespace dreamplace {
namespace {

DensityGrid<double> unitGrid(int m, double binSize = 1.0) {
  DensityGrid<double> grid;
  grid.mx = m;
  grid.my = m;
  grid.xl = 0;
  grid.yl = 0;
  grid.binW = binSize;
  grid.binH = binSize;
  return grid;
}

double mapSum(const std::vector<double>& map) {
  return std::accumulate(map.begin(), map.end(), 0.0);
}

TEST(MakeGridTest, PowerOfTwoAndClamped) {
  Box<Coord> region{0, 0, 1000, 1000};
  const auto grid = makeGrid<double>(region, 2000, 16, 1024);
  EXPECT_EQ(grid.mx, grid.my);
  EXPECT_EQ(grid.mx & (grid.mx - 1), 0);  // power of two
  EXPECT_GE(grid.mx, 16);
  EXPECT_LE(grid.mx, 1024);
  EXPECT_DOUBLE_EQ(grid.binW * grid.mx, 1000);
  // Tiny design clamps to the minimum.
  EXPECT_EQ(makeGrid<double>(region, 4, 16, 1024).mx, 16);
}

TEST(DensityMapTest, ScatterConservesCharge) {
  // Total map mass (in density units * bin area) equals total cell area,
  // regardless of smoothing, as long as cells stay inside the region.
  const auto grid = unitGrid(32);
  std::vector<double> w{3.0, 0.5, 10.0};
  std::vector<double> h{2.0, 0.5, 4.0};
  DensityMapBuilder<double> builder(grid, w, h);
  std::vector<double> map(32 * 32, 0.0);
  const double x[] = {10.0, 20.0, 16.0};
  const double y[] = {10.0, 20.0, 16.0};
  builder.scatter(x, y, 0, 3, map);
  const double expected = 3 * 2 + 0.5 * 0.5 + 10 * 4;
  EXPECT_NEAR(mapSum(map) * grid.binArea(), expected, 1e-9);
}

TEST(DensityMapTest, SmoothingExpandsSmallCells) {
  const auto grid = unitGrid(16, 2.0);  // bins 2x2
  std::vector<double> w{0.5};
  std::vector<double> h{0.5};
  DensityMapBuilder<double> builder(grid, w, h);
  // Effective footprint >= sqrt(2)*bin in each dimension.
  EXPECT_GE(builder.effectiveWidth(0), M_SQRT2 * 2.0 - 1e-12);
  EXPECT_GE(builder.effectiveHeight(0), M_SQRT2 * 2.0 - 1e-12);
  // Charge scale preserves area.
  EXPECT_NEAR(builder.chargeScale(0) * builder.effectiveWidth(0) *
                  builder.effectiveHeight(0),
              0.25, 1e-12);
  // Large cells are untouched.
  std::vector<double> w2{10.0};
  std::vector<double> h2{10.0};
  DensityMapBuilder<double> big(grid, w2, h2);
  EXPECT_DOUBLE_EQ(big.effectiveWidth(0), 10.0);
  EXPECT_DOUBLE_EQ(big.chargeScale(0), 1.0);
}

class DensityKernelTest
    : public ::testing::TestWithParam<std::tuple<DensityKernel, int>> {};

TEST_P(DensityKernelTest, StrategiesProduceIdenticalMaps) {
  const auto [kernel, subdivision] = GetParam();
  const auto grid = unitGrid(32);
  Rng rng(7);
  const int n = 40;
  std::vector<double> w(n), h(n), x(n), y(n);
  for (int i = 0; i < n; ++i) {
    w[i] = rng.uniform(0.5, 6.0);
    h[i] = rng.uniform(0.5, 6.0);
    x[i] = rng.uniform(4, 28);
    y[i] = rng.uniform(4, 28);
  }
  DensityMapBuilder<double>::Options base_opts;
  base_opts.kernel = DensityKernel::kNaive;
  base_opts.subdivision = 1;
  DensityMapBuilder<double> reference(grid, w, h, base_opts);
  DensityMapBuilder<double>::Options opts;
  opts.kernel = kernel;
  opts.subdivision = subdivision;
  DensityMapBuilder<double> variant(grid, w, h, opts);

  std::vector<double> map_ref(32 * 32, 0.0), map_var(32 * 32, 0.0);
  reference.scatter(x.data(), y.data(), 0, n, map_ref);
  variant.scatter(x.data(), y.data(), 0, n, map_var);
  for (size_t b = 0; b < map_ref.size(); ++b) {
    ASSERT_NEAR(map_var[b], map_ref[b], 1e-9) << "bin " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndSubdivisions, DensityKernelTest,
    ::testing::Combine(::testing::Values(DensityKernel::kNaive,
                                         DensityKernel::kSorted),
                       ::testing::Values(1, 2, 4, 8)));

TEST(DensityMapTest, ScatterRangeRestriction) {
  const auto grid = unitGrid(16);
  std::vector<double> w{2, 2, 2};
  std::vector<double> h{2, 2, 2};
  DensityMapBuilder<double> builder(grid, w, h);
  const double x[] = {4.0, 8.0, 12.0};
  const double y[] = {4.0, 8.0, 12.0};
  std::vector<double> first(16 * 16, 0.0), rest(16 * 16, 0.0),
      all(16 * 16, 0.0);
  builder.scatter(x, y, 0, 1, first);
  builder.scatter(x, y, 1, 3, rest);
  builder.scatter(x, y, 0, 3, all);
  for (size_t b = 0; b < all.size(); ++b) {
    ASSERT_NEAR(first[b] + rest[b], all[b], 1e-12);
  }
}

TEST(DensityOverflowTest, ZeroWhenSpreadHighWhenClumped) {
  const auto grid = unitGrid(16);
  const int n = 16;
  std::vector<double> w(n, 1.0), h(n, 1.0);
  DensityMapBuilder<double> builder(grid, w, h);
  std::vector<double> fixed(16 * 16, 0.0);

  // Spread: one cell per distinct bin.
  std::vector<double> xs(n), ys(n);
  for (int i = 0; i < n; ++i) {
    xs[i] = (i % 4) * 4 + 2.0;
    ys[i] = (i / 4) * 4 + 2.0;
  }
  std::vector<double> map(16 * 16, 0.0);
  builder.scatter(xs.data(), ys.data(), 0, n, map);
  EXPECT_LT(densityOverflow<double>(map, fixed, grid, 1.0, n * 1.0), 0.15);

  // Clumped: all cells on one spot.
  std::fill(xs.begin(), xs.end(), 8.0);
  std::fill(ys.begin(), ys.end(), 8.0);
  std::fill(map.begin(), map.end(), 0.0);
  builder.scatter(xs.data(), ys.data(), 0, n, map);
  EXPECT_GT(densityOverflow<double>(map, fixed, grid, 1.0, n * 1.0), 0.5);
}

TEST(FixedDensityMapTest, CoversFixedCellsAndClamps) {
  Database db;
  db.addCell("m", 2, 2, true);
  const Index f1 = db.addCell("f1", 4, 4, false);
  const Index f2 = db.addCell("f2", 4, 4, false);
  const Index net = db.addNet("n");
  db.addPin(net, 0, 0, 0);
  db.addPin(net, f1, 0, 0);
  db.setDieArea({0, 0, 16, 16});
  db.addRow({0, 2, 0, 16, 1});
  db.setCellPosition(f1, 4, 4);
  db.setCellPosition(f2, 4, 4);  // stacked on purpose
  db.finalize();

  const auto grid = unitGrid(16);
  const auto map = buildFixedDensityMap<double>(db, grid);
  // Bins inside the macro area fully covered; clamped at 1 despite stack.
  EXPECT_DOUBLE_EQ(map[5 * 16 + 5], 1.0);
  EXPECT_DOUBLE_EQ(map[0], 0.0);
}

TEST(GatherForceTest, PushesApartTwoClumps) {
  // Two heavy nodes at the same location: the field must push them in
  // opposite directions (gradient signs differ) or at minimum produce a
  // repulsive configuration once separated slightly.
  GeneratorConfig cfg;
  cfg.numCells = 64;
  cfg.seed = 12;
  auto db = generateNetlist(cfg);
  const auto grid = makeGrid<double>(db->dieArea(), db->numMovable(), 16, 64);
  std::vector<double> nodeW, nodeH;
  DensityOp<double>::makeNodeSizes(*db, {}, {}, nodeW, nodeH);
  DensityOp<double> op(*db, grid, nodeW, nodeH);

  const Index n = op.numNodes();
  std::vector<double> params(2 * static_cast<size_t>(n));
  const double cx = db->dieArea().centerX();
  const double cy = db->dieArea().centerY();
  // Left half slightly left of center, right half slightly right.
  for (Index i = 0; i < n; ++i) {
    params[i] = cx + (i % 2 == 0 ? -2.0 : 2.0);
    params[i + n] = cy;
  }
  std::vector<double> grad(params.size());
  op.evaluate(params, grad);
  // Density gradient points toward increasing energy; descending it moves
  // left cells further left (negative direction => gradient positive).
  double left_grad = 0, right_grad = 0;
  for (Index i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      left_grad += grad[i];
    } else {
      right_grad += grad[i];
    }
  }
  EXPECT_GT(left_grad, 0.0);   // -grad pushes left cells left
  EXPECT_LT(right_grad, 0.0);  // -grad pushes right cells right
}

TEST(DensityOpTest, EnergyDecreasesAsCellsSpread) {
  GeneratorConfig cfg;
  cfg.numCells = 100;
  cfg.seed = 14;
  auto db = generateNetlist(cfg);
  const auto grid = makeGrid<double>(db->dieArea(), db->numMovable(), 16, 64);
  std::vector<double> nodeW, nodeH;
  DensityOp<double>::makeNodeSizes(*db, {}, {}, nodeW, nodeH);
  DensityOp<double> op(*db, grid, nodeW, nodeH);
  const Index n = op.numNodes();
  const auto& die = db->dieArea();

  // Clumped at center.
  std::vector<double> clumped(2 * static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) {
    clumped[i] = die.centerX();
    clumped[i + n] = die.centerY();
  }
  // Spread on a grid.
  std::vector<double> spread(2 * static_cast<size_t>(n));
  const int side = static_cast<int>(std::ceil(std::sqrt(double(n))));
  for (Index i = 0; i < n; ++i) {
    spread[i] = die.xl + (0.5 + i % side) * die.width() / side;
    spread[i + n] = die.yl + (0.5 + i / side) * die.height() / side;
  }
  std::vector<double> grad(2 * static_cast<size_t>(n));
  const double e_clumped = op.evaluate(clumped, grad);
  const double ovf_clumped = op.lastOverflow();
  const double e_spread = op.evaluate(spread, grad);
  const double ovf_spread = op.lastOverflow();
  EXPECT_LT(e_spread, e_clumped);
  EXPECT_LT(ovf_spread, ovf_clumped);
}

/// lastOverflow() must equal the metric computed from scratch: a separate
/// movable-only scatter plus densityOverflow at the evaluated point.
template <typename T>
void expectLastOverflowMatchesReference(Index cells, int binsMax) {
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.seed = 21;
  auto db = generateNetlist(cfg);
  const auto grid =
      makeGrid<T>(db->dieArea(), db->numMovable(), 16, binsMax);
  const double target = 0.9;
  std::vector<T> fw, fh, nodeW, nodeH;
  computeFillers<T>(*db, target, fw, fh);
  ASSERT_FALSE(fw.empty());
  DensityOp<T>::makeNodeSizes(*db, fw, fh, nodeW, nodeH);
  typename DensityOp<T>::Options opts;
  opts.targetDensity = target;
  DensityOp<T> op(*db, grid, nodeW, nodeH, opts);
  const Index n = op.numNodes();
  Rng rng(5);
  const auto& die = db->dieArea();
  std::vector<T> params(2 * static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) {
    // Clustered toward the lower-left so some bins overflow.
    params[i] = static_cast<T>(die.xl + rng.uniform(0, 0.6) * die.width());
    params[i + n] =
        static_cast<T>(die.yl + rng.uniform(0, 0.6) * die.height());
  }
  std::vector<T> grad(params.size());
  op.evaluate(params, grad);

  std::vector<T> movable(static_cast<size_t>(grid.mx) * grid.my, T(0));
  op.builder().scatter(params.data(), params.data() + n, 0, db->numMovable(),
                       movable);
  const std::vector<T> fixed = buildFixedDensityMap<T>(*db, grid);
  const double ref = densityOverflow<T>(movable, fixed, grid, target,
                                        db->totalMovableArea());
  EXPECT_GT(ref, 0.0);
  EXPECT_EQ(op.lastOverflow(), ref);
}

TEST(DensityOpTest, LastOverflowMatchesReferenceSerialScatter) {
  // < 2048 nodes: the single-slice scatter path.
  expectLastOverflowMatchesReference<double>(300, 64);
}

TEST(DensityOpTest, LastOverflowMatchesReferenceSlicedScatter) {
  // Enough nodes for the multi-slice scatter, both precisions.
  expectLastOverflowMatchesReference<double>(3000, 64);
  expectLastOverflowMatchesReference<float>(3000, 64);
}

TEST(DensityMapTest, ScatterSplitMatchesScatterSequence) {
  GeneratorConfig cfg;
  cfg.numCells = 3000;
  cfg.seed = 8;
  auto db = generateNetlist(cfg);
  const auto grid = makeGrid<double>(db->dieArea(), db->numMovable(), 16, 64);
  std::vector<double> fw, fh, nodeW, nodeH;
  computeFillers<double>(*db, 1.0, fw, fh);
  DensityOp<double>::makeNodeSizes(*db, fw, fh, nodeW, nodeH);
  DensityMapBuilder<double> builder(grid, nodeW, nodeH);
  const Index n = builder.numNodes();
  Rng rng(2);
  const auto& die = db->dieArea();
  std::vector<double> x(n), y(n);
  for (Index i = 0; i < n; ++i) {
    x[i] = die.xl + rng.uniform(0, 1) * die.width();
    y[i] = die.yl + rng.uniform(0, 1) * die.height();
  }
  const std::vector<double> base = buildFixedDensityMap<double>(*db, grid);
  const std::size_t bins = base.size();
  std::vector<double> lower(bins), map(bins);
  builder.scatterSplit(x.data(), y.data(), db->numMovable(), base, lower,
                       map);

  std::vector<double> ref_lower(bins, 0.0);
  builder.scatter(x.data(), y.data(), 0, db->numMovable(), ref_lower);
  std::vector<double> ref_map(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    ref_map[b] = base[b] + ref_lower[b];
  }
  builder.scatter(x.data(), y.data(), db->numMovable(), n, ref_map);
  for (std::size_t b = 0; b < bins; ++b) {
    ASSERT_EQ(lower[b], ref_lower[b]) << b;
    ASSERT_EQ(map[b], ref_map[b]) << b;
  }
}

TEST(DensityGradientTest, ApproximatesEnergyDerivativeForSmoothCell) {
  // The electric-force gradient is the continuum approximation of the
  // energy derivative; for a cell spanning many bins the two should agree
  // to within a modest tolerance (docs/ALGORITHMS.md §3).
  Database db;
  const Index big = db.addCell("big", 40, 40, true);
  const Index anchor = db.addCell("a", 2, 2, true);
  const Index net = db.addNet("n");
  db.addPin(net, big, 0, 0);
  db.addPin(net, anchor, 0, 0);
  db.setDieArea({0, 0, 128, 128});
  db.addRow({0, 2, 0, 128, 1});
  db.finalize();

  DensityGrid<double> grid;
  grid.mx = 64;
  grid.my = 64;
  grid.xl = 0;
  grid.yl = 0;
  grid.binW = 2;
  grid.binH = 2;
  std::vector<double> nodeW, nodeH;
  DensityOp<double>::makeNodeSizes(db, {}, {}, nodeW, nodeH);
  DensityOp<double> op(db, grid, nodeW, nodeH);
  const Index n = op.numNodes();
  // Place the big cell off-center so the field at it is nonzero.
  std::vector<double> params{40.0, 90.0, 40.0, 90.0};
  ASSERT_EQ(params.size(), 2 * static_cast<size_t>(n));
  std::vector<double> grad(params.size());
  op.evaluate(params, grad);

  const double h = 0.5;
  std::vector<double> scratch(params.size());
  for (int coord : {0, 2}) {  // big cell x and y
    auto plus = params;
    auto minus = params;
    plus[coord] += h;
    minus[coord] -= h;
    const double fp = op.evaluate(plus, scratch);
    const double fm = op.evaluate(minus, scratch);
    const double numeric = (fp - fm) / (2 * h);
    ASSERT_NE(numeric, 0.0);
    // Same sign and within 35% magnitude.
    EXPECT_GT(grad[coord] * numeric, 0.0) << "coord " << coord;
    EXPECT_NEAR(grad[coord], numeric, 0.35 * std::abs(numeric))
        << "coord " << coord;
  }
}

TEST(ComputeFillersTest, FillsWhitespaceToTarget) {
  GeneratorConfig cfg;
  cfg.numCells = 500;
  cfg.utilization = 0.6;
  cfg.seed = 15;
  auto db = generateNetlist(cfg);
  std::vector<double> w, h;
  computeFillers<double>(*db, 1.0, w, h);
  ASSERT_FALSE(w.empty());
  double filler_area = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    filler_area += w[i] * h[i];
  }
  const double whitespace = db->dieArea().area() - db->totalFixedArea();
  const double expected = 1.0 * whitespace - db->totalMovableArea();
  EXPECT_NEAR(filler_area, expected, 0.01 * expected);
  // A lower target can require no fillers at all.
  computeFillers<double>(*db, 0.3, w, h);
  EXPECT_TRUE(w.empty());
}

// ---------------------------------------------------------------------------
// The 4x4 footprint against the strip arithmetic, bit for bit.
// ---------------------------------------------------------------------------

/// The density kernels' per-bin arithmetic written out scalar, one
/// (sub-)rectangle and bin column at a time: bin edges index * size +
/// origin, overlaps min(hi, edge + size) - max(lo, edge), a bin only
/// where its overlap is positive. A gather strip of at least
/// kNativeWidth bins folds lane partials first (ascending lanes) and
/// then the tail, as the lane strip kernel does.
template <typename T>
class StripReference {
 public:
  StripReference(const DensityMapBuilder<T>& builder, int subdivision)
      : b_(builder), g_(builder.grid()), sub_(subdivision) {}

  /// Nodes [begin, end) in index order, added onto map.
  void scatter(const T* x, const T* y, Index begin, Index end,
               std::vector<T>& map) const {
    for (Index node = begin; node < end; ++node) {
      const T q = b_.chargeScale(node) * (T(1) / g_.binArea());
      forEachColumn(x, y, node, [&](int bx, int by0, int by1, T ox, T yl,
                                    T yh) {
        const T qox = q * ox;
        for (int by = by0; by < by1; ++by) {
          const T oy = yOverlap(by, yl, yh);
          if (oy > 0) {
            map[bx * g_.my + by] += qox * oy;
          }
        }
      });
    }
  }

  void gather(const T* x, const T* y, const std::vector<T>& fieldX,
              const std::vector<T>& fieldY, std::vector<T>& gx,
              std::vector<T>& gy) const {
    constexpr int kW = simd::kNativeWidth<T>;
    for (Index node = 0; node < b_.numNodes(); ++node) {
      T fx = 0;
      T fy = 0;
      forEachColumn(x, y, node, [&](int bx, int by0, int by1, T ox, T yl,
                                    T yh) {
        const T* col_x = fieldX.data() + bx * g_.my;
        const T* col_y = fieldY.data() + bx * g_.my;
        T sx = 0;
        T sy = 0;
        int by = by0;
        if (by1 - by0 >= kW) {
          T ax[kW] = {}, ay[kW] = {};
          for (; by + kW <= by1; by += kW) {
            for (int l = 0; l < kW; ++l) {
              const T area =
                  ox * std::max(T(0), yOverlap(by + l, yl, yh));
              ax[l] = area * col_x[by + l] + ax[l];
              ay[l] = area * col_y[by + l] + ay[l];
            }
          }
          sx = ax[0];
          sy = ay[0];
          for (int l = 1; l < kW; ++l) {
            sx += ax[l];
            sy += ay[l];
          }
        }
        for (; by < by1; ++by) {
          const T oy = yOverlap(by, yl, yh);
          if (oy > 0) {
            sx += ox * oy * col_x[by];
            sy += ox * oy * col_y[by];
          }
        }
        fx += sx;
        fy += sy;
      });
      const T q = b_.chargeScale(node) * (T(1) / g_.binArea());
      gx[node] = -q * fx * (T(1) / g_.binW);
      gy[node] = -q * fy * (T(1) / g_.binH);
    }
  }

 private:
  T yOverlap(int by, T yl, T yh) const {
    const T bin_yl = static_cast<T>(by) * g_.binH + g_.yl;
    return std::min(yh, bin_yl + g_.binH) - std::max(yl, bin_yl);
  }

  template <typename Visit>
  void forEachColumn(const T* x, const T* y, Index node, Visit visit) const {
    const T w = b_.effectiveWidth(node);
    const T h = b_.effectiveHeight(node);
    const T sub_w = w / sub_;
    const T sub_h = h / sub_;
    const T node_xl = x[node] - w / 2;
    const T node_yl = y[node] - h / 2;
    const T inv_w = T(1) / g_.binW;
    const T inv_h = T(1) / g_.binH;
    for (int sx = 0; sx < sub_; ++sx) {
      for (int sy = 0; sy < sub_; ++sy) {
        const T xl = node_xl + sx * sub_w;
        const T xh = xl + sub_w;
        const T yl = node_yl + sy * sub_h;
        const T yh = yl + sub_h;
        const int bx0 = std::max(
            static_cast<int>(std::floor((xl - g_.xl) * inv_w)), 0);
        const int bx1 = std::min(
            static_cast<int>(std::ceil((xh - g_.xl) * inv_w)), g_.mx);
        const int by0 = std::max(
            static_cast<int>(std::floor((yl - g_.yl) * inv_h)), 0);
        const int by1 = std::min(
            static_cast<int>(std::ceil((yh - g_.yl) * inv_h)), g_.my);
        for (int bx = bx0; bx < bx1; ++bx) {
          const T bin_xl = g_.xl + bx * g_.binW;
          const T ox = std::min(xh, bin_xl + g_.binW) - std::max(xl, bin_xl);
          if (ox > 0) {
            visit(bx, by0, by1, ox, yl, yh);
          }
        }
      }
    }
  }

  const DensityMapBuilder<T>& b_;
  DensityGrid<T> g_;
  int sub_;
};

/// Nodes on an off-origin grid with non-round bin sizes: interior nodes
/// of 2-4 bins, nodes within 4 bins of each grid edge (some hanging
/// over it), and nodes wider or taller than 4 bins.
template <typename T>
void footprintScene(DensityGrid<T>& grid, std::vector<T>& w,
                    std::vector<T>& h, std::vector<T>& x,
                    std::vector<T>& y) {
  grid.mx = 24;
  grid.my = 20;
  grid.xl = static_cast<T>(3.1);
  grid.yl = static_cast<T>(-2.2);
  grid.binW = static_cast<T>(1.37);
  grid.binH = static_cast<T>(0.83);
  const double width = grid.mx * static_cast<double>(grid.binW);
  const double height = grid.my * static_cast<double>(grid.binH);
  Rng rng(23);
  const auto add = [&](double cx, double cy, double wBins, double hBins) {
    x.push_back(static_cast<T>(grid.xl + cx));
    y.push_back(static_cast<T>(grid.yl + cy));
    w.push_back(static_cast<T>(wBins * grid.binW));
    h.push_back(static_cast<T>(hBins * grid.binH));
  };
  for (int i = 0; i < 120; ++i) {  // interior, 2x2 to 4x4 spans
    add(rng.uniform(0.2, 0.8) * width, rng.uniform(0.2, 0.8) * height,
        rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0));
  }
  for (int i = 0; i < 160; ++i) {  // within 4 bins of an edge
    const double dx = rng.uniform(-1.0, 4.0) * grid.binW;
    const double dy = rng.uniform(-1.0, 4.0) * grid.binH;
    const double cx = i % 4 == 0   ? dx
                      : i % 4 == 1 ? width - dx
                                   : rng.uniform(0, 1) * width;
    const double cy = i % 4 == 2   ? dy
                      : i % 4 == 3 ? height - dy
                                   : rng.uniform(0, 1) * height;
    add(cx, cy, rng.uniform(0.1, 3.5), rng.uniform(0.1, 3.5));
  }
  for (int i = 0; i < 40; ++i) {  // wider or taller than 4 bins
    add(rng.uniform(0, 1) * width, rng.uniform(0, 1) * height,
        i % 2 == 0 ? rng.uniform(4.2, 11.0) : rng.uniform(0.5, 3.0),
        i % 2 == 1 ? rng.uniform(4.2, 11.0) : rng.uniform(0.5, 3.0));
  }
}

template <typename T>
void expectFootprintMatchesStrips(int subdivision) {
  SCOPED_TRACE(::testing::Message() << "T=" << sizeof(T)
                                    << " subdivision=" << subdivision);
  DensityGrid<T> grid;
  std::vector<T> w, h, x, y;
  footprintScene(grid, w, h, x, y);
  const Index n = static_cast<Index>(x.size());
  const Index split = n / 2;
  typename DensityMapBuilder<T>::Options opts;
  opts.kernel = DensityKernel::kNaive;  // index order, one slice (< 2048)
  opts.subdivision = subdivision;
  DensityMapBuilder<T> builder(grid, w, h, opts);
  const StripReference<T> ref(builder, subdivision);

  const std::size_t bins = static_cast<std::size_t>(grid.mx) * grid.my;
  Rng rng(3);
  std::vector<T> base(bins);
  for (T& b : base) {
    b = static_cast<T>(rng.uniform(0, 0.5));
  }
  std::vector<T> lower(bins), map(bins);
  builder.scatterSplit(x.data(), y.data(), split, base, lower, map);
  std::vector<T> ref_lower(bins, T(0));
  ref.scatter(x.data(), y.data(), 0, split, ref_lower);
  std::vector<T> ref_map(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    ref_map[b] = base[b] + ref_lower[b];
  }
  ref.scatter(x.data(), y.data(), split, n, ref_map);
  for (std::size_t b = 0; b < bins; ++b) {
    ASSERT_EQ(lower[b], ref_lower[b]) << "bin " << b;
    ASSERT_EQ(map[b], ref_map[b]) << "bin " << b;
  }

  std::vector<T> field_x(bins), field_y(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    field_x[b] = static_cast<T>(rng.uniform(-3, 3));
    field_y[b] = static_cast<T>(rng.uniform(-3, 3));
  }
  std::vector<T> gx(n), gy(n), ref_gx(n), ref_gy(n);
  builder.gatherForce(x.data(), y.data(), field_x, field_y, gx.data(),
                      gy.data());
  ref.gather(x.data(), y.data(), field_x, field_y, ref_gx, ref_gy);
  for (Index i = 0; i < n; ++i) {
    ASSERT_EQ(gx[i], ref_gx[i]) << "node " << i;
    ASSERT_EQ(gy[i], ref_gy[i]) << "node " << i;
  }
}

TEST(DensityFootprintTest, MapsAndGradientsMatchStripArithmetic) {
  for (const int subdivision : {1, 2}) {
    expectFootprintMatchesStrips<float>(subdivision);
    expectFootprintMatchesStrips<double>(subdivision);
  }
}

}  // namespace
}  // namespace dreamplace
