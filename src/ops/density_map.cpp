#include "ops/density_map.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/log.h"
#include "common/parallel.h"
#include "common/simd.h"

namespace dreamplace {
namespace {

/// row[by] += qox * yOverlap(by) for by in [by0, by1), where yOverlap is
/// the (clamped) overlap of [yl, yh) with bin row by. Full lanes compute
/// consecutive bins at once; overlap-free lanes contribute an exact 0.
/// The tail stays scalar so stores never leave [by0, by1).
template <typename V, typename T = typename V::Elem>
inline void addOverlapStrip(T* row, int by0, int by1, T qox, T yl, T yh,
                            T gridYl, T binH) {
  constexpr int kW = V::kWidth;
  int by = by0;
  if (by1 - by0 >= kW) {
    const V vyl = V::broadcast(yl);
    const V vyh = V::broadcast(yh);
    const V vbinh = V::broadcast(binH);
    const V vgyl = V::broadcast(gridYl);
    const V vq = V::broadcast(qox);
    const V zero = V::zero();
    V idx = V::iota() + V::broadcast(static_cast<T>(by0));
    for (; by + kW <= by1; by += kW) {
      const V bin_yl = fma(idx, vbinh, vgyl);
      const V oy = max(zero, min(vyh, bin_yl + vbinh) - max(vyl, bin_yl));
      fma(vq, oy, V::load(row + by)).store(row + by);
      idx = idx + V::broadcast(static_cast<T>(kW));
    }
  }
  for (; by < by1; ++by) {
    const T bin_yl = static_cast<T>(by) * binH + gridYl;
    const T oy = std::min(yh, bin_yl + binH) - std::max(yl, bin_yl);
    if (oy > 0) {
      row[by] += qox * oy;
    }
  }
}

/// fx += sum ox*oy(by)*fieldX[b], fy likewise, over the strip's bins.
/// Lane partials fold in ascending lane order (deterministic — the lane
/// decomposition depends only on [by0, by1)).
template <typename V, typename T = typename V::Elem>
inline void dotOverlapStrip(const T* rowX, const T* rowY, int by0, int by1,
                            T ox, T yl, T yh, T gridYl, T binH, T& fx,
                            T& fy) {
  constexpr int kW = V::kWidth;
  int by = by0;
  T sx = 0, sy = 0;
  if (by1 - by0 >= kW) {
    const V vyl = V::broadcast(yl);
    const V vyh = V::broadcast(yh);
    const V vbinh = V::broadcast(binH);
    const V vgyl = V::broadcast(gridYl);
    const V vox = V::broadcast(ox);
    const V zero = V::zero();
    V ax = V::zero(), ay = V::zero();
    V idx = V::iota() + V::broadcast(static_cast<T>(by0));
    for (; by + kW <= by1; by += kW) {
      const V bin_yl = fma(idx, vbinh, vgyl);
      const V area =
          vox * max(zero, min(vyh, bin_yl + vbinh) - max(vyl, bin_yl));
      ax = fma(area, V::load(rowX + by), ax);
      ay = fma(area, V::load(rowY + by), ay);
      idx = idx + V::broadcast(static_cast<T>(kW));
    }
    sx = hsum(ax);
    sy = hsum(ay);
  }
  for (; by < by1; ++by) {
    const T bin_yl = static_cast<T>(by) * binH + gridYl;
    const T oy = std::min(yh, bin_yl + binH) - std::max(yl, bin_yl);
    if (oy > 0) {
      sx += ox * oy * rowX[by];
      sy += ox * oy * rowY[by];
    }
  }
  fx += sx;
  fy += sy;
}

}  // namespace

template <typename T>
DensityGrid<T> makeGrid(const Box<Coord>& region, Index numCells,
                        int minBins, int maxBins) {
  // Aim for ~1 bin per 2-4 cells in a square grid, like ePlace's M x M
  // choice, and round to a power of two for the FFT path.
  const double target = std::sqrt(static_cast<double>(numCells) / 2.0);
  int m = 1;
  while (m < target && m < maxBins) {
    m <<= 1;
  }
  m = std::clamp(m, minBins, maxBins);
  DensityGrid<T> grid;
  grid.mx = m;
  grid.my = m;
  grid.xl = static_cast<T>(region.xl);
  grid.yl = static_cast<T>(region.yl);
  grid.binW = static_cast<T>(region.width()) / m;
  grid.binH = static_cast<T>(region.height()) / m;
  return grid;
}

template <typename T>
DensityMapBuilder<T>::DensityMapBuilder(const DensityGrid<T>& grid,
                                        std::vector<T> widths,
                                        std::vector<T> heights,
                                        Options options)
    : grid_(grid),
      widths_(std::move(widths)),
      heights_(std::move(heights)),
      options_(options) {
  DP_ASSERT(widths_.size() == heights_.size());
  DP_ASSERT(options_.subdivision >= 1);
  inv_bin_w_ = T(1) / grid_.binW;
  inv_bin_h_ = T(1) / grid_.binH;
  inv_bin_area_ = T(1) / grid_.binArea();
  const Index n = numNodes();
  eff_w_.resize(n);
  eff_h_.resize(n);
  scale_.resize(n);
  // ePlace local smoothing: a node narrower than sqrt(2) bins is widened to
  // sqrt(2) bins with its charge (area) preserved, which keeps the density
  // gradient well defined for cells much smaller than a bin.
  const T min_w = static_cast<T>(M_SQRT2) * grid_.binW;
  const T min_h = static_cast<T>(M_SQRT2) * grid_.binH;
  for (Index i = 0; i < n; ++i) {
    eff_w_[i] = std::max(widths_[i], min_w);
    eff_h_[i] = std::max(heights_[i], min_h);
    scale_[i] = widths_[i] * heights_[i] / (eff_w_[i] * eff_h_[i]);
  }
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  if (options_.kernel == DensityKernel::kSorted) {
    std::sort(order_.begin(), order_.end(), [&](Index a, Index b) {
      const T area_a = eff_w_[a] * eff_h_[a];
      const T area_b = eff_w_[b] * eff_h_[b];
      return area_a > area_b;
    });
  }
}

template <typename T>
template <typename Visit>
void DensityMapBuilder<T>::forEachSubRect(const T* x, const T* y, Index node,
                                          Visit visit) const {
  const int sub = options_.subdivision;
  const T w = eff_w_[node];
  const T h = eff_h_[node];
  const T node_xl = x[node] - w / 2;
  const T node_yl = y[node] - h / 2;
  const auto visitRect = [&](T xl, T xh, T yl, T yh) {
    SubRect r;
    r.xl = xl;
    r.xh = xh;
    r.yl = yl;
    r.yh = yh;
    r.bx0 = static_cast<int>(std::floor((xl - grid_.xl) * inv_bin_w_));
    r.bx1 = static_cast<int>(std::ceil((xh - grid_.xl) * inv_bin_w_));
    r.by0 = static_cast<int>(std::floor((yl - grid_.yl) * inv_bin_h_));
    r.by1 = static_cast<int>(std::ceil((yh - grid_.yl) * inv_bin_h_));
    r.bx0 = std::max(r.bx0, 0);
    r.by0 = std::max(r.by0, 0);
    r.bx1 = std::min(r.bx1, grid_.mx);
    r.by1 = std::min(r.by1, grid_.my);
    visit(r);
  };
  if (sub == 1) {
    // The general loop's arithmetic with w / 1 == w and 0 * w == 0.
    visitRect(node_xl, node_xl + w, node_yl, node_yl + h);
    return;
  }
  const T sub_w = w / sub;
  const T sub_h = h / sub;
  // Sub-rectangles emulate the paper's multiple-threads-per-cell scheme;
  // each is scattered independently (with sub > 1 the bin-boundary work is
  // partitioned at finer granularity, at the cost of extra index math).
  for (int sx = 0; sx < sub; ++sx) {
    for (int sy = 0; sy < sub; ++sy) {
      const T xl = node_xl + sx * sub_w;
      const T yl = node_yl + sy * sub_h;
      visitRect(xl, xl + sub_w, yl, yl + sub_h);
    }
  }
}

template <typename T>
bool DensityMapBuilder<T>::inFootprint(const SubRect& r) const {
  return r.bx0 < r.bx1 && r.by0 < r.by1 && r.bx1 - r.bx0 <= kFootprint &&
         r.by1 - r.by0 <= kFootprint && r.bx0 + kFootprint <= grid_.mx &&
         r.by0 + kFootprint <= grid_.my;
}

template <typename T>
template <typename V4>
void DensityMapBuilder<T>::footprintOverlaps(const SubRect& r, V4& ox,
                                             V4& oy) const {
  // keep + (4 - n) has its first n lanes 1 and the rest 0; the multiply
  // zeroes the lanes past the span exactly (their overlaps are >= 0).
  static constexpr T kKeep[2 * kFootprint] = {1, 1, 1, 1, 0, 0, 0, 0};
  const V4 zero = V4::zero();
  // Bin edges and overlaps exactly as forEachOverlapStrip and the strip
  // kernels compute them: edge = index * binSize + gridOrigin, overlap =
  // min(hi, edge + binSize) - max(lo, edge), clamped at 0.
  const V4 bin_w = V4::broadcast(grid_.binW);
  const V4 bin_xl = fma(V4::iota() + V4::broadcast(static_cast<T>(r.bx0)),
                        bin_w, V4::broadcast(grid_.xl));
  ox = max(zero, min(V4::broadcast(r.xh), bin_xl + bin_w) -
                     max(V4::broadcast(r.xl), bin_xl)) *
       V4::load(kKeep + kFootprint - (r.bx1 - r.bx0));
  const V4 bin_h = V4::broadcast(grid_.binH);
  const V4 bin_yl = fma(V4::iota() + V4::broadcast(static_cast<T>(r.by0)),
                        bin_h, V4::broadcast(grid_.yl));
  oy = max(zero, min(V4::broadcast(r.yh), bin_yl + bin_h) -
                     max(V4::broadcast(r.yl), bin_yl)) *
       V4::load(kKeep + kFootprint - (r.by1 - r.by0));
}

template <typename T>
template <typename Visit>
void DensityMapBuilder<T>::forEachOverlapStrip(const SubRect& r,
                                               Visit visit) const {
  for (int bx = r.bx0; bx < r.bx1; ++bx) {
    const T bin_xl = grid_.xl + bx * grid_.binW;
    const T ox = std::min(r.xh, bin_xl + grid_.binW) - std::max(r.xl, bin_xl);
    if (ox <= 0) {
      continue;
    }
    visit(bx, r.by0, r.by1, ox);
  }
}

template <typename T>
int DensityMapBuilder<T>::scatterSlices() const {
  if (numNodes() < 2048) return 1;
  // Cap the slice scratch at ~64 MB so huge grids degrade to fewer
  // slices instead of an allocation spike. The count must never depend
  // on the thread count (determinism contract).
  const std::size_t per_slice =
      static_cast<std::size_t>(grid_.mx) * grid_.my * sizeof(T);
  const std::size_t budget = std::size_t(64) << 20;
  const std::size_t cap = budget / std::max<std::size_t>(per_slice, 1);
  return static_cast<int>(std::clamp<std::size_t>(cap, 1, 8));
}

template <typename T>
void DensityMapBuilder<T>::scatterNode(const T* x, const T* y, Index node,
                                       T* map) const {
  using V = simd::NativeVec<T>;
  using V4 = simd::FixedVec<T, kFootprint>;
  const T q = scale_[node] * inv_bin_area_;
  forEachSubRect(x, y, node, [&](const SubRect& r) {
    if (inFootprint(r)) {
      V4 ox, oy;
      footprintOverlaps(r, ox, oy);
      // Lane i of qox is q * ox_i, the strip kernels' per-column factor.
      const V4 qox = V4::broadcast(q) * ox;
      T* col = map + r.bx0 * grid_.my + r.by0;
      const int my = grid_.my;
      (V4::load(col) + simd::splat<0>(qox) * oy).store(col);
      (V4::load(col + my) + simd::splat<1>(qox) * oy).store(col + my);
      (V4::load(col + 2 * my) + simd::splat<2>(qox) * oy).store(col + 2 * my);
      (V4::load(col + 3 * my) + simd::splat<3>(qox) * oy).store(col + 3 * my);
      return;
    }
    forEachOverlapStrip(r, [&](int bx, int by0, int by1, T ox) {
      addOverlapStrip<V>(map + bx * grid_.my, by0, by1, q * ox, r.yl, r.yh,
                         grid_.yl, grid_.binH);
    });
  });
}

template <typename T>
void DensityMapBuilder<T>::scatter(const T* x, const T* y, Index begin,
                                   Index end, std::vector<T>& map) const {
  DP_ASSERT(static_cast<int>(map.size()) == grid_.mx * grid_.my);
  const Index n = numNodes();
  // order_ is a permutation of all nodes; entries outside [begin, end)
  // are skipped.
  const int slices = scatterSlices();
  if (slices == 1) {
    // Small designs: accumulate in the serial processing order.
    for (Index k = 0; k < n; ++k) {
      const Index node = order_[k];
      if (node >= begin && node < end) {
        scatterNode(x, y, node, map.data());
      }
    }
    return;
  }
  // Each slice takes a strided subset of the (area-sorted) processing
  // order — stride assignment spreads the big cells across slices, the
  // same load-balancing idea as the paper's sorted work distribution —
  // and accumulates into its private partial map. Combining the partials
  // per bin in slice order makes the sum independent of which thread ran
  // which slice.
  const std::size_t bins = map.size();
  slice_scratch_.resize(bins * static_cast<std::size_t>(slices));
  mem_slices_.set(static_cast<std::int64_t>(slice_scratch_.size() *
                                            sizeof(T)));
  currentThreadPool().run(
      "ops/density/scatter", slices, [&](Index s, int) {
        T* partial = slice_scratch_.data() + bins * static_cast<std::size_t>(s);
        std::fill(partial, partial + bins, T(0));
        for (Index k = s; k < n; k += slices) {
          const Index node = order_[k];
          if (node >= begin && node < end) {
            scatterNode(x, y, node, partial);
          }
        }
      });
  parallelFor("ops/density/combine", static_cast<Index>(bins), 4096,
              [&](Index b) {
                T acc = map[b];
                for (int s = 0; s < slices; ++s) {
                  acc += slice_scratch_[bins * static_cast<std::size_t>(s) + b];
                }
                map[b] = acc;
              });
}

template <typename T>
void DensityMapBuilder<T>::scatterSplit(const T* x, const T* y, Index split,
                                        std::span<const T> base,
                                        std::vector<T>& lower,
                                        std::vector<T>& map) const {
  const std::size_t bins = map.size();
  DP_ASSERT(base.size() == bins && lower.size() == bins);
  const Index n = numNodes();
  const int slices = scatterSlices();
  if (slices == 1) {
    std::fill(lower.begin(), lower.end(), T(0));
    scatter(x, y, 0, split, lower);
    for (std::size_t b = 0; b < bins; ++b) {
      map[b] = base[b] + lower[b];
    }
    scatter(x, y, split, n, map);
    return;
  }
  // Partial sets: slices [0, slices) for nodes below the split, then
  // slices [slices, 2*slices) for the rest.
  const std::size_t stride = bins * static_cast<std::size_t>(slices);
  slice_scratch_.resize(2 * stride);
  mem_slices_.set(static_cast<std::int64_t>(slice_scratch_.size() *
                                            sizeof(T)));
  currentThreadPool().run(
      "ops/density/scatter", slices, [&](Index s, int) {
        T* lo = slice_scratch_.data() + bins * static_cast<std::size_t>(s);
        T* hi = lo + stride;
        std::fill(lo, lo + bins, T(0));
        std::fill(hi, hi + bins, T(0));
        for (Index k = s; k < n; k += slices) {
          const Index node = order_[k];
          scatterNode(x, y, node, node < split ? lo : hi);
        }
      });
  // Same per-bin fold as scatter(): lower from zero, then map from
  // base + lower, each in slice order.
  parallelFor("ops/density/combine", static_cast<Index>(bins), 4096,
              [&](Index b) {
                T acc = T(0);
                for (int s = 0; s < slices; ++s) {
                  acc += slice_scratch_[bins * static_cast<std::size_t>(s) + b];
                }
                lower[b] = acc;
                acc = base[b] + acc;
                for (int s = 0; s < slices; ++s) {
                  acc += slice_scratch_[stride +
                                        bins * static_cast<std::size_t>(s) + b];
                }
                map[b] = acc;
              });
}

template <typename T>
void DensityMapBuilder<T>::gatherForce(const T* x, const T* y,
                                       std::span<const T> fieldX,
                                       std::span<const T> fieldY, T* gx,
                                       T* gy) const {
  const Index n = numNodes();
  using V = simd::NativeVec<T>;
  using V4 = simd::FixedVec<T, kFootprint>;
  // Nodes write disjoint gradient entries, so the backward gather needs
  // no synchronization.
  parallelFor("ops/density/gather", n, 256, [&](Index node) {
    T fx = 0;
    T fy = 0;
    forEachSubRect(x, y, node, [&](const SubRect& r) {
      if (inFootprint(r)) {
        V4 ox, oy;
        footprintOverlaps(r, ox, oy);
        const std::size_t b0 = static_cast<std::size_t>(r.bx0) * grid_.my +
                               static_cast<std::size_t>(r.by0);
        const T* col_x = fieldX.data() + b0;
        const T* col_y = fieldY.data() + b0;
        // After the transpose r_j holds row j of the 4 columns, and lane i
        // of a_j is ox_i * oy_j, so lane i of the sum is column i's dot
        // product folded in row order (the strip kernels' sx); the column
        // sums then join fx in column order.
        const int my = grid_.my;
        const V4 a0 = ox * simd::splat<0>(oy);
        const V4 a1 = ox * simd::splat<1>(oy);
        const V4 a2 = ox * simd::splat<2>(oy);
        const V4 a3 = ox * simd::splat<3>(oy);
        const auto fold = [&](const T* col, T& f) {
          V4 r0 = V4::load(col);
          V4 r1 = V4::load(col + my);
          V4 r2 = V4::load(col + 2 * my);
          V4 r3 = V4::load(col + 3 * my);
          simd::transpose4(r0, r1, r2, r3);
          const V4 sum = ((a0 * r0 + a1 * r1) + a2 * r2) + a3 * r3;
          f += sum[0];
          f += sum[1];
          f += sum[2];
          f += sum[3];
        };
        fold(col_x, fx);
        fold(col_y, fy);
        return;
      }
      forEachOverlapStrip(r, [&](int bx, int by0, int by1, T ox) {
        const int b = bx * grid_.my;
        dotOverlapStrip<V>(fieldX.data() + b, fieldY.data() + b, by0, by1,
                           ox, r.yl, r.yh, grid_.yl, grid_.binH, fx, fy);
      });
    });
    const T q = scale_[node] * inv_bin_area_;
    // Density gradient is minus the electric force; the 1/bin scale
    // converts the field from bin-index to layout coordinates.
    gx[node] = -q * fx * inv_bin_w_;
    gy[node] = -q * fy * inv_bin_h_;
  });
}

template <typename T>
std::vector<T> buildFixedDensityMap(const Database& db,
                                    const DensityGrid<T>& grid) {
  std::vector<T> map(static_cast<size_t>(grid.mx) * grid.my, T(0));
  const T inv_bin_area = T(1) / grid.binArea();
  const double inv_bin_w = 1.0 / grid.binW;
  const double inv_bin_h = 1.0 / grid.binH;
  for (Index i = db.numMovable(); i < db.numCells(); ++i) {
    const Box<Coord> box = db.cellBox(i);
    int bx0 = static_cast<int>(std::floor((box.xl - grid.xl) * inv_bin_w));
    int bx1 = static_cast<int>(std::ceil((box.xh - grid.xl) * inv_bin_w));
    int by0 = static_cast<int>(std::floor((box.yl - grid.yl) * inv_bin_h));
    int by1 = static_cast<int>(std::ceil((box.yh - grid.yl) * inv_bin_h));
    bx0 = std::max(bx0, 0);
    by0 = std::max(by0, 0);
    bx1 = std::min(bx1, grid.mx);
    by1 = std::min(by1, grid.my);
    for (int bx = bx0; bx < bx1; ++bx) {
      const T bin_xl = grid.xl + bx * grid.binW;
      const T ox = static_cast<T>(
          std::min<double>(box.xh, bin_xl + grid.binW) -
          std::max<double>(box.xl, bin_xl));
      if (ox <= 0) {
        continue;
      }
      for (int by = by0; by < by1; ++by) {
        const T bin_yl = grid.yl + by * grid.binH;
        const T oy = static_cast<T>(
            std::min<double>(box.yh, bin_yl + grid.binH) -
            std::max<double>(box.yl, bin_yl));
        if (oy <= 0) {
          continue;
        }
        map[bx * grid.my + by] += ox * oy * inv_bin_area;
      }
    }
  }
  // Fixed overlap can exceed a full bin (stacked pads); clamp to 1.0 so the
  // electric system sees at most a full obstacle.
  for (T& d : map) {
    d = std::min(d, T(1));
  }
  return map;
}

template <typename T>
double densityOverflow(std::span<const T> movableMap,
                       std::span<const T> fixedMap,
                       const DensityGrid<T>& grid, double targetDensity,
                       double totalMovableArea) {
  DP_ASSERT(movableMap.size() == fixedMap.size());
  const double bin_area = grid.binArea();
  double overflow = 0.0;
  for (std::size_t b = 0; b < movableMap.size(); ++b) {
    const double movable_area = movableMap[b] * bin_area;
    const double free_area = (1.0 - fixedMap[b]) * bin_area;
    overflow += std::max(0.0, movable_area - targetDensity * free_area);
  }
  return totalMovableArea > 0 ? overflow / totalMovableArea : 0.0;
}

#define DP_INSTANTIATE_DENSITY_MAP(T)                                       \
  template struct DensityGrid<T>;                                           \
  template DensityGrid<T> makeGrid<T>(const Box<Coord>&, Index, int, int);  \
  template class DensityMapBuilder<T>;                                      \
  template std::vector<T> buildFixedDensityMap<T>(const Database&,          \
                                                  const DensityGrid<T>&);   \
  template double densityOverflow<T>(std::span<const T>, std::span<const T>, \
                                     const DensityGrid<T>&, double, double);

DP_INSTANTIATE_DENSITY_MAP(float)
DP_INSTANTIATE_DENSITY_MAP(double)

#undef DP_INSTANTIATE_DENSITY_MAP

}  // namespace dreamplace
