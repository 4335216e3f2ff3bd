// Density map construction and electric-force gathering
// (paper Sec. III-B1/B2: the "dynamic bipartite graph" forward/backward).
//
// The forward scatter spreads each node's (locally smoothed) area over the
// bins it overlaps; the backward gather accumulates the per-bin electric
// field back onto each node. Two work-distribution strategies mirror the
// paper's GPU comparison:
//  * kNaive  — one task per cell in index order (the DAC'19 baseline),
//  * kSorted — cells sorted by area so adjacent tasks have similar cost
//    (the warp-balancing trick), optionally splitting each cell into
//    k x k sub-rectangles processed as independent tasks (the
//    "multiple threads per cell" ablation of Fig. 6).
#pragma once

#include <span>
#include <vector>

#include "common/memory.h"
#include "common/types.h"
#include "db/database.h"

namespace dreamplace {

/// Uniform bin grid over the placement region.
template <typename T>
struct DensityGrid {
  int mx = 0;  ///< Bins along x.
  int my = 0;  ///< Bins along y.
  T xl = 0, yl = 0;
  T binW = 0, binH = 0;

  T binArea() const { return binW * binH; }
};

/// Chooses a power-of-two grid with roughly one bin per few cells, clamped
/// to [minBins, maxBins] per side (the paper uses 512..4096 per side for
/// 0.2M..10M cell designs).
template <typename T>
DensityGrid<T> makeGrid(const Box<Coord>& region, Index numCells,
                        int minBins = 16, int maxBins = 4096);

enum class DensityKernel { kNaive, kSorted };

template <typename T>
class DensityMapBuilder {
 public:
  struct Options {
    DensityKernel kernel = DensityKernel::kSorted;
    int subdivision = 2;  ///< k x k sub-rectangles per cell (Fig. 6; >= 1).
  };

  /// `widths`/`heights` cover all nodes (movable cells then fillers).
  DensityMapBuilder(const DensityGrid<T>& grid, std::vector<T> widths,
                    std::vector<T> heights, Options options = {});

  const DensityGrid<T>& grid() const { return grid_; }
  Index numNodes() const { return static_cast<Index>(widths_.size()); }

  /// Scatters nodes [begin, end) into `map` (size mx*my, row-major with
  /// dim0 = x). Adds on top of existing content in density units
  /// (area / bin area).
  ///
  /// Parallelized with a fixed number of slices (scatterSlices, a
  /// function of the node count and grid only — never the thread count):
  /// each slice accumulates a private partial map over a strided subset
  /// of the processing order, then the partials are combined per bin in
  /// slice order. Results are therefore bit-identical for any thread
  /// count. Uses mutable slice scratch: not safe to call concurrently on
  /// the same builder.
  void scatter(const T* x, const T* y, Index begin, Index end,
               std::vector<T>& map) const;

  /// The density map of an evaluate together with its movable-only part:
  /// scatters nodes [0, split) into `lower` (overwritten), sets
  /// map = base + lower, then scatters nodes [split, numNodes()) on top.
  /// Bit-identical to that sequence of scatter() calls, but one slice
  /// pass fills both partial sets (each slice routes a node to the
  /// partial of its side), so the nodes are walked and the pool is
  /// entered once. The slice scratch is twice scatter()'s.
  void scatterSplit(const T* x, const T* y, Index split,
                    std::span<const T> base, std::vector<T>& lower,
                    std::vector<T>& map) const;

  /// Gathers field onto node gradients:
  ///   gx[i] -= sum_b q_ib * fieldX_b / binArea / binW   (and same for y),
  /// i.e. the electric force with the sign of a density-penalty gradient.
  void gatherForce(const T* x, const T* y, std::span<const T> fieldX,
                   std::span<const T> fieldY, T* gx, T* gy) const;

  /// Smoothed width/height and charge scale of a node.
  T effectiveWidth(Index node) const { return eff_w_[node]; }
  T effectiveHeight(Index node) const { return eff_h_[node]; }
  T chargeScale(Index node) const { return scale_[node]; }

 private:
  /// Decomposes a node's overlap with the bin grid into contiguous
  /// y-strips: visit(bx, by0, by1, ox, yl, yh) once per bin column the
  /// node (sub-rectangle) overlaps, where ox is the x overlap with
  /// column bx and [yl, yh) the sub-rectangle's y extent. The per-bin y
  /// overlaps are then lane math on consecutive bins (common/simd.h),
  /// and the bin-index searches use the precomputed 1/binW, 1/binH
  /// instead of dividing per sub-rectangle.
  template <typename Visit>
  void forEachOverlapStrip(const T* x, const T* y, Index node,
                           Visit visit) const;
  /// Adds node `node`'s charge into `map` (scatter's per-node body).
  void scatterNode(const T* x, const T* y, Index node, T* map) const;
  /// Slice count for the parallel scatter: 1 for small designs, else up
  /// to 8, reduced when the per-slice partial map would blow the scratch
  /// budget on huge grids. Depends only on (node count, grid, T).
  int scatterSlices() const;

  DensityGrid<T> grid_;
  // Hoisted reciprocals: the per-sub-rectangle bin-index math multiplies
  // instead of dividing (division is ~20x the latency of multiply and
  // not pipelined).
  T inv_bin_w_ = 0;
  T inv_bin_h_ = 0;
  T inv_bin_area_ = 0;
  std::vector<T> widths_;
  std::vector<T> heights_;
  std::vector<T> eff_w_;   ///< Smoothed width (>= sqrt(2) * binW).
  std::vector<T> eff_h_;
  std::vector<T> scale_;   ///< area / (eff_w * eff_h), preserves charge.
  std::vector<Index> order_;  ///< Processing order (sorted by area if kSorted).
  Options options_;
  // Per-slice partial density maps for the deterministic parallel
  // scatter; lazily sized on first use (scatter() stays const).
  mutable std::vector<T> slice_scratch_;
  mutable TrackedBytes mem_slices_{"ops/density/scatter_slices"};
};

/// Builds the static density contribution of fixed cells (clipped to the
/// region, no smoothing) in density units.
template <typename T>
std::vector<T> buildFixedDensityMap(const Database& db,
                                    const DensityGrid<T>& grid);

/// Density overflow (paper's stopping metric):
///   sum_b max(0, movable_b - target * free_b) / total movable area,
/// where movable_b is the movable-cell area in bin b and free_b the bin
/// area not covered by fixed cells.
template <typename T>
double densityOverflow(std::span<const T> movableMap,
                       std::span<const T> fixedMap,
                       const DensityGrid<T>& grid, double targetDensity,
                       double totalMovableArea);

}  // namespace dreamplace
