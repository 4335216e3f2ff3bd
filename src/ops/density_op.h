// Electrostatic density penalty operator (paper Sec. III-B).
//
// Forward: scatter node charge into the bin density map, add the static
// fixed-cell map, solve Poisson's equation spectrally, return the system
// potential energy. Backward: gather the electric field onto each node.
// This is the D(w) "regularization term" of the training analogy. The
// forward keeps the movable-only part of the map, so the overflow metric
// comes out of the same pass (lastOverflow()).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "autograd/objective.h"
#include "common/memory.h"
#include "db/database.h"
#include "ops/density_map.h"
#include "ops/electrostatics.h"

namespace dreamplace {

/// Common interface of density penalty operators. DensityOp implements the
/// single-field electrostatic system; FenceDensityOp (fence_density_op.h)
/// implements one independent field per fence region (paper Sec. III-G).
template <typename T>
class DensityFunction : public ObjectiveFunction<T> {
 public:
  virtual Index numNodes() const = 0;
  virtual const DensityGrid<T>& grid() const = 0;
  /// Movable-cell density overflow (the GP stopping metric) at the
  /// parameters of the last evaluate(); 0 before the first. Fillers are
  /// excluded.
  virtual double lastOverflow() const = 0;
  /// Per-node charge (area) for the Jacobi preconditioner, and the node
  /// footprints used to keep nodes inside the die.
  virtual T nodeArea(Index node) const = 0;
  virtual T nodeWidth(Index node) const = 0;
  virtual T nodeHeight(Index node) const = 0;
};

template <typename T>
class DensityOp final : public DensityFunction<T> {
 public:
  struct Options {
    double targetDensity = 1.0;
    typename DensityMapBuilder<T>::Options map;
    fft::Dct2dAlgorithm dct = fft::Dct2dAlgorithm::kFft2dN;
  };

  /// `nodeW`/`nodeH` give the density footprint of every node: the
  /// database's movable cells [0, numMovable) followed by filler nodes.
  /// Passing widths larger than the physical cells implements routability
  /// cell inflation (Sec. III-F). Use makeNodeSizes() for the plain case.
  DensityOp(const Database& db, const DensityGrid<T>& grid,
            std::vector<T> nodeW, std::vector<T> nodeH,
            Options options = {});

  /// Physical movable-cell sizes followed by the given filler sizes.
  static void makeNodeSizes(const Database& db,
                            const std::vector<T>& fillerW,
                            const std::vector<T>& fillerH,
                            std::vector<T>& nodeW, std::vector<T>& nodeH);

  std::size_t size() const override {
    return 2 * static_cast<std::size_t>(num_nodes_);
  }
  double evaluate(std::span<const T> params, std::span<T> grad) override;
  double lastOverflow() const override { return last_overflow_; }

  Index numNodes() const override { return num_nodes_; }
  Index numFillers() const { return num_nodes_ - db_.numMovable(); }
  const DensityGrid<T>& grid() const override { return builder_.grid(); }
  const DensityMapBuilder<T>& builder() const { return builder_; }
  T nodeArea(Index node) const override {
    return builder_.chargeScale(node) * builder_.effectiveWidth(node) *
           builder_.effectiveHeight(node);
  }
  T nodeWidth(Index node) const override {
    return builder_.effectiveWidth(node);
  }
  T nodeHeight(Index node) const override {
    return builder_.effectiveHeight(node);
  }

  /// Density map (movable+filler+fixed) from the last evaluate() call.
  const std::vector<T>& lastDensityMap() const { return map_; }
  const PoissonSolution<T>& lastSolution() const { return solution_; }

 private:
  const Database& db_;
  Index num_nodes_ = 0;
  Options options_;
  DensityMapBuilder<T> builder_;
  PoissonSolver<T> solver_;
  std::vector<T> fixed_map_;
  double total_movable_area_ = 0.0;

  // Workspaces.
  std::vector<T> map_;
  std::vector<T> movable_map_;  ///< movable cells only (overflow metric)
  PoissonSolution<T> solution_;
  double last_overflow_ = 0.0;
  TrackedBytes mem_{"ops/density/grids"};  ///< density/fixed/solution maps
};

/// Computes the filler cell sizes for a database: total filler area =
/// targetDensity * whitespace - movable area (zero if negative); fillers
/// are square-ish with the average movable cell dimensions, matching
/// ePlace's whitespace filling.
template <typename T>
void computeFillers(const Database& db, double targetDensity,
                    std::vector<T>& widths, std::vector<T>& heights);

}  // namespace dreamplace
