// Fence-region density operator (paper Sec. III-G).
//
// Fence regions constrain groups of cells to stay inside given boxes. The
// paper's proposed mechanism — "multiple electric fields, e.g., one for
// each region, to enable independent spreading between regions" — is
// implemented here: each group g gets its own electrostatic system on the
// shared bin grid, whose fixed density marks everything *outside* the
// group's fence (plus real fixed cells inside it) as occupied. A group's
// cells therefore spread within their fence, repelled by its walls, while
// different groups do not interact through density at all (they interact
// only through wirelength, as in the paper's sketch).
//
// Group 0 is the default region: its fence is the whole die minus the
// union of the other fences.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "db/database.h"
#include "ops/density_map.h"
#include "ops/density_op.h"
#include "ops/electrostatics.h"

namespace dreamplace {

struct FenceRegion {
  Box<Coord> box;
};

template <typename T>
class FenceDensityOp final : public DensityFunction<T> {
 public:
  struct Options {
    double targetDensity = 1.0;
    typename DensityMapBuilder<T>::Options map;
    fft::Dct2dAlgorithm dct = fft::Dct2dAlgorithm::kFft2dN;
  };

  /// `fences` are the explicit regions (group ids 1..fences.size());
  /// `nodeGroup[i]` gives the group of node i (0 = default region) and
  /// must cover all nodes described by `nodeW`/`nodeH` (movable cells
  /// followed by fillers, as in DensityOp).
  FenceDensityOp(const Database& db, const DensityGrid<T>& grid,
                 std::vector<FenceRegion> fences, std::vector<int> nodeGroup,
                 std::vector<T> nodeW, std::vector<T> nodeH,
                 Options options = {});

  std::size_t size() const override {
    return 2 * static_cast<std::size_t>(num_nodes_);
  }
  double evaluate(std::span<const T> params, std::span<T> grad) override;
  /// Per-group overflow against each fence's free area, aggregated as a
  /// movable-area-weighted mean (comparable to the single-field metric).
  double lastOverflow() const override { return last_overflow_; }

  Index numNodes() const override { return num_nodes_; }
  const DensityGrid<T>& grid() const override { return grid_; }
  T nodeArea(Index node) const override;
  T nodeWidth(Index node) const override;
  T nodeHeight(Index node) const override;

  int numGroups() const { return static_cast<int>(groups_.size()); }
  int nodeGroup(Index node) const { return node_group_[node]; }
  /// Fence box of a group (group 0 returns the die).
  const Box<Coord>& groupBox(int group) const { return group_box_[group]; }
  /// A group's field: member node ids (ascending), the density builder
  /// over member slots, and its blocked (fixed) map.
  const std::vector<Index>& groupMembers(int group) const {
    return groups_[group].members;
  }
  const DensityMapBuilder<T>& groupBuilder(int group) const {
    return *groups_[group].builder;
  }
  const std::vector<T>& groupFixedMap(int group) const {
    return groups_[group].fixedMap;
  }

 private:
  struct Group {
    std::vector<Index> members;          ///< Global node indices.
    /// Members [0, numMovable) are movable cells (members ascend, and
    /// cells precede fillers), the rest fillers.
    Index numMovable = 0;
    std::unique_ptr<DensityMapBuilder<T>> builder;  ///< Over member sizes.
    std::vector<T> fixedMap;             ///< Blocked density for this field.
    double movableArea = 0.0;            ///< Physical movable area.
    // Workspaces.
    std::vector<T> x, y;                 ///< Member center positions.
    std::vector<T> gx, gy;
    std::vector<T> map;
  };

  void gatherMemberPositions(const Group& g, std::span<const T> params,
                             std::vector<T>& x, std::vector<T>& y) const;

  const Database& db_;
  DensityGrid<T> grid_;
  Options options_;
  Index num_nodes_ = 0;
  std::vector<int> node_group_;
  std::vector<Box<Coord>> group_box_;
  std::vector<Group> groups_;
  PoissonSolver<T> solver_;
  PoissonSolution<T> solution_;
  std::vector<T> movable_map_;  ///< one group's movable-only map
  double last_overflow_ = 0.0;
};

/// Assigns fillers to groups proportionally to each group's whitespace and
/// returns the per-node group vector for movable cells + fillers, given a
/// per-movable-cell group assignment.
std::vector<int> assignFillerGroups(const Database& db,
                                    const std::vector<int>& cellGroup,
                                    const std::vector<FenceRegion>& fences,
                                    Index numFillers);

}  // namespace dreamplace
