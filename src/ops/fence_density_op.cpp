#include "ops/fence_density_op.h"

#include <algorithm>
#include <cmath>

#include "common/counters.h"
#include "common/log.h"
#include "common/timer.h"

namespace dreamplace {

namespace {

/// Marks every bin fraction outside `box` as occupied in `map` (adds, in
/// density units), clamped to 1 at the end by the caller.
template <typename T>
void blockOutside(const Box<Coord>& box, const DensityGrid<T>& grid,
                  std::vector<T>& map) {
  for (int bx = 0; bx < grid.mx; ++bx) {
    const double bin_xl = grid.xl + bx * grid.binW;
    const double bin_xh = bin_xl + grid.binW;
    const double ox = overlapLength<double>(bin_xl, bin_xh, box.xl, box.xh);
    for (int by = 0; by < grid.my; ++by) {
      const double bin_yl = grid.yl + by * grid.binH;
      const double bin_yh = bin_yl + grid.binH;
      const double oy =
          overlapLength<double>(bin_yl, bin_yh, box.yl, box.yh);
      const double inside = ox * oy / grid.binArea();
      map[bx * grid.my + by] += static_cast<T>(1.0 - inside);
    }
  }
}

}  // namespace

template <typename T>
FenceDensityOp<T>::FenceDensityOp(const Database& db,
                                  const DensityGrid<T>& grid,
                                  std::vector<FenceRegion> fences,
                                  std::vector<int> nodeGroup,
                                  std::vector<T> nodeW, std::vector<T> nodeH,
                                  Options options)
    : db_(db),
      grid_(grid),
      options_(options),
      num_nodes_(static_cast<Index>(nodeW.size())),
      node_group_(std::move(nodeGroup)),
      solver_(grid.mx, grid.my, options.dct) {
  DP_ASSERT(static_cast<Index>(node_group_.size()) == num_nodes_);
  const int num_groups = static_cast<int>(fences.size()) + 1;
  group_box_.resize(num_groups);
  group_box_[0] = db.dieArea();
  for (int g = 1; g < num_groups; ++g) {
    group_box_[g] = fences[g - 1].box;
  }

  groups_.resize(num_groups);
  for (Index i = 0; i < num_nodes_; ++i) {
    const int g = node_group_[i];
    DP_ASSERT_MSG(g >= 0 && g < num_groups, "node %d has bad group %d", i,
                  g);
    groups_[g].members.push_back(i);
  }

  const std::vector<T> base_fixed = buildFixedDensityMap<T>(db, grid);
  for (int g = 0; g < num_groups; ++g) {
    Group& group = groups_[g];
    std::vector<T> w(group.members.size());
    std::vector<T> h(group.members.size());
    for (size_t k = 0; k < group.members.size(); ++k) {
      const Index node = group.members[k];
      w[k] = nodeW[node];
      h[k] = nodeH[node];
      if (node < db.numMovable()) {
        group.movableArea += db.cellArea(node);
        ++group.numMovable;
      }
    }
    group.builder = std::make_unique<DensityMapBuilder<T>>(
        grid, std::move(w), std::move(h), options.map);
    // Fixed field: real fixed cells plus everything outside the fence.
    group.fixedMap = base_fixed;
    if (g == 0) {
      // Default region: the other fences are blocked for it.
      for (int other = 1; other < num_groups; ++other) {
        Box<Coord> blocked = group_box_[other];
        for (int bx = 0; bx < grid.mx; ++bx) {
          const double bin_xl = grid.xl + bx * grid.binW;
          const double ox = overlapLength<double>(
              bin_xl, bin_xl + grid.binW, blocked.xl, blocked.xh);
          for (int by = 0; by < grid.my; ++by) {
            const double bin_yl = grid.yl + by * grid.binH;
            const double oy = overlapLength<double>(
                bin_yl, bin_yl + grid.binH, blocked.yl, blocked.yh);
            group.fixedMap[bx * grid.my + by] +=
                static_cast<T>(ox * oy / grid.binArea());
          }
        }
      }
    } else {
      blockOutside(group_box_[g], grid, group.fixedMap);
    }
    for (T& d : group.fixedMap) {
      d = std::min(d, T(1));
    }
    group.x.resize(group.members.size());
    group.y.resize(group.members.size());
    group.gx.resize(group.members.size());
    group.gy.resize(group.members.size());
    group.map.resize(static_cast<size_t>(grid.mx) * grid.my);
  }
  movable_map_.resize(static_cast<size_t>(grid.mx) * grid.my);
}

template <typename T>
void FenceDensityOp<T>::gatherMemberPositions(const Group& g,
                                              std::span<const T> params,
                                              std::vector<T>& x,
                                              std::vector<T>& y) const {
  const T* px = params.data();
  const T* py = params.data() + num_nodes_;
  for (size_t k = 0; k < g.members.size(); ++k) {
    x[k] = px[g.members[k]];
    y[k] = py[g.members[k]];
  }
}

template <typename T>
double FenceDensityOp<T>::evaluate(std::span<const T> params,
                                   std::span<T> grad) {
  DP_ASSERT(params.size() == size() && grad.size() == size());
  static Counter calls("ops/density/evaluate");
  calls.add();
  std::fill(grad.begin(), grad.end(), T(0));
  double energy = 0.0;
  double overflow_area = 0.0;
  double movable_area = 0.0;
  T* gx_out = grad.data();
  T* gy_out = grad.data() + num_nodes_;
  for (Group& group : groups_) {
    if (group.members.empty()) {
      continue;
    }
    gatherMemberPositions(group, params, group.x, group.y);
    group.builder->scatterSplit(group.x.data(), group.y.data(),
                                group.numMovable,
                                std::span<const T>(group.fixedMap),
                                movable_map_, group.map);
    if (group.movableArea > 0) {
      overflow_area +=
          densityOverflow<T>(movable_map_, group.fixedMap, grid_,
                             options_.targetDensity, group.movableArea) *
          group.movableArea;
      movable_area += group.movableArea;
    }
    solver_.solve(std::span<const T>(group.map), solution_);
    energy += solution_.energy;
    group.builder->gatherForce(group.x.data(), group.y.data(),
                               std::span<const T>(solution_.fieldX),
                               std::span<const T>(solution_.fieldY),
                               group.gx.data(), group.gy.data());
    for (size_t k = 0; k < group.members.size(); ++k) {
      gx_out[group.members[k]] = group.gx[k];
      gy_out[group.members[k]] = group.gy[k];
    }
  }
  last_overflow_ = movable_area > 0 ? overflow_area / movable_area : 0.0;
  return energy;
}

template <typename T>
T FenceDensityOp<T>::nodeArea(Index node) const {
  const Group& g = groups_[node_group_[node]];
  const auto it = std::lower_bound(g.members.begin(), g.members.end(), node);
  const auto slot = static_cast<Index>(it - g.members.begin());
  return g.builder->chargeScale(slot) * g.builder->effectiveWidth(slot) *
         g.builder->effectiveHeight(slot);
}

template <typename T>
T FenceDensityOp<T>::nodeWidth(Index node) const {
  const Group& g = groups_[node_group_[node]];
  const auto it = std::lower_bound(g.members.begin(), g.members.end(), node);
  return g.builder->effectiveWidth(static_cast<Index>(it - g.members.begin()));
}

template <typename T>
T FenceDensityOp<T>::nodeHeight(Index node) const {
  const Group& g = groups_[node_group_[node]];
  const auto it = std::lower_bound(g.members.begin(), g.members.end(), node);
  return g.builder->effectiveHeight(
      static_cast<Index>(it - g.members.begin()));
}

std::vector<int> assignFillerGroups(const Database& db,
                                    const std::vector<int>& cellGroup,
                                    const std::vector<FenceRegion>& fences,
                                    Index numFillers) {
  DP_ASSERT(static_cast<Index>(cellGroup.size()) == db.numMovable());
  const int num_groups = static_cast<int>(fences.size()) + 1;
  // Whitespace per group: fence area minus its movable cells (default
  // region: die minus fences minus its movable cells).
  std::vector<double> whitespace(num_groups, 0.0);
  whitespace[0] = db.dieArea().area() - db.totalFixedArea();
  for (int g = 1; g < num_groups; ++g) {
    whitespace[g] = fences[g - 1].box.area();
    whitespace[0] -= fences[g - 1].box.area();
  }
  for (Index i = 0; i < db.numMovable(); ++i) {
    whitespace[cellGroup[i]] -= db.cellArea(i);
  }
  double total = 0.0;
  for (double& w : whitespace) {
    w = std::max(w, 0.0);
    total += w;
  }
  std::vector<int> node_group(cellGroup.begin(), cellGroup.end());
  node_group.reserve(cellGroup.size() + numFillers);
  // Deterministic proportional assignment (largest remainder not needed:
  // running-quota rounding is stable and adds up to numFillers).
  double carry = 0.0;
  Index assigned = 0;
  for (int g = 0; g < num_groups && total > 0; ++g) {
    const double exact =
        static_cast<double>(numFillers) * whitespace[g] / total + carry;
    Index count = static_cast<Index>(std::floor(exact));
    carry = exact - count;
    if (g == num_groups - 1) {
      count = numFillers - assigned;  // absorb rounding remainder
    }
    for (Index k = 0; k < count; ++k) {
      node_group.push_back(g);
    }
    assigned += count;
  }
  while (static_cast<Index>(node_group.size()) <
         db.numMovable() + numFillers) {
    node_group.push_back(0);
  }
  return node_group;
}

template class FenceDensityOp<float>;
template class FenceDensityOp<double>;

}  // namespace dreamplace
