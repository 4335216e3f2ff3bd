#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/netlist_generator.h"
#include "gp/global_placer.h"
#include "ops/fence_density_op.h"

namespace dreamplace {
namespace {

/// Design with two fences on the left/right thirds of the die; every third
/// cell goes to fence 1, every third+1 to fence 2, rest default.
struct FenceSetup {
  std::unique_ptr<Database> db;
  std::vector<FenceRegion> fences;
  std::vector<int> cellGroup;
};

FenceSetup makeSetup(Index cells = 500, std::uint64_t seed = 77) {
  FenceSetup setup;
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.utilization = 0.5;  // fences need headroom
  cfg.seed = seed;
  setup.db = generateNetlist(cfg);
  const Box<Coord>& die = setup.db->dieArea();
  const double w3 = die.width() / 3.0;
  setup.fences.push_back({{die.xl, die.yl, die.xl + w3, die.yh}});
  setup.fences.push_back({{die.xh - w3, die.yl, die.xh, die.yh}});
  setup.cellGroup.resize(setup.db->numMovable());
  for (Index i = 0; i < setup.db->numMovable(); ++i) {
    setup.cellGroup[i] = (i % 3 == 0) ? 1 : (i % 3 == 1) ? 2 : 0;
  }
  return setup;
}

TEST(AssignFillerGroupsTest, CoversAllNodesAndGroups) {
  FenceSetup setup = makeSetup(300);
  const Index fillers = 100;
  const auto groups = assignFillerGroups(*setup.db, setup.cellGroup,
                                         setup.fences, fillers);
  ASSERT_EQ(static_cast<Index>(groups.size()),
            setup.db->numMovable() + fillers);
  int counts[3] = {0, 0, 0};
  for (size_t i = setup.db->numMovable(); i < groups.size(); ++i) {
    ASSERT_GE(groups[i], 0);
    ASSERT_LE(groups[i], 2);
    ++counts[groups[i]];
  }
  // Each fence covers a third of the die; fillers should land in every
  // group.
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);
  EXPECT_GT(counts[2], 0);
}

TEST(FenceDensityOpTest, GradientPushesIntrudersTowardTheirFence) {
  FenceSetup setup = makeSetup(200);
  Database& db = *setup.db;
  const auto grid = makeGrid<double>(db.dieArea(), db.numMovable(), 16, 32);
  std::vector<double> nodeW, nodeH;
  DensityOp<double>::makeNodeSizes(db, {}, {}, nodeW, nodeH);
  std::vector<int> groups(setup.cellGroup);
  FenceDensityOp<double> op(db, grid, setup.fences, groups, nodeW, nodeH);

  // Park every cell at the die center (outside both fences).
  const Index n = op.numNodes();
  std::vector<double> params(2 * static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) {
    params[i] = db.dieArea().centerX();
    params[i + n] = db.dieArea().centerY();
  }
  std::vector<double> grad(params.size());
  op.evaluate(params, grad);
  // Fence-1 cells (left third) must feel a net force to the left
  // (negative x), fence-2 cells to the right: the descending direction is
  // -grad, so grad must be positive for group 1, negative for group 2.
  double g1 = 0, g2 = 0;
  int n1 = 0, n2 = 0;
  for (Index i = 0; i < db.numMovable(); ++i) {
    if (setup.cellGroup[i] == 1) {
      g1 += grad[i];
      ++n1;
    } else if (setup.cellGroup[i] == 2) {
      g2 += grad[i];
      ++n2;
    }
  }
  ASSERT_GT(n1, 0);
  ASSERT_GT(n2, 0);
  EXPECT_GT(g1 / n1, 0.0);
  EXPECT_LT(g2 / n2, 0.0);
}

TEST(FenceDensityOpTest, LastOverflowMatchesReference) {
  // Reference: per group, a separate scatter of its movable members only
  // plus densityOverflow against the group's blocked map, weighted by the
  // group's movable area.
  FenceSetup setup = makeSetup(3000);
  Database& db = *setup.db;
  const auto grid = makeGrid<double>(db.dieArea(), db.numMovable(), 16, 64);
  std::vector<double> fw, fh, nodeW, nodeH;
  computeFillers<double>(db, 0.9, fw, fh);
  ASSERT_FALSE(fw.empty());
  DensityOp<double>::makeNodeSizes(db, fw, fh, nodeW, nodeH);
  const std::vector<int> groups = assignFillerGroups(
      db, setup.cellGroup, setup.fences, static_cast<Index>(fw.size()));
  typename FenceDensityOp<double>::Options opts;
  opts.targetDensity = 0.9;
  FenceDensityOp<double> op(db, grid, setup.fences, groups, nodeW, nodeH,
                            opts);
  const Index n = op.numNodes();
  Rng rng(12);
  const auto& die = db.dieArea();
  std::vector<double> params(2 * static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) {
    params[i] = die.xl + rng.uniform(0.2, 0.8) * die.width();
    params[i + n] = die.yl + rng.uniform(0.2, 0.8) * die.height();
  }
  std::vector<double> grad(params.size());
  op.evaluate(params, grad);

  double overflow_area = 0.0;
  double movable_area = 0.0;
  for (int g = 0; g < op.numGroups(); ++g) {
    const std::vector<Index>& members = op.groupMembers(g);
    std::vector<double> x(members.size()), y(members.size());
    Index movable = 0;
    double area = 0.0;
    for (size_t k = 0; k < members.size(); ++k) {
      x[k] = params[members[k]];
      y[k] = params[members[k] + n];
      if (members[k] < db.numMovable()) {
        ++movable;
        area += db.cellArea(members[k]);
      }
    }
    if (area <= 0) {
      continue;
    }
    std::vector<double> map(static_cast<size_t>(grid.mx) * grid.my, 0.0);
    op.groupBuilder(g).scatter(x.data(), y.data(), 0, movable, map);
    overflow_area += densityOverflow<double>(map, op.groupFixedMap(g), grid,
                                             0.9, area) *
                     area;
    movable_area += area;
  }
  ASSERT_GT(movable_area, 0.0);
  const double ref = overflow_area / movable_area;
  EXPECT_GT(ref, 0.0);
  EXPECT_EQ(op.lastOverflow(), ref);
}

TEST(FenceDensityOpTest, NodeGeometryAccessors) {
  FenceSetup setup = makeSetup(100);
  Database& db = *setup.db;
  const auto grid = makeGrid<double>(db.dieArea(), db.numMovable(), 16, 32);
  std::vector<double> nodeW, nodeH;
  DensityOp<double>::makeNodeSizes(db, {}, {}, nodeW, nodeH);
  FenceDensityOp<double> op(db, grid, setup.fences, setup.cellGroup, nodeW,
                            nodeH);
  for (Index i = 0; i < db.numMovable(); i += 13) {
    EXPECT_GE(op.nodeWidth(i), db.cellWidth(i) - 1e-9);
    EXPECT_GE(op.nodeHeight(i), db.cellHeight(i) - 1e-9);
    EXPECT_NEAR(op.nodeArea(i), db.cellArea(i), 1e-6 * db.cellArea(i));
    EXPECT_EQ(op.nodeGroup(i), setup.cellGroup[i]);
  }
}

TEST(FenceGlobalPlacerTest, CellsEndUpInsideTheirFences) {
  FenceSetup setup = makeSetup(400, 81);
  Database& db = *setup.db;
  GlobalPlacerOptions options;
  options.maxIterations = 400;
  options.binsMax = 32;
  options.fences = setup.fences;
  options.cellFence = setup.cellGroup;
  GlobalPlacer<double> placer(db, options);
  const auto result = placer.run();
  EXPECT_TRUE(std::isfinite(result.hpwl));

  Index violations = 0;
  for (Index i = 0; i < db.numMovable(); ++i) {
    const int g = setup.cellGroup[i];
    if (g == 0) {
      continue;
    }
    const Box<Coord>& fence = setup.fences[g - 1].box;
    const double cx = db.cellX(i) + db.cellWidth(i) / 2;
    const double cy = db.cellY(i) + db.cellHeight(i) / 2;
    if (!fence.contains(cx, cy)) {
      ++violations;
    }
  }
  // The projection clamps every member into its fence each iteration, so
  // there must be no violations at all.
  EXPECT_EQ(violations, 0);
}

TEST(FenceGlobalPlacerTest, QualityComparableToUnfenced) {
  // Fencing constrains the solution; HPWL should degrade but stay within
  // a sane factor of the unconstrained run on the same design.
  FenceSetup setup = makeSetup(400, 83);
  auto unfenced_db = generateNetlist([&] {
    GeneratorConfig cfg;
    cfg.numCells = 400;
    cfg.utilization = 0.5;
    cfg.seed = 83;
    return cfg;
  }());
  GlobalPlacerOptions base;
  base.maxIterations = 400;
  base.binsMax = 32;
  GlobalPlacer<double> plain(*unfenced_db, base);
  const auto r_plain = plain.run();

  GlobalPlacerOptions fenced = base;
  fenced.fences = setup.fences;
  fenced.cellFence = setup.cellGroup;
  GlobalPlacer<double> placer(*setup.db, fenced);
  const auto r_fenced = placer.run();
  EXPECT_LT(r_fenced.hpwl, 4.0 * r_plain.hpwl);
  EXPECT_GT(r_fenced.hpwl, r_plain.hpwl * 0.9);
}

}  // namespace
}  // namespace dreamplace
