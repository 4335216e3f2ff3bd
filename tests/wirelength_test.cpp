#include <gtest/gtest.h>

#include <cmath>

#include "common/counters.h"
#include "common/rng.h"
#include "db/metrics.h"
#include "gen/netlist_generator.h"
#include "ops/wirelength.h"

namespace dreamplace {
namespace {

std::unique_ptr<Database> smallDesign(Index cells = 120,
                                      std::uint64_t seed = 21) {
  GeneratorConfig cfg;
  cfg.numCells = cells;
  cfg.numPads = 8;
  cfg.seed = seed;
  return generateNetlist(cfg);
}

/// Center-coordinate parameter vector from the database positions.
template <typename T>
std::vector<T> centerParams(const Database& db, Index numNodes) {
  std::vector<T> params(2 * static_cast<size_t>(numNodes), T(0));
  for (Index i = 0; i < db.numMovable(); ++i) {
    params[i] = static_cast<T>(db.cellX(i) + db.cellWidth(i) / 2);
    params[i + numNodes] =
        static_cast<T>(db.cellY(i) + db.cellHeight(i) / 2);
  }
  return params;
}

class WaKernelTest : public ::testing::TestWithParam<WirelengthKernel> {};

TEST_P(WaKernelTest, MatchesMergedKernel) {
  auto db = smallDesign();
  const Index n = db->numMovable();
  WaWirelengthOp<double>::Options merged_opts;
  merged_opts.kernel = WirelengthKernel::kMerged;
  WaWirelengthOp<double> merged(*db, n, merged_opts);
  WaWirelengthOp<double>::Options opts;
  opts.kernel = GetParam();
  WaWirelengthOp<double> other(*db, n, opts);
  merged.setGamma(4.0);
  other.setGamma(4.0);

  auto params = centerParams<double>(*db, n);
  std::vector<double> g1(params.size()), g2(params.size());
  const double v1 = merged.evaluate(params, g1);
  const double v2 = other.evaluate(params, g2);
  EXPECT_NEAR(v2, v1, 1e-9 * std::abs(v1));
  for (size_t i = 0; i < g1.size(); ++i) {
    ASSERT_NEAR(g2[i], g1[i], 1e-9 * (1.0 + std::abs(g1[i]))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, WaKernelTest,
                         ::testing::Values(WirelengthKernel::kNetByNet,
                                           WirelengthKernel::kAtomic,
                                           WirelengthKernel::kMerged));

/// Random node centers over the die for `numNodes` nodes (fillers
/// included, they carry no pins).
template <typename T>
std::vector<T> randomParams(const Database& db, Index numNodes,
                            std::uint64_t seed) {
  Rng rng(seed);
  const auto& die = db.dieArea();
  std::vector<T> params(2 * static_cast<size_t>(numNodes));
  for (Index i = 0; i < numNodes; ++i) {
    params[i] = static_cast<T>(die.xl + rng.uniform(0, 1) * die.width());
    params[i + numNodes] =
        static_cast<T>(die.yl + rng.uniform(0, 1) * die.height());
  }
  return params;
}

template <typename T>
void expectWaLastHpwlEqualsHpwl(WirelengthKernel kernel, bool simd) {
  auto db = smallDesign(2000, 31);
  const Index n = db->numMovable() + 17;  // trailing filler nodes
  typename WaWirelengthOp<T>::Options opts;
  opts.kernel = kernel;
  opts.simd = simd;
  opts.ignoreNetDegree = 6;  // ignored nets still count in HPWL
  WaWirelengthOp<T> op(*db, n, opts);
  op.setGamma(3.0);
  for (std::uint64_t seed : {1u, 2u}) {
    const std::vector<T> params = randomParams<T>(*db, n, seed);
    std::vector<T> grad(params.size());
    op.evaluate(params, grad);
    EXPECT_EQ(op.lastHpwl(), op.hpwl(params));
  }
}

TEST_P(WaKernelTest, LastHpwlEqualsHpwl) {
  expectWaLastHpwlEqualsHpwl<double>(GetParam(), true);
  expectWaLastHpwlEqualsHpwl<double>(GetParam(), false);
  expectWaLastHpwlEqualsHpwl<float>(GetParam(), true);
  expectWaLastHpwlEqualsHpwl<float>(GetParam(), false);
}

// Pool jobs per evaluate, pinned exactly. Merged: pin positions, the
// fused WL+HPWL+gradient pass, and the pin-to-node gather. The pass-per-
// intermediate kernels add the separate HPWL pass and one job per pass
// and dimension (net-by-net: forward, backward; atomic: min/max, a, b,
// c, WL, gradient).
TEST_P(WaKernelTest, EvaluateForkJoinBudget) {
  auto db = smallDesign(2000, 31);
  const Index n = db->numMovable();
  WaWirelengthOp<double>::Options opts;
  opts.kernel = GetParam();
  WaWirelengthOp<double> op(*db, n, opts);
  op.setGamma(3.0);
  const std::vector<double> params = randomParams<double>(*db, n, 1);
  std::vector<double> grad(params.size());
  auto& reg = CounterRegistry::instance();
  const auto before = reg.value("parallel/jobs");
  op.evaluate(params, grad);
  const auto jobs = reg.value("parallel/jobs") - before;
  switch (GetParam()) {
    case WirelengthKernel::kMerged:
      EXPECT_EQ(jobs, 3);
      break;
    case WirelengthKernel::kNetByNet:
      EXPECT_EQ(jobs, 3 + 2 * 2);
      break;
    case WirelengthKernel::kAtomic:
      EXPECT_EQ(jobs, 3 + 2 * 6);
      break;
  }
}

TEST_P(WaKernelTest, GradientMatchesFiniteDifference) {
  auto db = smallDesign(60, 5);
  const Index n = db->numMovable();
  WaWirelengthOp<double>::Options opts;
  opts.kernel = GetParam();
  WaWirelengthOp<double> op(*db, n, opts);
  op.setGamma(6.0);

  auto params = centerParams<double>(*db, n);
  std::vector<double> grad(params.size());
  op.evaluate(params, grad);

  Rng rng(3);
  std::vector<double> scratch(params.size());
  const double h = 1e-5;
  for (int trial = 0; trial < 25; ++trial) {
    const size_t i = rng.uniformInt(static_cast<std::uint32_t>(params.size()));
    auto plus = params;
    auto minus = params;
    plus[i] += h;
    minus[i] -= h;
    const double fp = op.evaluate(plus, scratch);
    const double fm = op.evaluate(minus, scratch);
    const double numeric = (fp - fm) / (2 * h);
    ASSERT_NEAR(grad[i], numeric, 1e-4 * (1.0 + std::abs(numeric)))
        << "param " << i;
  }
}

TEST(WaWirelengthTest, ApproachesHpwlAsGammaShrinks) {
  auto db = smallDesign();
  const Index n = db->numMovable();
  WaWirelengthOp<double> op(*db, n);
  auto params = centerParams<double>(*db, n);
  std::vector<double> grad(params.size());
  const double exact = op.hpwl(params);

  double prev_err = std::numeric_limits<double>::infinity();
  for (double gamma : {32.0, 8.0, 2.0, 0.5}) {
    op.setGamma(gamma);
    const double wa = op.evaluate(params, grad);
    const double err = std::abs(wa - exact);
    EXPECT_LT(err, prev_err * 1.001) << "gamma " << gamma;
    prev_err = err;
  }
  // At the sharpest gamma, WA should be within 2% of HPWL.
  EXPECT_LT(prev_err, 0.02 * exact);
}

TEST(WaWirelengthTest, WaIsLowerBoundOnHpwl) {
  // WA underestimates HPWL (weighted average is inside the extrema).
  auto db = smallDesign(80, 9);
  const Index n = db->numMovable();
  WaWirelengthOp<double> op(*db, n);
  op.setGamma(10.0);
  auto params = centerParams<double>(*db, n);
  std::vector<double> grad(params.size());
  EXPECT_LE(op.evaluate(params, grad), op.hpwl(params) + 1e-9);
}

TEST(WaWirelengthTest, HpwlMatchesMetrics) {
  auto db = smallDesign();
  const Index n = db->numMovable();
  WaWirelengthOp<double> op(*db, n);
  auto params = centerParams<double>(*db, n);
  EXPECT_NEAR(op.hpwl(params), hpwl(*db), 1e-6 * hpwl(*db));
}

TEST(WaWirelengthTest, FillerNodesGetZeroGradient) {
  auto db = smallDesign();
  const Index n = db->numMovable() + 50;  // 50 fillers
  WaWirelengthOp<double> op(*db, n);
  op.setGamma(4.0);
  std::vector<double> params(2 * static_cast<size_t>(n), 0.0);
  auto base = centerParams<double>(*db, db->numMovable());
  const Index m = db->numMovable();
  std::copy(base.begin(), base.begin() + m, params.begin());
  std::copy(base.begin() + m, base.end(), params.begin() + n);
  std::vector<double> grad(params.size());
  op.evaluate(params, grad);
  for (Index i = m; i < n; ++i) {
    EXPECT_EQ(grad[i], 0.0);
    EXPECT_EQ(grad[i + n], 0.0);
  }
}

TEST(WaWirelengthTest, IgnoreNetDegreeSkipsHugeNets) {
  auto db = smallDesign(200, 31);
  const Index n = db->numMovable();
  WaWirelengthOp<double>::Options all_opts;
  WaWirelengthOp<double> all(*db, n, all_opts);
  WaWirelengthOp<double>::Options cut_opts;
  cut_opts.ignoreNetDegree = 10;
  WaWirelengthOp<double> cut(*db, n, cut_opts);
  all.setGamma(4.0);
  cut.setGamma(4.0);
  auto params = centerParams<double>(*db, n);
  std::vector<double> g(params.size());
  const double v_all = all.evaluate(params, g);
  const double v_cut = cut.evaluate(params, g);
  EXPECT_LT(v_cut, v_all);  // generator always makes some high-fanout nets
}

TEST(WaWirelengthTest, PerNetGradientConservation) {
  // The WA gradient of one net sums to zero over its pins (translation
  // invariance of the net cost), so on a design where a net is entirely
  // movable and each of its cells carries only that net, the cells'
  // gradients cancel. Build exactly that: a 3-pin net on 3 fresh cells.
  Database db;
  const Index a = db.addCell("a", 2, 12, true);
  const Index b = db.addCell("b", 2, 12, true);
  const Index c = db.addCell("c", 2, 12, true);
  const Index net = db.addNet("n");
  db.addPin(net, a, 0, 0);
  db.addPin(net, b, 0.3, 0);
  db.addPin(net, c, -0.2, 0);
  db.setDieArea({0, 0, 100, 48});
  for (int r = 0; r < 4; ++r) {
    db.addRow({static_cast<Coord>(r * 12), 12, 0, 100, 1});
  }
  db.setCellPosition(a, 10, 0);
  db.setCellPosition(b, 40, 12);
  db.setCellPosition(c, 70, 24);
  db.finalize();

  WaWirelengthOp<double> op(db, db.numMovable());
  op.setGamma(3.0);
  auto params = centerParams<double>(db, db.numMovable());
  std::vector<double> grad(params.size());
  op.evaluate(params, grad);
  EXPECT_NEAR(grad[0] + grad[1] + grad[2], 0.0, 1e-12);
  EXPECT_NEAR(grad[3] + grad[4] + grad[5], 0.0, 1e-12);

  // And repeated evaluation is deterministic.
  std::vector<double> grad2(params.size());
  const double v1 = op.evaluate(params, grad);
  const double v2 = op.evaluate(params, grad2);
  EXPECT_DOUBLE_EQ(v1, v2);
  EXPECT_EQ(grad, grad2);
}

TEST(WaWirelengthTest, PinScratchAllocatesOnce) {
  // The per-pin gradient scratch is member workspace: the first
  // evaluate() allocates it, every later call reuses it. The counter
  // registry is the witness (deltas, since other tests in this binary
  // also exercise the kernels).
  auto& registry = CounterRegistry::instance();
  const auto allocs0 = registry.value("ops/wirelength/scratch_alloc");
  const auto reuses0 = registry.value("ops/wirelength/scratch_reuse");

  auto db = smallDesign(90, 13);
  const Index n = db->numMovable();
  WaWirelengthOp<double>::Options opts;
  opts.kernel = WirelengthKernel::kAtomic;
  WaWirelengthOp<double> op(*db, n, opts);
  op.setGamma(4.0);
  auto params = centerParams<double>(*db, n);
  std::vector<double> grad(params.size());

  constexpr int kEvals = 8;
  for (int i = 0; i < kEvals; ++i) {
    op.evaluate(params, grad);
  }
  EXPECT_EQ(registry.value("ops/wirelength/scratch_alloc") - allocs0, 1);
  EXPECT_EQ(registry.value("ops/wirelength/scratch_reuse") - reuses0,
            kEvals - 1);
}

TEST(WaWirelengthTest, KernelSwitchReusesWorkspace) {
  // The net-by-net and atomic strategies share one intermediate
  // workspace, sized up front to the larger (net-by-net) footprint, so
  // alternating strategies on one op allocates once and then reuses —
  // no reallocation churn from the size mismatch (2*numPins vs numPins).
  auto& registry = CounterRegistry::instance();
  const auto allocs0 = registry.value("ops/wirelength/kernel_ws_alloc");
  const auto reuses0 = registry.value("ops/wirelength/kernel_ws_reuse");

  auto db = smallDesign(90, 17);
  const Index n = db->numMovable();
  WaWirelengthOp<double>::Options opts;
  opts.kernel = WirelengthKernel::kNetByNet;
  WaWirelengthOp<double> op(*db, n, opts);
  op.setGamma(4.0);
  auto params = centerParams<double>(*db, n);
  std::vector<double> grad(params.size());

  // Alternate the two strategies that materialize intermediates: the
  // atomic passes fit inside the net-by-net footprint, so the switch
  // must hit the reuse path every time after the first evaluate.
  constexpr int kEvals = 6;
  for (int i = 0; i < kEvals; ++i) {
    op.setKernel(i % 2 == 0 ? WirelengthKernel::kNetByNet
                            : WirelengthKernel::kAtomic);
    op.evaluate(params, grad);
  }
  EXPECT_EQ(registry.value("ops/wirelength/kernel_ws_alloc") - allocs0, 1);
  EXPECT_EQ(registry.value("ops/wirelength/kernel_ws_reuse") - reuses0,
            kEvals - 1);
}

TEST(WaWirelengthTest, TopologyViewIsConsistent) {
  // All three kernels and the HPWL path consume the same NetTopologyView;
  // its CSR invariants are what make that sharing sound.
  auto db = smallDesign(70, 29);
  const Index n = db->numMovable();
  WaWirelengthOp<double> op(*db, n);
  const NetTopologyView<double> topo = op.topology();
  EXPECT_EQ(topo.numNets(), db->numNets());
  EXPECT_EQ(topo.netStart[0], 0);
  EXPECT_EQ(topo.netStart[topo.numNets()], topo.numPins());
  for (Index e = 0; e < topo.numNets(); ++e) {
    EXPECT_LE(topo.netBegin(e), topo.netEnd(e));
    EXPECT_EQ(topo.netDegree(e), topo.netEnd(e) - topo.netBegin(e));
    for (Index p = topo.netBegin(e); p < topo.netEnd(e); ++p) {
      EXPECT_EQ(topo.pinNet[p], e);
      const Index node = topo.pinNode[p];
      EXPECT_TRUE(node == kInvalidIndex || (node >= 0 && node < n));
    }
  }
}

TEST(LseWirelengthTest, UpperBoundsHpwl) {
  // LSE overestimates HPWL.
  auto db = smallDesign(80, 17);
  const Index n = db->numMovable();
  LseWirelengthOp<double> lse(*db, n);
  WaWirelengthOp<double> wa(*db, n);
  lse.setGamma(5.0);
  auto params = centerParams<double>(*db, n);
  std::vector<double> grad(params.size());
  EXPECT_GE(lse.evaluate(params, grad) + 1e-9, wa.hpwl(params));
}

template <typename T>
void expectLseLastHpwlEqualsHpwl(bool simd) {
  auto db = smallDesign(2000, 33);
  const Index n = db->numMovable() + 5;
  LseWirelengthOp<T> op(*db, n, /*ignoreNetDegree=*/6, simd);
  op.setGamma(3.0);
  const std::vector<T> params = randomParams<T>(*db, n, 4);
  std::vector<T> grad(params.size());
  op.evaluate(params, grad);
  EXPECT_EQ(op.lastHpwl(), op.hpwl(params));
}

TEST(LseWirelengthTest, LastHpwlEqualsHpwl) {
  expectLseLastHpwlEqualsHpwl<double>(true);
  expectLseLastHpwlEqualsHpwl<double>(false);
  expectLseLastHpwlEqualsHpwl<float>(true);
  expectLseLastHpwlEqualsHpwl<float>(false);
}

TEST(LseWirelengthTest, GradientMatchesFiniteDifference) {
  auto db = smallDesign(50, 19);
  const Index n = db->numMovable();
  LseWirelengthOp<double> op(*db, n);
  op.setGamma(7.0);
  auto params = centerParams<double>(*db, n);
  std::vector<double> grad(params.size());
  op.evaluate(params, grad);
  std::vector<double> scratch(params.size());
  Rng rng(4);
  const double h = 1e-5;
  for (int trial = 0; trial < 20; ++trial) {
    const size_t i = rng.uniformInt(static_cast<std::uint32_t>(params.size()));
    auto plus = params;
    auto minus = params;
    plus[i] += h;
    minus[i] -= h;
    const double numeric =
        (op.evaluate(plus, scratch) - op.evaluate(minus, scratch)) / (2 * h);
    ASSERT_NEAR(grad[i], numeric, 1e-4 * (1.0 + std::abs(numeric)));
  }
}

TEST(WirelengthFloatTest, Float32TracksFloat64) {
  auto db = smallDesign(100, 23);
  const Index n = db->numMovable();
  WaWirelengthOp<double> op64(*db, n);
  WaWirelengthOp<float> op32(*db, n);
  op64.setGamma(5.0);
  op32.setGamma(5.0);
  auto p64 = centerParams<double>(*db, n);
  std::vector<float> p32(p64.begin(), p64.end());
  std::vector<double> g64(p64.size());
  std::vector<float> g32(p32.size());
  const double v64 = op64.evaluate(p64, g64);
  const double v32 = op32.evaluate(p32, g32);
  EXPECT_NEAR(v32, v64, 1e-3 * std::abs(v64));
}

}  // namespace
}  // namespace dreamplace
