#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>

#include "autograd/tape.h"
#include "common/counters.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
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

// ---------------------------------------------------------------------------
// Merged WA kernel: lane groups (nets of one degree, one net per lane) and
// solo nets against a net-at-a-time reference, bit for bit.
// ---------------------------------------------------------------------------

/// Nets of every degree in [2, maxDegree], (3 * 8 + degree % 7) of each,
/// so every degree bucket leaves a remainder at lane width 4 and 8;
/// random movable cells (distinct per net) plus pins on fixed pads, one
/// net on pads only, one single-pin net, random weights.
std::unique_ptr<Database> degreeLadderDesign(Index maxDegree,
                                             std::uint64_t seed) {
  auto db = std::make_unique<Database>();
  Rng rng(seed);
  constexpr Index kMovable = 160;
  constexpr Index kPads = 6;
  const Coord die = 400;
  for (Index c = 0; c < kMovable; ++c) {
    db->addCell("c" + std::to_string(c), 2 + rng.uniform(0, 4), 4, true);
  }
  for (Index c = 0; c < kPads; ++c) {
    const Index pad = db->addCell("p" + std::to_string(c), 2, 2, false);
    db->setCellPosition(pad, rng.uniform(0, die - 2), rng.uniform(0, die - 2));
  }
  Index net_id = 0;
  const auto addNet = [&](Index degree) {
    const Index net = db->addNet("n" + std::to_string(net_id++),
                                 rng.uniform(0.5, 2.0));
    std::vector<Index> cells;
    while (static_cast<Index>(cells.size()) < degree) {
      const bool pad = rng.uniformInt(6) == 0;
      const Index c = pad ? kMovable + static_cast<Index>(rng.uniformInt(kPads))
                          : static_cast<Index>(rng.uniformInt(kMovable));
      if (std::find(cells.begin(), cells.end(), c) == cells.end()) {
        cells.push_back(c);
      }
    }
    for (const Index c : cells) {
      db->addPin(net, c, rng.uniform(-1, 1), rng.uniform(-2, 2));
    }
  };
  for (Index degree = 2; degree <= maxDegree; ++degree) {
    for (Index k = 0; k < 3 * 8 + degree % 7; ++k) {
      addNet(degree);
    }
  }
  addNet(1);
  const Index pads_only = db->addNet("pads", 1.0);
  db->addPin(pads_only, kMovable, 0, 0);
  db->addPin(pads_only, kMovable + 1, 1, 0);
  db->setDieArea({0, 0, die, die});
  db->finalize();
  return db;
}

template <typename T>
struct MergedReference {
  double wl = 0.0;
  double hpwl = 0.0;
  std::vector<T> grad;
};

/// The merged kernel's arithmetic, one net at a time: pin positions as
/// PinPositionTables forms them, min/max, the exp arguments, vexpArray<V>
/// over a net's 2*degree arguments, b/c folded in pin order (a net of at
/// least V::kWidth pins folds lane partials and then the tail, as the
/// per-net lane loops do), the WL term and the backward; WL and HPWL
/// summed per 64-net block (dim 0, then dim 1), blocks in order; pin
/// gradients gathered per node in CSR order.
template <typename T, typename V>
MergedReference<T> mergedReference(const NetTopologyView<T>& topo,
                                   std::span<const T> params, Index numNodes,
                                   Index ignoreDegree, double gammaD) {
  constexpr Index kW = V::kWidth;
  const T inv_gamma = static_cast<T>(1.0 / gammaD);
  const T gamma = static_cast<T>(gammaD);
  const Index num_pins = topo.numPins();
  const Index num_nets = topo.numNets();
  std::vector<T> pin[2];
  std::vector<T> pin_grad[2];
  for (int dim = 0; dim < 2; ++dim) {
    pin[dim].resize(num_pins);
    pin_grad[dim].assign(num_pins, T(0));
    const T* coord = params.data() + dim * numNodes;
    for (Index p = 0; p < num_pins; ++p) {
      const Index node = topo.pinNode[p];
      const T sel = node >= 0 ? T(1) : T(0);
      const T base = node >= 0
                         ? (dim == 0 ? topo.pinOffsetX[p] : topo.pinOffsetY[p])
                         : (dim == 0 ? topo.pinFixedX[p] : topo.pinFixedY[p]);
      pin[dim][p] = sel * coord[node >= 0 ? node : 0] + base;
    }
  }
  std::vector<T> wl_term[2] = {std::vector<T>(num_nets, T(0)),
                               std::vector<T>(num_nets, T(0))};
  std::vector<T> hpwl_term(num_nets, T(0));
  for (Index e = 0; e < num_nets; ++e) {
    const Index begin = topo.netBegin(e);
    const Index degree = topo.netDegree(e);
    if (degree < 2) {
      continue;
    }
    const bool ignored = ignoreDegree > 0 && degree > ignoreDegree;
    const T weight = topo.netWeight[e];
    T span_x = 0;
    for (int dim = 0; dim < 2; ++dim) {
      const T* pos = pin[dim].data() + begin;
      T mn = std::numeric_limits<T>::infinity();
      T mx = -mn;
      for (Index i = 0; i < degree; ++i) {
        mn = std::min(mn, pos[i]);
        mx = std::max(mx, pos[i]);
      }
      if (dim == 0) {
        span_x = mx - mn;
      } else {
        hpwl_term[e] = weight * (span_x + (mx - mn));
      }
      if (ignored) {
        continue;
      }
      std::vector<T> arg(2 * degree), a(2 * degree);
      for (Index i = 0; i < degree; ++i) {
        arg[i] = (pos[i] - mx) * inv_gamma;
        arg[degree + i] = (mn - pos[i]) * inv_gamma;
      }
      simd::vexpArray<V>(arg.data(), a.data(), 2 * degree);
      const T* ap = a.data();
      const T* am = a.data() + degree;
      const T* gp_arg = arg.data();
      const T* gm_arg = arg.data() + degree;
      T bp, bm, cp, cm;
      Index i = 0;
      if (degree >= kW) {
        T lbp[kW], lbm[kW], lcp[kW], lcm[kW];
        for (Index l = 0; l < kW; ++l) {
          lbp[l] = ap[l];
          lbm[l] = am[l];
          lcp[l] = gp_arg[l] * ap[l];
          lcm[l] = gm_arg[l] * am[l];
        }
        for (i = kW; i + kW <= degree; i += kW) {
          for (Index l = 0; l < kW; ++l) {
            lbp[l] += ap[i + l];
            lbm[l] += am[i + l];
            lcp[l] = gp_arg[i + l] * ap[i + l] + lcp[l];
            lcm[l] = gm_arg[i + l] * am[i + l] + lcm[l];
          }
        }
        bp = lbp[0];
        bm = lbm[0];
        cp = lcp[0];
        cm = lcm[0];
        for (Index l = 1; l < kW; ++l) {
          bp += lbp[l];
          bm += lbm[l];
          cp += lcp[l];
          cm += lcm[l];
        }
      } else {
        bp = ap[0];
        bm = am[0];
        cp = gp_arg[0] * ap[0];
        cm = gm_arg[0] * am[0];
        i = 1;
      }
      for (; i < degree; ++i) {
        bp += ap[i];
        bm += am[i];
        cp += gp_arg[i] * ap[i];
        cm += gm_arg[i] * am[i];
      }
      const T k_plus = cp / bp;
      const T k_minus = cm / bm;
      wl_term[dim][e] = weight * ((mx - mn) + gamma * (k_plus + k_minus));
      const T inv_bp = T(1) / bp;
      const T inv_bm = T(1) / bm;
      for (Index j = 0; j < degree; ++j) {
        const T gp = ap[j] * inv_bp * (T(1) - k_plus + gp_arg[j]);
        const T gm = am[j] * inv_bm * (T(1) - k_minus + gm_arg[j]);
        pin_grad[dim][begin + j] = weight * (gp - gm);
      }
    }
  }
  MergedReference<T> ref;
  for (Index b0 = 0; b0 < num_nets; b0 += 64) {
    const Index b1 = std::min<Index>(num_nets, b0 + 64);
    double wl = 0.0;
    double hp = 0.0;
    for (int dim = 0; dim < 2; ++dim) {
      for (Index e = b0; e < b1; ++e) {
        if (topo.netDegree(e) >= 2) {
          wl += static_cast<double>(wl_term[dim][e]);
        }
      }
    }
    for (Index e = b0; e < b1; ++e) {
      if (topo.netDegree(e) >= 2) {
        hp += static_cast<double>(hpwl_term[e]);
      }
    }
    ref.wl += wl;
    ref.hpwl += hp;
  }
  ref.grad.assign(2 * static_cast<std::size_t>(numNodes), T(0));
  for (Index c = 0; c < topo.numCells(); ++c) {
    for (int dim = 0; dim < 2; ++dim) {
      T g = T(0);
      for (Index k = topo.nodePinStart[c]; k < topo.nodePinStart[c + 1];
           ++k) {
        g += pin_grad[dim][topo.nodePins[k]];
      }
      ref.grad[dim * numNodes + c] += g;
    }
  }
  return ref;
}

template <typename T>
void expectMergedMatchesReference(bool simd, Index ignoreDegree,
                                  int threads) {
  SCOPED_TRACE(::testing::Message()
               << "T=" << sizeof(T) << " simd=" << simd
               << " ignore=" << ignoreDegree << " threads=" << threads);
  ThreadPool::instance().setThreads(threads);
  constexpr Index kWidest = std::max(8, simd::kNativeWidth<float>);
  auto db = degreeLadderDesign(2 * kWidest + 1, 5);
  const Index n = db->numMovable() + 3;  // trailing filler nodes
  typename WaWirelengthOp<T>::Options opts;
  opts.simd = simd;
  opts.ignoreNetDegree = ignoreDegree;
  WaWirelengthOp<T> op(*db, n, opts);
  for (std::uint64_t seed : {1u, 2u}) {
    const double gamma = seed == 1 ? 3.0 : 40.0;
    op.setGamma(gamma);
    const std::vector<T> params = randomParams<T>(*db, n, seed);
    std::vector<T> grad(params.size());
    const double value = op.evaluate(params, grad);
    const MergedReference<T> ref =
        simd && simd::kEnabled
            ? mergedReference<T, simd::NativeVec<T>>(op.topology(), params, n,
                                                     ignoreDegree, gamma)
            : mergedReference<T, simd::ScalarVec<T, 1>>(
                  op.topology(), params, n, ignoreDegree, gamma);
    EXPECT_EQ(value, ref.wl);
    EXPECT_EQ(op.lastHpwl(), ref.hpwl);
    EXPECT_EQ(op.lastHpwl(), op.hpwl(params));
    for (std::size_t i = 0; i < grad.size(); ++i) {
      ASSERT_EQ(grad[i], ref.grad[i]) << "param " << i;
    }
  }
  ThreadPool::instance().setThreads(0);
}

TEST(WaMergedLanesTest, BitIdenticalToNetAtATimeReference) {
  for (const int threads : {1, 4}) {
    for (const bool simd : {true, false}) {
      for (const Index ignore : {0, 11}) {
        expectMergedMatchesReference<float>(simd, ignore, threads);
        expectMergedMatchesReference<double>(simd, ignore, threads);
      }
    }
  }
}

/// simd/vexp_calls per merged evaluate, derived from the netlist alone:
/// active nets with 2 <= degree < width fill lane groups of `width` nets
/// per degree, each group making 2*degree vexp calls per dimension;
/// every other active net makes ceil(2*degree / width) calls per
/// dimension (one vexpArray over its arguments). Ignored nets make none.
std::int64_t expectedMergedVexpCalls(const NetTopologyView<double>& topo,
                                     Index width, Index ignoreDegree) {
  std::vector<Index> bucket(width > 2 ? width : 2, 0);
  std::int64_t calls = 0;
  for (Index e = 0; e < topo.numNets(); ++e) {
    const Index degree = topo.netDegree(e);
    if (degree < 2 || (ignoreDegree > 0 && degree > ignoreDegree)) {
      continue;
    }
    if (degree < width) {
      ++bucket[degree];
    } else {
      calls += 2 * ((2 * degree + width - 1) / width);
    }
  }
  for (Index degree = 2; degree < width; ++degree) {
    const Index groups = bucket[degree] / width;
    calls += groups * 4 * degree;
    calls += (bucket[degree] - groups * width) * 2 *
             ((2 * degree + width - 1) / width);
  }
  return calls;
}

TEST(WaMergedLanesTest, VexpCallCountIsExact) {
  auto db = degreeLadderDesign(12, 9);
  const Index n = db->numMovable();
  auto& registry = CounterRegistry::instance();
  for (const bool simd : {true, false}) {
    WaWirelengthOp<double>::Options opts;
    opts.simd = simd;
    opts.ignoreNetDegree = 10;
    WaWirelengthOp<double> op(*db, n, opts);
    op.setGamma(4.0);
    const Index width = simd && simd::kEnabled
                            ? simd::kNativeWidth<double>
                            : 1;
    const std::vector<double> params = randomParams<double>(*db, n, 3);
    std::vector<double> grad(params.size());
    const auto before = registry.value("simd/vexp_calls");
    op.evaluate(params, grad);
    EXPECT_EQ(registry.value("simd/vexp_calls") - before,
              expectedMergedVexpCalls(op.topology(), width, 10))
        << "simd=" << simd;
  }
  // Spelled out at width 4 (AVX2 double) on 27 degree-2 nets (26 plus
  // the pads-only net): 6 lane groups of 2 * 2 calls per dimension, and
  // 3 solo nets of ceil(4 / 4) calls per dimension.
  if (simd::kEnabled && simd::kNativeWidth<double> == 4) {
    auto tiny = degreeLadderDesign(2, 1);
    WaWirelengthOp<double> op(*tiny, tiny->numMovable());
    op.setGamma(4.0);
    const std::vector<double> params =
        randomParams<double>(*tiny, tiny->numMovable(), 3);
    std::vector<double> grad(params.size());
    const auto before = registry.value("simd/vexp_calls");
    op.evaluate(params, grad);
    EXPECT_EQ(registry.value("simd/vexp_calls") - before,
              6 * (2 * 2 * 2) + 3 * (2 * 1));
  }
}

// ---------------------------------------------------------------------------
// Tape oracle: the merged WA and the LSE gradients against the same
// formulas differentiated by autograd/tape.h (libm exp), in double.
// ---------------------------------------------------------------------------

/// Builds the tape expression of the whole wirelength (WA when `wa`,
/// else LSE) over one variable per movable-node coordinate.
double tapeWirelength(const NetTopologyView<double>& topo,
                      std::span<const double> params, Index numNodes,
                      double gamma, bool wa, std::vector<double>& gradOut) {
  using autograd::Tape;
  using autograd::Var;
  Tape tape;
  std::vector<Var> coord(2 * static_cast<std::size_t>(numNodes));
  for (std::size_t i = 0; i < coord.size(); ++i) {
    coord[i] = tape.variable(params[i]);
  }
  std::vector<Var> terms;
  for (Index e = 0; e < topo.numNets(); ++e) {
    if (topo.netDegree(e) < 2) {
      continue;
    }
    for (int dim = 0; dim < 2; ++dim) {
      std::vector<Var> pos;
      for (Index p = topo.netBegin(e); p < topo.netEnd(e); ++p) {
        const Index node = topo.pinNode[p];
        if (node >= 0) {
          pos.push_back(coord[dim * numNodes + node] +
                        (dim == 0 ? topo.pinOffsetX[p] : topo.pinOffsetY[p]));
        } else {
          pos.push_back(tape.constant(dim == 0 ? topo.pinFixedX[p]
                                               : topo.pinFixedY[p]));
        }
      }
      Var mx = pos[0];
      Var mn = pos[0];
      for (std::size_t k = 1; k < pos.size(); ++k) {
        mx = maximum(mx, pos[k]);
        mn = minimum(mn, pos[k]);
      }
      Var bp = tape.constant(0.0);
      Var bm = tape.constant(0.0);
      Var cp = tape.constant(0.0);
      Var cm = tape.constant(0.0);
      for (const Var& x : pos) {
        const Var ap = exp((x - mx) / gamma);
        const Var am = exp((mn - x) / gamma);
        bp = bp + ap;
        bm = bm + am;
        cp = cp + (x - mx) * ap;
        cm = cm + (x - mn) * am;
      }
      const Var term = wa ? (cp / bp + mx) - (cm / bm + mn)
                          : gamma * (log(bp) + log(bm)) + (mx - mn);
      terms.push_back(term * topo.netWeight[e]);
    }
  }
  const Var total = autograd::sum(terms);
  tape.backward(total);
  gradOut.resize(coord.size());
  for (std::size_t i = 0; i < coord.size(); ++i) {
    gradOut[i] = tape.grad(coord[i]);
  }
  return total.value();
}

TEST(WirelengthTapeOracleTest, MergedWaAndLseMatchTapeGradients) {
  // Degrees 2-12: at 4 double lanes, degrees 2-3 run as lane groups
  // (and their bucket remainders solo), degrees 4-12 solo.
  auto db = degreeLadderDesign(12, 17);
  const Index n = db->numMovable();
  const double gamma = 6.0;
  const std::vector<double> params = randomParams<double>(*db, n, 5);
  WaWirelengthOp<double> wa(*db, n);
  LseWirelengthOp<double> lse(*db, n);
  for (const bool is_wa : {true, false}) {
    SCOPED_TRACE(is_wa ? "WA" : "LSE");
    WirelengthOp<double>& op = is_wa ? static_cast<WirelengthOp<double>&>(wa)
                                     : static_cast<WirelengthOp<double>&>(lse);
    op.setGamma(gamma);
    std::vector<double> grad(params.size());
    const double value = op.evaluate(params, grad);
    std::vector<double> tape_grad;
    const double tape_value =
        tapeWirelength(wa.topology(), params, n, gamma, is_wa, tape_grad);
    EXPECT_NEAR(value, tape_value, 1e-9 * std::abs(tape_value));
    for (std::size_t i = 0; i < grad.size(); ++i) {
      ASSERT_NEAR(grad[i], tape_grad[i], 1e-9 * (1 + std::abs(tape_grad[i])))
          << "param " << i;
    }
  }
}

}  // namespace
}  // namespace dreamplace
