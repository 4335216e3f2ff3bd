#include "ops/wirelength.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/counters.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/simd.h"

namespace dreamplace {
namespace {

// ---------------------------------------------------------------------------
// Lane-parallel per-net primitives. Every helper decomposes the net's
// contiguous pin range [begin, end) into full lanes of V::kWidth plus a
// scalar/padded tail, so an element's value depends only on its offset
// within the net — never on the thread count (docs/SIMD.md). Stores are
// exact at the tail: a full-lane store past `end` would cross into the
// next net's pins, which another worker may own.
// ---------------------------------------------------------------------------

/// min/max over pins [begin, end). Lane mins/maxes fold in ascending lane
/// order; min/max are exactly associative, so the result is bit-equal to
/// the serial scan.
template <typename V, typename T = typename V::Elem>
inline void netMinMax(const T* pos, Index begin, Index end, T& mnOut,
                      T& mxOut) {
  constexpr Index kW = V::kWidth;
  T mn = std::numeric_limits<T>::infinity();
  T mx = -std::numeric_limits<T>::infinity();
  Index p = begin;
  if (end - begin >= kW) {
    V vmn = V::broadcast(mn);
    V vmx = V::broadcast(mx);
    for (; p + kW <= end; p += kW) {
      const V v = V::load(pos + p);
      vmn = min(vmn, v);
      vmx = max(vmx, v);
    }
    mn = hmin(vmn);
    mx = hmax(vmx);
  }
  for (; p < end; ++p) {
    mn = std::min(mn, pos[p]);
    mx = std::max(mx, pos[p]);
  }
  mnOut = mn;
  mxOut = mx;
}

/// WA forward for one net: aPlus[i] = exp((pos-pmax)/gamma),
/// aMinus[i] = exp((pmin-pos)/gamma) at local index i = p - begin, and
/// the b/c sums over them. Lane partials fold in ascending lane order;
/// the tail runs through the same vexp on a padded lane so tail elements
/// get identical values to full-lane ones.
template <typename V, typename T = typename V::Elem>
inline void waNetForward(const T* pos, Index begin, Index end, T pmax, T pmin,
                         T ig, T* aPlus, T* aMinus, T& bpOut, T& bmOut,
                         T& cpOut, T& cmOut) {
  constexpr Index kW = V::kWidth;
  const V vmax = V::broadcast(pmax);
  const V vmin = V::broadcast(pmin);
  const V vig = V::broadcast(ig);
  V bp = V::zero(), bm = V::zero(), cp = V::zero(), cm = V::zero();
  Index p = begin;
  for (; p + kW <= end; p += kW) {
    const V v = V::load(pos + p);
    const V dp = v - vmax;  // <= 0
    const V dm = vmin - v;  // <= 0
    const V ap = vexp(dp * vig);
    const V am = vexp(dm * vig);
    ap.store(aPlus + (p - begin));
    am.store(aMinus + (p - begin));
    bp = bp + ap;
    bm = bm + am;
    cp = fma(dp, ap, cp);
    cm = cm - dm * am;  // (pos - pmin) * am
  }
  T bps = hsum(bp), bms = hsum(bm), cps = hsum(cp), cms = hsum(cm);
  if (p < end) {
    const Index n = end - p;
    T sp[kW] = {}, sm[kW] = {};
    for (Index i = 0; i < n; ++i) {
      sp[i] = (pos[p + i] - pmax) * ig;
      sm[i] = (pmin - pos[p + i]) * ig;
    }
    const V ap = vexp(V::load(sp));
    const V am = vexp(V::load(sm));
    for (Index i = 0; i < n; ++i) {
      aPlus[p - begin + i] = ap[i];
      aMinus[p - begin + i] = am[i];
      bps += ap[i];
      bms += am[i];
      cps += (pos[p + i] - pmax) * ap[i];
      cms += (pos[p + i] - pmin) * am[i];
    }
  }
  bpOut = bps;
  bmOut = bms;
  cpOut = cps;
  cmOut = cms;
}

/// The store-only half of waNetForward (the kAtomic a-kernel): exp terms
/// only, no sums.
template <typename V, typename T = typename V::Elem>
inline void waNetExp(const T* pos, Index begin, Index end, T pmax, T pmin,
                     T ig, T* aPlus, T* aMinus) {
  constexpr Index kW = V::kWidth;
  const V vmax = V::broadcast(pmax);
  const V vmin = V::broadcast(pmin);
  const V vig = V::broadcast(ig);
  Index p = begin;
  for (; p + kW <= end; p += kW) {
    const V v = V::load(pos + p);
    vexp((v - vmax) * vig).store(aPlus + (p - begin));
    vexp((vmin - v) * vig).store(aMinus + (p - begin));
  }
  if (p < end) {
    const Index n = end - p;
    T sp[kW] = {}, sm[kW] = {};
    for (Index i = 0; i < n; ++i) {
      sp[i] = (pos[p + i] - pmax) * ig;
      sm[i] = (pmin - pos[p + i]) * ig;
    }
    const V ap = vexp(V::load(sp));
    const V am = vexp(V::load(sm));
    for (Index i = 0; i < n; ++i) {
      aPlus[p - begin + i] = ap[i];
      aMinus[p - begin + i] = am[i];
    }
  }
}

/// Pairwise sums over [begin, end) of two parallel arrays (the kAtomic
/// b-kernel).
template <typename V, typename T = typename V::Elem>
inline void sumPairRange(const T* a, const T* b, Index begin, Index end,
                         T& saOut, T& sbOut) {
  constexpr Index kW = V::kWidth;
  V va = V::zero(), vb = V::zero();
  Index p = begin;
  for (; p + kW <= end; p += kW) {
    va = va + V::load(a + p);
    vb = vb + V::load(b + p);
  }
  T sa = hsum(va), sb = hsum(vb);
  for (; p < end; ++p) {
    sa += a[p];
    sb += b[p];
  }
  saOut = sa;
  sbOut = sb;
}

/// c± = sum (pos - pmax) * a+ and sum (pos - pmin) * a- over the net
/// (the kAtomic c-kernel).
template <typename V, typename T = typename V::Elem>
inline void waNetC(const T* pos, const T* aPlus, const T* aMinus, Index begin,
                   Index end, T pmax, T pmin, T& cpOut, T& cmOut) {
  constexpr Index kW = V::kWidth;
  const V vmax = V::broadcast(pmax);
  const V vmin = V::broadcast(pmin);
  V cp = V::zero(), cm = V::zero();
  Index p = begin;
  for (; p + kW <= end; p += kW) {
    const V v = V::load(pos + p);
    cp = fma(v - vmax, V::load(aPlus + p), cp);
    cm = fma(v - vmin, V::load(aMinus + p), cm);
  }
  T cps = hsum(cp), cms = hsum(cm);
  for (; p < end; ++p) {
    cps += (pos[p] - pmax) * aPlus[p];
    cms += (pos[p] - pmin) * aMinus[p];
  }
  cpOut = cps;
  cmOut = cms;
}

/// WA backward for one net: pinGrad[p] = weight * (g+ - g-) for every pin
/// in [begin, end), a± at local index p - begin. Pin-gradient entries of
/// fixed pins are written too — gatherPinGradient only ever reads pins of
/// movable nodes (node->pin CSR), so the stores can be unconditional;
/// the tail stays exact so the writes never leave this net's range.
template <typename V, typename T = typename V::Elem>
inline void waNetBackward(const T* pos, Index begin, Index end, T pmax,
                          T pmin, T bp, T bm, T wap, T wam, T ig, T weight,
                          const T* aPlus, const T* aMinus, T* pinGrad) {
  constexpr Index kW = V::kWidth;
  const V vmax = V::broadcast(pmax);
  const V vmin = V::broadcast(pmin);
  const V vbp = V::broadcast(bp);
  const V vbm = V::broadcast(bm);
  const V vwap = V::broadcast(wap);
  const V vwam = V::broadcast(wam);
  const V vig = V::broadcast(ig);
  const V vw = V::broadcast(weight);
  const V one = V::broadcast(T(1));
  Index p = begin;
  for (; p + kW <= end; p += kW) {
    const V v = V::load(pos + p);
    const V ap = V::load(aPlus + (p - begin));
    const V am = V::load(aMinus + (p - begin));
    const V gp = ap / vbp * (one + ((v - vmax) - vwap) * vig);
    const V gm = am / vbm * (one - ((v - vmin) - vwam) * vig);
    (vw * (gp - gm)).store(pinGrad + p);
  }
  for (; p < end; ++p) {
    const T ap = aPlus[p - begin];
    const T am = aMinus[p - begin];
    const T gp = ap / bp * (T(1) + ((pos[p] - pmax) - wap) * ig);
    const T gm = am / bm * (T(1) - ((pos[p] - pmin) - wam) * ig);
    pinGrad[p] = weight * (gp - gm);
  }
}

/// LSE backward for one net: pinGrad[p] = weight * (a+/b+ - a-/b-).
template <typename V, typename T = typename V::Elem>
inline void lseNetBackward(Index begin, Index end, T bp, T bm, T weight,
                           const T* aPlus, const T* aMinus, T* pinGrad) {
  constexpr Index kW = V::kWidth;
  const V vbp = V::broadcast(bp);
  const V vbm = V::broadcast(bm);
  const V vw = V::broadcast(weight);
  Index p = begin;
  for (; p + kW <= end; p += kW) {
    const V ap = V::load(aPlus + (p - begin));
    const V am = V::load(aMinus + (p - begin));
    (vw * (ap / vbp - am / vbm)).store(pinGrad + p);
  }
  for (; p < end; ++p) {
    const T ap = aPlus[p - begin];
    const T am = aMinus[p - begin];
    pinGrad[p] = weight * (ap / bp - am / bm);
  }
}

/// One dimension of the merged WA kernel for a lane group: V::kWidth
/// nets of degree D, net l's pins at pos[begin[l] + i]. Runs the per-net
/// sequence of the solo path (min/max, exp arguments, vexp, b/c folded
/// in pin order, k = c/b, WL term, backward) one net per lane — the same
/// operations in the same order, so every lane is bit-identical to its
/// net computed alone. Returns the lanes' spans and weighted WL terms and
/// writes the pin gradients.
template <int D, typename V, typename T = typename V::Elem>
inline void waLaneGroupDim(const T* pos, const Index* begin, V weight,
                           V invGamma, V gamma, T* pinGrad, V& spanOut,
                           V& wlOut) {
  V pin[D];
  V mn = V::broadcast(std::numeric_limits<T>::infinity());
  V mx = V::broadcast(-std::numeric_limits<T>::infinity());
  for (int i = 0; i < D; ++i) {
    pin[i] = V::gather(pos + i, begin);
    mn = min(pin[i], mn);  // std::min(mn, pin) per lane
    mx = max(pin[i], mx);  // std::max(mx, pin) per lane
  }
  V arg_plus[D], arg_minus[D], a_plus[D], a_minus[D];
  for (int i = 0; i < D; ++i) {
    arg_plus[i] = (pin[i] - mx) * invGamma;
    arg_minus[i] = (mn - pin[i]) * invGamma;
    a_plus[i] = vexp(arg_plus[i]);
    a_minus[i] = vexp(arg_minus[i]);
  }
  V bp = a_plus[0];
  V bm = a_minus[0];
  V cp = arg_plus[0] * a_plus[0];
  V cm = arg_minus[0] * a_minus[0];
  for (int i = 1; i < D; ++i) {
    bp = bp + a_plus[i];
    bm = bm + a_minus[i];
    cp = fma(arg_plus[i], a_plus[i], cp);
    cm = fma(arg_minus[i], a_minus[i], cm);
  }
  const V k_plus = cp / bp;    // arg-space mean, <= 0
  const V k_minus = cm / bm;   // arg-space mean, <= 0
  const V span = mx - mn;
  spanOut = span;
  wlOut = weight * (span + gamma * (k_plus + k_minus));
  // Backward; each pin entry is written by exactly one net.
  const V one = V::broadcast(T(1));
  const V inv_bp = one / bp;
  const V inv_bm = one / bm;
  const V kp = one - k_plus;
  const V km = one - k_minus;
  for (int i = 0; i < D; ++i) {
    const V gp = a_plus[i] * inv_bp * (kp + arg_plus[i]);
    const V gm = a_minus[i] * inv_bm * (km + arg_minus[i]);
    (weight * (gp - gm)).scatter(pinGrad + i, begin);
  }
}

/// One vexp vector call per lane group per sign per dimension.
inline std::int64_t vexpCallsPerEvaluate(std::int64_t laneGroups) {
  return 4 * laneGroups;
}

/// Publishes the lane width the evaluate actually ran with
/// (simd/width = N for the NativeVec path, 1 for ScalarVec). store, not
/// add: the width is a fact, not an event count.
inline void publishSimdWidth(int width) {
  currentCounterRegistry().counter("simd/width").store(width);
}

}  // namespace

// ---------------------------------------------------------------------------
// PinPositionTables
// ---------------------------------------------------------------------------

template <typename T>
void PinPositionTables<T>::build(const NetTopologyView<T>& topo) {
  const Index num_pins = topo.numPins();
  gatherNode.resize(num_pins);
  sel.resize(num_pins);
  baseX.resize(num_pins);
  baseY.resize(num_pins);
  for (Index p = 0; p < num_pins; ++p) {
    const Index node = topo.pinNode[p];
    gatherNode[p] = node >= 0 ? node : 0;
    sel[p] = node >= 0 ? T(1) : T(0);
    baseX[p] = node >= 0 ? topo.pinOffsetX[p] : topo.pinFixedX[p];
    baseY[p] = node >= 0 ? topo.pinOffsetY[p] : topo.pinFixedY[p];
  }
}

template <typename T>
template <typename V>
void PinPositionTables<T>::compute(const T* x, const T* y, T* pinX,
                                   T* pinY) const {
  const Index num_pins = static_cast<Index>(sel.size());
  constexpr Index kW = V::kWidth;
  // The node-coordinate gather stays scalar (no portable gather in the
  // vector extensions); the select and add are lane ops. Lane and scalar
  // tails run the identical op sequence, so results are bit-equal to the
  // branchy pre-SIMD loop.
  parallelForBlocked("ops/wl/pins", num_pins, 2048,
                     [&](Index lo, Index hi, int) {
    Index p = lo;
    for (; p + kW <= hi; p += kW) {
      T bx[kW], by[kW];
      for (Index i = 0; i < kW; ++i) {
        const Index node = gatherNode[p + i];
        bx[i] = x[node];
        by[i] = y[node];
      }
      const V s = V::load(sel.data() + p);
      fma(s, V::load(bx), V::load(baseX.data() + p)).store(pinX + p);
      fma(s, V::load(by), V::load(baseY.data() + p)).store(pinY + p);
    }
    for (; p < hi; ++p) {
      const Index node = gatherNode[p];
      pinX[p] = sel[p] * x[node] + baseX[p];
      pinY[p] = sel[p] * y[node] + baseY[p];
    }
  });
}

// ---------------------------------------------------------------------------
// WaWirelengthOp
// ---------------------------------------------------------------------------

template <typename T>
WaWirelengthOp<T>::WaWirelengthOp(const Database& db, Index numNodes,
                                  Options options)
    : num_nodes_(numNodes), options_(options), topo_(db) {
  DP_ASSERT(numNodes >= db.numMovable());
  const NetTopologyView<T> topo = topo_.view();
  net_ignored_.assign(topo.numNets(), 0);
  if (options_.ignoreNetDegree > 0) {
    for (Index e = 0; e < topo.numNets(); ++e) {
      if (topo.netDegree(e) > options_.ignoreNetDegree) {
        net_ignored_[e] = 1;
      }
    }
  }
  constexpr Index kW = simd::kNativeWidth<T>;
  for (Index e = 0; e < topo.numNets(); ++e) {
    const Index degree = topo.netDegree(e);
    if (net_ignored_[e] || degree < 2) {
      continue;
    }
    max_active_degree_ = std::max(max_active_degree_, degree);
    vexp_groups_native_ += (degree + kW - 1) / kW;
    vexp_groups_scalar_ += degree;
  }
  lane_width_ = options_.simd && simd::kEnabled ? kW : 1;
  buildMergedLayout(topo);
  pin_tables_.build(topo);
  pin_x_.resize(topo.numPins());
  pin_y_.resize(topo.numPins());
}

template <typename T>
void WaWirelengthOp<T>::ensureScratch(Index numPins) {
  static Counter allocs("ops/wirelength/scratch_alloc");
  static Counter reuses("ops/wirelength/scratch_reuse");
  if (static_cast<Index>(pin_grad_x_.size()) == numPins) {
    reuses.add();
    return;
  }
  // The pin count is fixed for the op's lifetime, so this runs once.
  pin_grad_x_.resize(numPins);
  pin_grad_y_.resize(numPins);
  mem_scratch_.set(static_cast<std::int64_t>(
      2u * static_cast<std::size_t>(numPins) * sizeof(T)));
  allocs.add();
}

template <typename T>
void WaWirelengthOp<T>::ensureKernelScratch(Index numPins, Index numNets) {
  static Counter allocs("ops/wirelength/kernel_ws_alloc");
  static Counter reuses("ops/wirelength/kernel_ws_reuse");
  // Sized once to the net-by-net footprint (2x: per-dimension halves),
  // which covers the atomic strategy's 1x need, so switching kernel
  // strategies on one op never reallocates.
  const std::size_t pins_need = 2 * static_cast<std::size_t>(numPins);
  const std::size_t nets_need = 2 * static_cast<std::size_t>(numNets);
  if (a_plus_.size() == pins_need && b_plus_.size() == nets_need) {
    reuses.add();
    return;
  }
  a_plus_.resize(pins_need);
  a_minus_.resize(pins_need);
  b_plus_.resize(nets_need);
  b_minus_.resize(nets_need);
  c_plus_.resize(nets_need);
  c_minus_.resize(nets_need);
  x_max_.resize(nets_need);
  x_min_.resize(nets_need);
  mem_kernel_ws_.set(static_cast<std::int64_t>(
      (2 * pins_need + 6 * nets_need) * sizeof(T)));
  allocs.add();
}

template <typename T>
void WaWirelengthOp<T>::buildMergedLayout(const NetTopologyView<T>& topo) {
  const Index width = lane_width_;
  // Buckets by degree, nets ascending within each.
  std::vector<std::vector<Index>> buckets(static_cast<std::size_t>(width));
  for (Index e = 0; e < topo.numNets(); ++e) {
    const Index degree = topo.netDegree(e);
    if (!net_ignored_[e] && degree >= 2 && degree < width) {
      buckets[degree].push_back(e);
    }
  }
  std::vector<char> in_lanes(topo.numNets(), 0);
  for (Index degree = 2; degree < width; ++degree) {
    const std::vector<Index>& bucket = buckets[degree];
    const std::size_t full = bucket.size() / width * width;
    for (std::size_t k = 0; k < full; k += width) {
      for (Index l = 0; l < width; ++l) {
        lane_nets_.push_back(bucket[k + l]);
        in_lanes[bucket[k + l]] = 1;
      }
      lane_degree_.push_back(degree);
      vexp_calls_merged_ += 4 * degree;
    }
  }
  Index task_pins = 0;
  for (Index e = 0; e < topo.numNets(); ++e) {
    const Index degree = topo.netDegree(e);
    if (degree < 2 || in_lanes[e]) {
      continue;
    }
    if (task_pins == 0) {
      solo_task_begin_.push_back(static_cast<Index>(solo_nets_.size()));
    }
    solo_nets_.push_back(e);
    task_pins += degree;
    if (task_pins >= kSoloTaskPins) {
      task_pins = 0;
    }
    if (!net_ignored_[e]) {
      vexp_calls_merged_ += 2 * ((2 * degree + width - 1) / width);
    }
  }
  solo_task_begin_.push_back(static_cast<Index>(solo_nets_.size()));
}

template <typename T>
void WaWirelengthOp<T>::ensureMergedWorkspace(Index numNets, int workers) {
  static Counter allocs("ops/wirelength/solo_ws_alloc");
  static Counter reuses("ops/wirelength/solo_ws_reuse");
  const std::size_t terms = 3 * static_cast<std::size_t>(numNets);
  if (net_terms_.size() != terms) {
    // Nets no shape writes (degree < 2; the WL terms of ignored nets)
    // keep these zeros for the op's lifetime.
    net_terms_.assign(terms, T(0));
    mem_net_terms_.set(static_cast<std::int64_t>(terms * sizeof(T)));
  }
  solo_row_ = 4 * static_cast<std::size_t>(max_active_degree_);
  const std::size_t need = solo_row_ * static_cast<std::size_t>(workers);
  if (solo_scratch_.size() == need) {
    reuses.add();
    return;
  }
  // Re-sized only if the pool size changes between evaluates.
  solo_scratch_.resize(need);
  mem_solo_.set(static_cast<std::int64_t>(need * sizeof(T)));
  allocs.add();
}

template <typename T>
double WaWirelengthOp<T>::evaluate(std::span<const T> params,
                                   std::span<T> grad) {
  DP_ASSERT(params.size() == size() && grad.size() == size());
  static Counter calls("ops/wirelength/evaluate");
  static Counter vexp_calls("simd/vexp_calls");
  calls.add();
  std::fill(grad.begin(), grad.end(), T(0));
  const NetTopologyView<T> topo = topo_.view();
  ensureScratch(topo.numPins());
  std::fill(pin_grad_x_.begin(), pin_grad_x_.end(), T(0));
  std::fill(pin_grad_y_.begin(), pin_grad_y_.end(), T(0));

  const bool use_simd = options_.simd && simd::kEnabled;
  using NV = simd::NativeVec<T>;
  using SV = simd::ScalarVec<T, 1>;
  publishSimdWidth(use_simd ? simd::kNativeWidth<T> : 1);
  if (options_.kernel == WirelengthKernel::kMerged) {
    vexp_calls.add(vexp_calls_merged_);
  } else {
    vexp_calls.add(vexpCallsPerEvaluate(use_simd ? vexp_groups_native_
                                                 : vexp_groups_scalar_));
  }

  const T* x = params.data();
  const T* y = params.data() + num_nodes_;
  if (use_simd) {
    pin_tables_.template compute<NV>(x, y, pin_x_.data(), pin_y_.data());
  } else {
    pin_tables_.template compute<SV>(x, y, pin_x_.data(), pin_y_.data());
  }

  double total = 0.0;
  switch (options_.kernel) {
    case WirelengthKernel::kMerged: {
      // The merged pass scans every net's min/max anyway, so it sums the
      // HPWL alongside the WL.
      const MergedSums sums =
          use_simd ? evaluateMerged<NV>(topo) : evaluateMerged<SV>(topo);
      total = sums.wl;
      this->last_hpwl_ = sums.hpwl;
      break;
    }
    case WirelengthKernel::kNetByNet:
      total = use_simd ? evaluateNetByNet<NV>(topo)
                       : evaluateNetByNet<SV>(topo);
      break;
    case WirelengthKernel::kAtomic:
      total = use_simd ? evaluateAtomic<NV>(topo) : evaluateAtomic<SV>(topo);
      break;
    default:
      logFatal("unknown wirelength kernel");
  }
  if (options_.kernel != WirelengthKernel::kMerged) {
    this->last_hpwl_ = pinArrayHpwl(topo, pin_x_.data(), pin_y_.data());
  }
  // Shared backward tail: fold the per-pin gradients every kernel wrote
  // into per-node gradients in fixed pin order (deterministic, no
  // atomics).
  gatherPinGradient(topo, pin_grad_x_.data(), pin_grad_y_.data(),
                    grad.data(), grad.data() + num_nodes_);
  return total;
}

// Fused forward+backward (Alg. 2) in two shapes, one pool job:
//
//  * lane groups: width nets of one small degree d, one net per lane.
//    The d pins of every net are gathered into d vectors, and the
//    per-net sequence runs once for all lanes: min/max, the arguments
//    arg+ = (pos-max)/gamma and arg- = (min-pos)/gamma, 2*d vexp calls,
//    the b/c folds in pin order, k = c/b, the WL term, the backward.
//  * solo nets: the per-net lane loops over the net's pin range, with
//    one vexpArray over the net's 2*degree arguments per dimension.
//
// Both shapes compute each net exactly as a net-at-a-time loop would
// (vexp values do not depend on their lane), so the per-net results are
// bit-identical to it. They land in per-net arrays — WL terms of each
// dimension and the HPWL term — that are folded after the job exactly
// like a net-ordered reduction: per 64-net block, dim 0 then dim 1, and
// blocks in order. The task split (solo chunks, then group chunks) is
// fixed by the netlist, so results never depend on the thread count.
//
// WL per dim in argument space: with k± the a±-weighted mean of arg±
// (both <= 0), WL = (max - min) + gamma*(k+ + k-), and the pin gradient
// is a±/b± * (1 - k± + arg±), combined with the usual +/- signs.
//
// The exact HPWL rides along: weight * (x-span + y-span) for every net
// of degree >= 2 (ignored nets too), folded in the same 64-net blocks
// as netsHpwl; min/max are exact, so the sum is bit-equal to hpwl()
// (ops/net_topology).
template <typename T>
template <typename V>
typename WaWirelengthOp<T>::MergedSums WaWirelengthOp<T>::evaluateMerged(
    const NetTopologyView<T>& topo) {
  DP_ASSERT(V::kWidth == lane_width_);
  const Index num_nets = topo.numNets();
  const T inv_gamma = static_cast<T>(1.0 / gamma_);
  const T gamma = static_cast<T>(gamma_);
  ensureMergedWorkspace(num_nets, currentThreadPool().threads());

  const Index num_groups = static_cast<Index>(lane_degree_.size());
  const Index solo_tasks = static_cast<Index>(solo_task_begin_.size()) - 1;
  const Index group_tasks =
      (num_groups + kLaneGroupsPerTask - 1) / kLaneGroupsPerTask;
  // Solo chunks first: the widest nets are the longest tasks, and tasks
  // are claimed in index order.
  currentThreadPool().run(
      "ops/wl/merged", solo_tasks + group_tasks, [&](Index task, int worker) {
        if (task < solo_tasks) {
          T* row = solo_scratch_.data() +
                   solo_row_ * static_cast<std::size_t>(worker);
          for (Index k = solo_task_begin_[task];
               k < solo_task_begin_[task + 1]; ++k) {
            mergedSoloNet<V>(topo, solo_nets_[k], row, inv_gamma, gamma);
          }
          return;
        }
        const Index g0 = (task - solo_tasks) * kLaneGroupsPerTask;
        const Index g1 = std::min(num_groups, g0 + kLaneGroupsPerTask);
        for (Index g = g0; g < g1; ++g) {
          mergedLaneGroup<V>(topo, g, inv_gamma, gamma);
        }
      });

  // Nets without a term hold exact zeros, and a partial sum is never -0,
  // so adding them changes no bit.
  constexpr Index kSumBlock = 64;
  const T* wl_x = net_terms_.data();
  const T* wl_y = wl_x + num_nets;
  const T* hpwl = wl_y + num_nets;
  MergedSums sums;
  for (Index b0 = 0; b0 < num_nets; b0 += kSumBlock) {
    const Index b1 = std::min(num_nets, b0 + kSumBlock);
    double wl = 0.0;
    double hp = 0.0;
    for (Index e = b0; e < b1; ++e) {
      wl += static_cast<double>(wl_x[e]);
    }
    for (Index e = b0; e < b1; ++e) {
      wl += static_cast<double>(wl_y[e]);
      hp += static_cast<double>(hpwl[e]);
    }
    sums.wl += wl;
    sums.hpwl += hp;
  }
  return sums;
}

template <typename T>
template <typename V>
void WaWirelengthOp<T>::mergedLaneGroup(const NetTopologyView<T>& topo,
                                        Index group, T invGamma, T gamma) {
  constexpr int kW = V::kWidth;
  if constexpr (kW > 2) {
    const Index num_nets = topo.numNets();
    const Index degree = lane_degree_[group];
    const Index* nets = lane_nets_.data() + group * kW;
    Index begin[kW];
    for (int l = 0; l < kW; ++l) {
      begin[l] = topo.netBegin(nets[l]);
    }
    const V weight = V::gather(topo.netWeight.data(), nets);
    const V vig = V::broadcast(invGamma);
    const V vgamma = V::broadcast(gamma);
    // Dispatch to the degree's fully unrolled body (2 <= degree < kW).
    [&]<int... D>(std::integer_sequence<int, D...>) {
      (((D + 2 == degree) ? [&] {
         V span_x, span_y, wl;
         waLaneGroupDim<D + 2>(pin_x_.data(), begin, weight, vig, vgamma,
                               pin_grad_x_.data(), span_x, wl);
         wl.scatter(net_terms_.data(), nets);
         waLaneGroupDim<D + 2>(pin_y_.data(), begin, weight, vig, vgamma,
                               pin_grad_y_.data(), span_y, wl);
         wl.scatter(net_terms_.data() + num_nets, nets);
         (weight * (span_x + span_y))
             .scatter(net_terms_.data() + 2 * num_nets, nets);
       }()
                         : void()),
       ...);
    }(std::make_integer_sequence<int, kW - 2>{});
  }
}

template <typename T>
template <typename V>
void WaWirelengthOp<T>::mergedSoloNet(const NetTopologyView<T>& topo,
                                      Index e, T* row, T invGamma, T gamma) {
  constexpr Index kW = V::kWidth;
  const Index num_nets = topo.numNets();
  const Index begin = topo.netBegin(e);
  const Index end = topo.netEnd(e);
  const Index degree = end - begin;
  const bool active = !net_ignored_[e];
  const T weight = topo.netWeight[e];
  T* arg_plus = row;
  T* arg_minus = row + degree;
  T* a_plus = row + 2 * static_cast<std::size_t>(degree);
  T* a_minus = row + 3 * static_cast<std::size_t>(degree);
  T span_x = T(0);
  for (int dim = 0; dim < 2; ++dim) {
    const T* pos = dim == 0 ? pin_x_.data() : pin_y_.data();
    T* pin_grad = dim == 0 ? pin_grad_x_.data() : pin_grad_y_.data();
    T mn, mx;
    netMinMax<V>(pos, begin, end, mn, mx);
    if (dim == 0) {
      span_x = mx - mn;
    } else {
      net_terms_[2 * static_cast<std::size_t>(num_nets) + e] =
          weight * (span_x + (mx - mn));
    }
    if (!active) {
      continue;
    }
    if (degree >= kW) {
      const V vmax = V::broadcast(mx);
      const V vmin = V::broadcast(mn);
      const V vig = V::broadcast(invGamma);
      Index p = begin;
      for (; p + kW <= end; p += kW) {
        const V v = V::load(pos + p);
        ((v - vmax) * vig).store(arg_plus + (p - begin));
        ((vmin - v) * vig).store(arg_minus + (p - begin));
      }
      for (; p < end; ++p) {
        arg_plus[p - begin] = (pos[p] - mx) * invGamma;
        arg_minus[p - begin] = (mn - pos[p]) * invGamma;
      }
    } else {
      for (Index i = 0; i < degree; ++i) {
        arg_plus[i] = (pos[begin + i] - mx) * invGamma;
        arg_minus[i] = (mn - pos[begin + i]) * invGamma;
      }
    }
    // arg+ and arg- are adjacent: one sweep over both.
    simd::vexpArray<V>(row, a_plus, 2 * degree);

    // Fold b/c in argument space, accumulate WL, backward.
    T bp, bm, cp, cm;
    if (degree >= kW) {
      V vbp = V::load(a_plus);
      V vbm = V::load(a_minus);
      V vcp = V::load(arg_plus) * vbp;
      V vcm = V::load(arg_minus) * vbm;
      Index i = kW;
      for (; i + kW <= degree; i += kW) {
        const V ap = V::load(a_plus + i);
        const V am = V::load(a_minus + i);
        vbp = vbp + ap;
        vbm = vbm + am;
        vcp = fma(V::load(arg_plus + i), ap, vcp);
        vcm = fma(V::load(arg_minus + i), am, vcm);
      }
      bp = hsum(vbp);
      bm = hsum(vbm);
      cp = hsum(vcp);
      cm = hsum(vcm);
      for (; i < degree; ++i) {
        bp += a_plus[i];
        bm += a_minus[i];
        cp += arg_plus[i] * a_plus[i];
        cm += arg_minus[i] * a_minus[i];
      }
    } else {
      bp = a_plus[0];
      bm = a_minus[0];
      cp = arg_plus[0] * a_plus[0];
      cm = arg_minus[0] * a_minus[0];
      for (Index i = 1; i < degree; ++i) {
        bp += a_plus[i];
        bm += a_minus[i];
        cp += arg_plus[i] * a_plus[i];
        cm += arg_minus[i] * a_minus[i];
      }
    }
    const T k_plus = cp / bp;    // arg-space mean, <= 0
    const T k_minus = cm / bm;   // arg-space mean, <= 0
    net_terms_[dim * static_cast<std::size_t>(num_nets) + e] =
        weight * ((mx - mn) + gamma * (k_plus + k_minus));

    // Backward fused into the same kernel; each pin entry is written by
    // exactly one net, so no synchronization.
    const T inv_bp = T(1) / bp;
    const T inv_bm = T(1) / bm;
    if (degree >= kW) {
      const V vibp = V::broadcast(inv_bp);
      const V vibm = V::broadcast(inv_bm);
      const V vkp = V::broadcast(T(1) - k_plus);
      const V vkm = V::broadcast(T(1) - k_minus);
      const V vw = V::broadcast(weight);
      Index i = 0;
      for (; i + kW <= degree; i += kW) {
        const V gp =
            V::load(a_plus + i) * vibp * (vkp + V::load(arg_plus + i));
        const V gm =
            V::load(a_minus + i) * vibm * (vkm + V::load(arg_minus + i));
        (vw * (gp - gm)).store(pin_grad + begin + i);
      }
      for (; i < degree; ++i) {
        const T gp = a_plus[i] * inv_bp * (T(1) - k_plus + arg_plus[i]);
        const T gm = a_minus[i] * inv_bm * (T(1) - k_minus + arg_minus[i]);
        pin_grad[begin + i] = weight * (gp - gm);
      }
    } else {
      for (Index i = 0; i < degree; ++i) {
        const T gp = a_plus[i] * inv_bp * (T(1) - k_plus + arg_plus[i]);
        const T gm = a_minus[i] * inv_bm * (T(1) - k_minus + arg_minus[i]);
        pin_grad[begin + i] = weight * (gp - gm);
      }
    }
  }
}

// Net-level forward and backward as separate passes with all intermediates
// stored per pin / per net (the DATE'18-style baseline in Fig. 10).
template <typename T>
template <typename V>
double WaWirelengthOp<T>::evaluateNetByNet(const NetTopologyView<T>& topo) {
  const Index num_nets = topo.numNets();
  const Index num_pins = topo.numPins();
  const T inv_gamma = static_cast<T>(1.0 / gamma_);
  ensureKernelScratch(num_pins, num_nets);

  double total = 0.0;
  // Forward pass: store every intermediate.
  for (int dim = 0; dim < 2; ++dim) {
    const T* pos = dim == 0 ? pin_x_.data() : pin_y_.data();
    T* a_plus = a_plus_.data() + dim * num_pins;
    T* a_minus = a_minus_.data() + dim * num_pins;
    T* b_plus = b_plus_.data() + dim * num_nets;
    T* b_minus = b_minus_.data() + dim * num_nets;
    T* c_plus = c_plus_.data() + dim * num_nets;
    T* c_minus = c_minus_.data() + dim * num_nets;
    T* pmax = x_max_.data() + dim * num_nets;
    T* pmin = x_min_.data() + dim * num_nets;

    total += parallelReduce(
        "ops/wl/nbn_fwd", num_nets, 64, 0.0,
        [&](Index block_begin, Index block_end) {
          double partial = 0.0;
          for (Index e = block_begin; e < block_end; ++e) {
            if (net_ignored_[e]) {
              continue;
            }
            const Index begin = topo.netBegin(e);
            const Index end = topo.netEnd(e);
            if (end - begin < 2) {
              continue;
            }
            T mn, mx;
            netMinMax<V>(pos, begin, end, mn, mx);
            pmax[e] = mx;
            pmin[e] = mn;
            T bp, bm, cp, cm;
            waNetForward<V>(pos, begin, end, mx, mn, inv_gamma,
                            a_plus + begin, a_minus + begin, bp, bm, cp, cm);
            b_plus[e] = bp;
            b_minus[e] = bm;
            c_plus[e] = cp;
            c_minus[e] = cm;
            partial += static_cast<double>(
                topo.netWeight[e] * ((cp / bp + mx) - (cm / bm + mn)));
          }
          return partial;
        },
        [](double acc, double partial) { return acc + partial; });
  }

  // Backward pass: re-read the stored intermediates; every pin-gradient
  // entry belongs to exactly one net, so the net loop needs no atomics.
  for (int dim = 0; dim < 2; ++dim) {
    const T* pos = dim == 0 ? pin_x_.data() : pin_y_.data();
    const T* a_plus = a_plus_.data() + dim * num_pins;
    const T* a_minus = a_minus_.data() + dim * num_pins;
    const T* b_plus = b_plus_.data() + dim * num_nets;
    const T* b_minus = b_minus_.data() + dim * num_nets;
    const T* c_plus = c_plus_.data() + dim * num_nets;
    const T* c_minus = c_minus_.data() + dim * num_nets;
    const T* pmax = x_max_.data() + dim * num_nets;
    const T* pmin = x_min_.data() + dim * num_nets;
    T* pin_grad = dim == 0 ? pin_grad_x_.data() : pin_grad_y_.data();

    parallelFor("ops/wl/nbn_bwd", num_nets, 64, [&](Index e) {
      if (net_ignored_[e]) {
        return;
      }
      const Index begin = topo.netBegin(e);
      const Index end = topo.netEnd(e);
      if (end - begin < 2) {
        return;
      }
      waNetBackward<V>(pos, begin, end, pmax[e], pmin[e], b_plus[e],
                       b_minus[e], c_plus[e] / b_plus[e],
                       c_minus[e] / b_minus[e], inv_gamma, topo.netWeight[e],
                       a_plus + begin, a_minus + begin, pin_grad);
    });
  }
  return total;
}

// The fine-grained many-pass strategy (Algorithm 1): max/min, a, b, c, WL,
// and gradient are each a separate kernel pass with every intermediate
// materialized in global memory — the memory-traffic profile Fig. 10
// measures. The GPU original reduces those passes with atomics; here each
// per-net reduction scans the net's contiguous pin range in fixed order
// instead, which preserves the pass structure while making the result
// independent of scheduling. The a and gradient passes iterate net blocks
// (rather than the GPU's pin threads) so each net's pin strip feeds vexp
// in full lanes.
template <typename T>
template <typename V>
double WaWirelengthOp<T>::evaluateAtomic(const NetTopologyView<T>& topo) {
  const Index num_nets = topo.numNets();
  const Index num_pins = topo.numPins();
  const T inv_gamma = static_cast<T>(1.0 / gamma_);
  ensureKernelScratch(num_pins, num_nets);

  double total = 0.0;
  for (int dim = 0; dim < 2; ++dim) {
    const T* pos = dim == 0 ? pin_x_.data() : pin_y_.data();
    T* pin_grad = dim == 0 ? pin_grad_x_.data() : pin_grad_y_.data();

    // x+/x- kernel.
    parallelFor("ops/wl/atomic_minmax", num_nets, 128, [&](Index e) {
      T mx = -std::numeric_limits<T>::infinity();
      T mn = std::numeric_limits<T>::infinity();
      if (!net_ignored_[e]) {
        netMinMax<V>(pos, topo.netBegin(e), topo.netEnd(e), mn, mx);
      }
      x_max_[e] = mx;
      x_min_[e] = mn;
    });
    // a+/a- kernel (reads the stored max/min). Inactive nets store zeros
    // so the downstream sum kernels read well-defined values.
    parallelFor("ops/wl/atomic_a", num_nets, 128, [&](Index e) {
      const Index begin = topo.netBegin(e);
      const Index end = topo.netEnd(e);
      if (net_ignored_[e] || end - begin < 2) {
        for (Index p = begin; p < end; ++p) {
          a_plus_[p] = 0;
          a_minus_[p] = 0;
        }
        return;
      }
      waNetExp<V>(pos, begin, end, x_max_[e], x_min_[e], inv_gamma,
                  a_plus_.data() + begin, a_minus_.data() + begin);
    });
    // b kernel (per-net sum of the stored a terms).
    parallelFor("ops/wl/atomic_b", num_nets, 128, [&](Index e) {
      sumPairRange<V>(a_plus_.data(), a_minus_.data(), topo.netBegin(e),
                      topo.netEnd(e), b_plus_[e], b_minus_[e]);
    });
    // c kernel (per-net sum, re-reads positions and the a terms).
    parallelFor("ops/wl/atomic_c", num_nets, 128, [&](Index e) {
      if (net_ignored_[e]) {
        c_plus_[e] = 0;
        c_minus_[e] = 0;
        return;
      }
      waNetC<V>(pos, a_plus_.data(), a_minus_.data(), topo.netBegin(e),
                topo.netEnd(e), x_max_[e], x_min_[e], c_plus_[e],
                c_minus_[e]);
    });
    // WL kernel + ordered reduction.
    total += parallelReduce(
        "ops/wl/atomic_wl", num_nets, 256, 0.0,
        [&](Index block_begin, Index block_end) {
          double partial = 0.0;
          for (Index e = block_begin; e < block_end; ++e) {
            if (net_ignored_[e] || topo.netDegree(e) < 2) {
              continue;
            }
            const T wl = (c_plus_[e] / b_plus_[e] + x_max_[e]) -
                         (c_minus_[e] / b_minus_[e] + x_min_[e]);
            partial += static_cast<double>(topo.netWeight[e] * wl);
          }
          return partial;
        },
        [](double acc, double partial) { return acc + partial; });
    // Gradient kernel (disjoint per-pin writes).
    parallelFor("ops/wl/atomic_grad", num_nets, 128, [&](Index e) {
      if (net_ignored_[e] || topo.netDegree(e) < 2) {
        return;
      }
      const Index begin = topo.netBegin(e);
      const Index end = topo.netEnd(e);
      waNetBackward<V>(pos, begin, end, x_max_[e], x_min_[e], b_plus_[e],
                       b_minus_[e], c_plus_[e] / b_plus_[e],
                       c_minus_[e] / b_minus_[e], inv_gamma,
                       topo.netWeight[e], a_plus_.data() + begin,
                       a_minus_.data() + begin, pin_grad);
    });
  }
  return total;
}

template <typename T>
double WaWirelengthOp<T>::hpwl(std::span<const T> params) const {
  static Counter calls("ops/wirelength/hpwl");
  calls.add();
  return topologyHpwl(topo_.view(), params, num_nodes_);
}

// ---------------------------------------------------------------------------
// LseWirelengthOp
// ---------------------------------------------------------------------------

template <typename T>
LseWirelengthOp<T>::LseWirelengthOp(const Database& db, Index numNodes,
                                    Index ignoreNetDegree, bool simd)
    : num_nodes_(numNodes),
      ignore_net_degree_(ignoreNetDegree),
      simd_(simd),
      topo_(db) {
  const NetTopologyView<T> topo = topo_.view();
  constexpr Index kW = simd::kNativeWidth<T>;
  for (Index e = 0; e < topo.numNets(); ++e) {
    const Index degree = topo.netDegree(e);
    if (degree < 2 ||
        (ignore_net_degree_ > 0 && degree > ignore_net_degree_)) {
      continue;
    }
    max_active_degree_ = std::max(max_active_degree_, degree);
    vexp_groups_native_ += (degree + kW - 1) / kW;
    vexp_groups_scalar_ += degree;
  }
  pin_tables_.build(topo);
  pin_x_.resize(db.numPins());
  pin_y_.resize(db.numPins());
  pin_grad_x_.resize(db.numPins());
  pin_grad_y_.resize(db.numPins());
}

template <typename T>
void LseWirelengthOp<T>::ensureScratch(int workers) {
  static Counter allocs("ops/wirelength/lse_ws_alloc");
  static Counter reuses("ops/wirelength/lse_ws_reuse");
  lse_row_ = 2 * static_cast<std::size_t>(max_active_degree_);
  const std::size_t need = lse_row_ * static_cast<std::size_t>(workers);
  if (lse_scratch_.size() == need) {
    reuses.add();
    return;
  }
  lse_scratch_.resize(need);
  mem_lse_.set(static_cast<std::int64_t>(need * sizeof(T)));
  allocs.add();
}

template <typename T>
double LseWirelengthOp<T>::evaluate(std::span<const T> params,
                                    std::span<T> grad) {
  DP_ASSERT(params.size() == size() && grad.size() == size());
  static Counter calls("ops/wirelength/evaluate");
  static Counter vexp_calls("simd/vexp_calls");
  calls.add();
  std::fill(grad.begin(), grad.end(), T(0));
  std::fill(pin_grad_x_.begin(), pin_grad_x_.end(), T(0));
  std::fill(pin_grad_y_.begin(), pin_grad_y_.end(), T(0));
  const NetTopologyView<T> topo = topo_.view();

  const bool use_simd = simd_ && simd::kEnabled;
  using NV = simd::NativeVec<T>;
  using SV = simd::ScalarVec<T, 1>;
  publishSimdWidth(use_simd ? simd::kNativeWidth<T> : 1);
  vexp_calls.add(vexpCallsPerEvaluate(use_simd ? vexp_groups_native_
                                               : vexp_groups_scalar_));

  const T* x = params.data();
  const T* y = params.data() + num_nodes_;
  double total;
  if (use_simd) {
    pin_tables_.template compute<NV>(x, y, pin_x_.data(), pin_y_.data());
    total = evaluateImpl<NV>(topo);
  } else {
    pin_tables_.template compute<SV>(x, y, pin_x_.data(), pin_y_.data());
    total = evaluateImpl<SV>(topo);
  }
  this->last_hpwl_ = pinArrayHpwl(topo, pin_x_.data(), pin_y_.data());
  gatherPinGradient(topo, pin_grad_x_.data(), pin_grad_y_.data(),
                    grad.data(), grad.data() + num_nodes_);
  return total;
}

template <typename T>
template <typename V>
double LseWirelengthOp<T>::evaluateImpl(const NetTopologyView<T>& topo) {
  const Index num_nets = topo.numNets();
  const T inv_gamma = static_cast<T>(1.0 / gamma_);
  const T gamma = static_cast<T>(gamma_);
  ensureScratch(currentThreadPool().threads());
  return parallelReduceBlocked(
      "ops/wl/lse", num_nets, 64, 0.0,
      [&](Index block_begin, Index block_end, int worker) {
        T* row = lse_scratch_.data() +
                 lse_row_ * static_cast<std::size_t>(worker);
        double partial = 0.0;
        for (Index e = block_begin; e < block_end; ++e) {
          const Index begin = topo.netBegin(e);
          const Index end = topo.netEnd(e);
          const Index degree = end - begin;
          if (degree < 2 ||
              (ignore_net_degree_ > 0 && degree > ignore_net_degree_)) {
            continue;
          }
          const T weight = topo.netWeight[e];
          T* a_plus = row;
          T* a_minus = row + degree;
          for (int dim = 0; dim < 2; ++dim) {
            const T* pos = dim == 0 ? pin_x_.data() : pin_y_.data();
            T* pin_grad =
                dim == 0 ? pin_grad_x_.data() : pin_grad_y_.data();
            T pmin, pmax;
            netMinMax<V>(pos, begin, end, pmin, pmax);
            // The forward stores the exponentials it sums; the backward
            // re-reads them (the pre-SIMD code recomputed every exp).
            T b_plus, b_minus, c_unused_p, c_unused_m;
            waNetForward<V>(pos, begin, end, pmax, pmin, inv_gamma, a_plus,
                            a_minus, b_plus, b_minus, c_unused_p,
                            c_unused_m);
            const T wl = gamma * (std::log(b_plus) + std::log(b_minus)) +
                         (pmax - pmin);
            partial += static_cast<double>(weight * wl);
            lseNetBackward<V>(begin, end, b_plus, b_minus, weight, a_plus,
                              a_minus, pin_grad);
          }
        }
        return partial;
      },
      [](double acc, double partial) { return acc + partial; });
}

template <typename T>
double LseWirelengthOp<T>::hpwl(std::span<const T> params) const {
  static Counter calls("ops/wirelength/hpwl");
  calls.add();
  return topologyHpwl(topo_.view(), params, num_nodes_);
}

#define DP_INSTANTIATE_WL(T)        \
  template struct PinPositionTables<T>; \
  template class WaWirelengthOp<T>; \
  template class LseWirelengthOp<T>;

DP_INSTANTIATE_WL(float)
DP_INSTANTIATE_WL(double)

#undef DP_INSTANTIATE_WL

}  // namespace dreamplace
