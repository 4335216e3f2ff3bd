#include "ops/wirelength.h"

#include <cmath>
#include <limits>

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
  // Merged-kernel block geometry: blocks are the aligned kMergedGrain
  // chunks parallelReduceBlocked hands out, so both the scratch size and
  // the vexp call counts are fixed at construction. Ignored nets keep
  // their arg slots (zero-filled at evaluate), so block pin strips stay
  // contiguous.
  for (Index b0 = 0; b0 < topo.numNets(); b0 += kMergedGrain) {
    const Index b1 = std::min(topo.numNets(), b0 + kMergedGrain);
    const Index block_pins = topo.netEnd(b1 - 1) - topo.netBegin(b0);
    merged_block_pins_ = std::max(merged_block_pins_, block_pins);
    vexp_calls_merged_native_ += 2 * ((2 * block_pins + kW - 1) / kW);
    vexp_calls_merged_scalar_ +=
        2 * (2 * static_cast<std::int64_t>(block_pins));
  }
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
void WaWirelengthOp<T>::ensureMergedScratch(int workers) {
  static Counter allocs("ops/wirelength/merged_ws_alloc");
  static Counter reuses("ops/wirelength/merged_ws_reuse");
  // arg+/arg-/a+/a- strips for the widest block, then per-net min/max.
  merged_row_ = 4 * static_cast<std::size_t>(merged_block_pins_) +
                2 * static_cast<std::size_t>(kMergedGrain);
  const std::size_t need = merged_row_ * static_cast<std::size_t>(workers);
  if (merged_scratch_.size() == need) {
    reuses.add();
    return;
  }
  // Re-sized only if the pool size changes between evaluates.
  merged_scratch_.resize(need);
  mem_merged_.set(static_cast<std::int64_t>(need * sizeof(T)));
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
    vexp_calls.add(use_simd ? vexp_calls_merged_native_
                            : vexp_calls_merged_scalar_);
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

// Fused forward+backward, all per-net intermediates in worker-private
// scratch (Alg. 2), restructured around the block's exp arguments:
//
//   pass 1  per net: min/max, then arg+ = (pos-max)/gamma and
//           arg- = (min-pos)/gamma into the block's contiguous strips,
//   pass 2  ONE vexpArray over the block's 2*pins arguments,
//   pass 3  per net: fold b/c sums in argument space, accumulate WL,
//           write the pin gradients.
//
// Batching the exp is what keeps the vector lanes full: most nets have
// 2-5 pins (fewer than a lane), so a per-net vexp pads most of its lanes
// with dead elements, while the block sweep wastes at most one tail lane
// per 2*blockPins elements. Working in argument space (everything is
// pre-divided by gamma) also drops the per-lane multiplies the
// position-space form needed in the c sums and the backward.
//
// WL per dim in argument space: with k± the a±-weighted mean of arg±
// (both <= 0), WL = (max - min) + gamma*(k+ + k-), and the pin gradient
// is a±/b± * (1 - k± + arg±), combined with the usual +/- signs.
//
// Net blocks are claimed dynamically (the paper's chunk heuristic for
// heterogeneous net degrees); block boundaries are the aligned
// kMergedGrain chunks, so strip layout and lane decomposition depend
// only on the netlist, never the thread count, and per-block WL
// partials combine in block order — the total matches the serial net
// order exactly.
//
// The exact HPWL rides along: dim 0 keeps each net's x-span, dim 1 adds
// weight * (x-span + y-span) in net order for every net of degree >= 2
// (ignored nets too). kMergedGrain equals netsHpwl's 64-net block, and
// min/max are exact, so the sum is bit-equal to hpwl() (ops/net_topology).
template <typename T>
template <typename V>
typename WaWirelengthOp<T>::MergedSums WaWirelengthOp<T>::evaluateMerged(
    const NetTopologyView<T>& topo) {
  constexpr Index kW = V::kWidth;
  const Index num_nets = topo.numNets();
  const T inv_gamma = static_cast<T>(1.0 / gamma_);
  const T gamma = static_cast<T>(gamma_);
  ensureMergedScratch(currentThreadPool().threads());

  return parallelReduceBlocked(
      "ops/wl/merged", num_nets, kMergedGrain, MergedSums{},
      [&](Index block_begin, Index block_end, int worker) {
        T* row = merged_scratch_.data() +
                 merged_row_ * static_cast<std::size_t>(worker);
        const Index pins_begin = topo.netBegin(block_begin);
        const Index pins = topo.netEnd(block_end - 1) - pins_begin;
        // Strips are packed by this block's pin count; the per-net
        // min/max slots sit at the row's fixed tail.
        T* arg_plus = row;
        T* arg_minus = row + pins;
        T* a_plus = row + 2 * static_cast<std::size_t>(pins);
        T* a_minus = row + 3 * static_cast<std::size_t>(pins);
        T* mn_net = row + 4 * static_cast<std::size_t>(merged_block_pins_);
        T* mx_net = mn_net + kMergedGrain;
        T span_x[kMergedGrain];
        MergedSums partial;
        for (int dim = 0; dim < 2; ++dim) {
          const T* pos = dim == 0 ? pin_x_.data() : pin_y_.data();
          T* pin_grad = dim == 0 ? pin_grad_x_.data() : pin_grad_y_.data();

          // Pass 1: min/max and exp arguments.
          for (Index e = block_begin; e < block_end; ++e) {
            const Index begin = topo.netBegin(e);
            const Index end = topo.netEnd(e);
            const Index degree = end - begin;
            const Index lo = begin - pins_begin;
            const bool active = !net_ignored_[e] && degree >= 2;
            if (!active) {
              // Keep the strip well-defined: pass 2 exps every slot, and
              // stale bytes could be subnormal (a many-cycle stall per
              // touch on x86) or NaN.
              for (Index i = 0; i < degree; ++i) {
                arg_plus[lo + i] = T(0);
                arg_minus[lo + i] = T(0);
              }
              if (degree < 2) {
                continue;
              }
            }
            T mn, mx;
            netMinMax<V>(pos, begin, end, mn, mx);
            if (dim == 0) {
              span_x[e - block_begin] = mx - mn;
            } else {
              partial.hpwl += static_cast<double>(
                  topo.netWeight[e] * (span_x[e - block_begin] + (mx - mn)));
            }
            if (!active) {
              continue;
            }
            if (degree >= kW) {
              const V vmax = V::broadcast(mx);
              const V vmin = V::broadcast(mn);
              const V vig = V::broadcast(inv_gamma);
              Index p = begin;
              for (; p + kW <= end; p += kW) {
                const V v = V::load(pos + p);
                ((v - vmax) * vig).store(arg_plus + (p - pins_begin));
                ((vmin - v) * vig).store(arg_minus + (p - pins_begin));
              }
              for (; p < end; ++p) {
                arg_plus[p - pins_begin] = (pos[p] - mx) * inv_gamma;
                arg_minus[p - pins_begin] = (mn - pos[p]) * inv_gamma;
              }
            } else {
              for (Index i = 0; i < degree; ++i) {
                arg_plus[lo + i] = (pos[begin + i] - mx) * inv_gamma;
                arg_minus[lo + i] = (mn - pos[begin + i]) * inv_gamma;
              }
            }
            mn_net[e - block_begin] = mn;
            mx_net[e - block_begin] = mx;
          }

          // Pass 2: the block's whole exp workload in one lane sweep
          // (arg+ and arg- strips are adjacent, so this is one range).
          simd::vexpArray<V>(row, a_plus, 2 * pins);

          // Pass 3: fold b/c in argument space, accumulate WL, backward.
          for (Index e = block_begin; e < block_end; ++e) {
            const Index begin = topo.netBegin(e);
            const Index end = topo.netEnd(e);
            const Index degree = end - begin;
            if (net_ignored_[e] || degree < 2) {
              continue;
            }
            const Index lo = begin - pins_begin;
            const T weight = topo.netWeight[e];
            T bp, bm, cp, cm;
            if (degree >= kW) {
              V vbp = V::load(a_plus + lo);
              V vbm = V::load(a_minus + lo);
              V vcp = V::load(arg_plus + lo) * vbp;
              V vcm = V::load(arg_minus + lo) * vbm;
              Index i = kW;
              for (; i + kW <= degree; i += kW) {
                const V ap = V::load(a_plus + lo + i);
                const V am = V::load(a_minus + lo + i);
                vbp = vbp + ap;
                vbm = vbm + am;
                vcp = fma(V::load(arg_plus + lo + i), ap, vcp);
                vcm = fma(V::load(arg_minus + lo + i), am, vcm);
              }
              bp = hsum(vbp);
              bm = hsum(vbm);
              cp = hsum(vcp);
              cm = hsum(vcm);
              for (; i < degree; ++i) {
                bp += a_plus[lo + i];
                bm += a_minus[lo + i];
                cp += arg_plus[lo + i] * a_plus[lo + i];
                cm += arg_minus[lo + i] * a_minus[lo + i];
              }
            } else {
              bp = a_plus[lo];
              bm = a_minus[lo];
              cp = arg_plus[lo] * a_plus[lo];
              cm = arg_minus[lo] * a_minus[lo];
              for (Index i = 1; i < degree; ++i) {
                bp += a_plus[lo + i];
                bm += a_minus[lo + i];
                cp += arg_plus[lo + i] * a_plus[lo + i];
                cm += arg_minus[lo + i] * a_minus[lo + i];
              }
            }
            const T k_plus = cp / bp;    // arg-space mean, <= 0
            const T k_minus = cm / bm;   // arg-space mean, <= 0
            const T span = mx_net[e - block_begin] - mn_net[e - block_begin];
            partial.wl += static_cast<double>(
                weight * (span + gamma * (k_plus + k_minus)));

            // Backward fused into the same kernel; each pin entry is
            // written by exactly one net, so no synchronization.
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
                const V gp = V::load(a_plus + lo + i) * vibp *
                             (vkp + V::load(arg_plus + lo + i));
                const V gm = V::load(a_minus + lo + i) * vibm *
                             (vkm + V::load(arg_minus + lo + i));
                (vw * (gp - gm)).store(pin_grad + begin + i);
              }
              for (; i < degree; ++i) {
                const T gp =
                    a_plus[lo + i] * inv_bp * (T(1) - k_plus + arg_plus[lo + i]);
                const T gm = a_minus[lo + i] * inv_bm *
                             (T(1) - k_minus + arg_minus[lo + i]);
                pin_grad[begin + i] = weight * (gp - gm);
              }
            } else {
              for (Index i = 0; i < degree; ++i) {
                const T gp =
                    a_plus[lo + i] * inv_bp * (T(1) - k_plus + arg_plus[lo + i]);
                const T gm = a_minus[lo + i] * inv_bm *
                             (T(1) - k_minus + arg_minus[lo + i]);
                pin_grad[begin + i] = weight * (gp - gm);
              }
            }
          }
        }
        return partial;
      },
      [](MergedSums acc, MergedSums partial) {
        return MergedSums{acc.wl + partial.wl, acc.hpwl + partial.hpwl};
      });
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
