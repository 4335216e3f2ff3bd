// Wirelength operators (paper Sec. III-A).
//
// The weighted-average (WA) wirelength op is provided in the three kernel
// strategies the paper compares in Fig. 10:
//  * kNetByNet — net-level parallelism with separate forward/backward
//    passes that materialize the a/b/c intermediates in memory,
//  * kAtomic   — the fine-grained many-pass strategy (Algorithm 1): every
//    intermediate (max/min, a, b, c, gradient) is produced by its own
//    kernel pass through global memory. On the GPU those passes reduce
//    with atomics; this CPU realization keeps the pass structure and
//    memory traffic but reduces per net in fixed pin order, so results
//    are deterministic for any thread count,
//  * kMerged   — fused forward+backward with all intermediates kept in
//    kernel-local scratch (Algorithm 2); the default. The CPU realization
//    batches nets in blocks of kMergedGrain and runs every exp argument
//    of a block through one vexpArray sweep, so the exp work runs in full
//    vector lanes even though ~70% of nets have fewer pins than a lane.
// The log-sum-exp (LSE) wirelength is also implemented, as in the paper.
//
// Every kernel's inner loops are written against the common/simd.h
// vector layer and instantiated twice: once with NativeVec<T> (the
// polynomial vexp, lane-parallel min/max/accumulate) and once with
// ScalarVec<T, 1> (libm std::exp, the pre-SIMD numerics). Options::simd
// picks the path at runtime, so one binary can bench and cross-check
// both; -DDREAMPLACE_SIMD=OFF builds only ever run the scalar family.
// Lane decomposition of a net's pin range depends only on the net degree
// (docs/SIMD.md), so the thread-count bit-identity contract of
// docs/PARALLEL.md is untouched.
//
// All strategies consume the same NetTopologyView (ops/net_topology.h),
// so they are guaranteed to agree on the flattened netlist.
//
// Parameter layout shared by all placement ops: params[0..n) are node
// center x coordinates, params[n..2n) node center y coordinates, where
// nodes are the database's movable cells [0, numMovable) followed by any
// filler cells (fillers carry no pins and therefore no wirelength
// gradient). Pins on fixed cells contribute at their static database
// positions.
#pragma once

#include <span>
#include <vector>

#include "autograd/objective.h"
#include "common/memory.h"
#include "db/database.h"
#include "ops/net_topology.h"

namespace dreamplace {

enum class WirelengthKernel { kNetByNet, kAtomic, kMerged };
enum class WirelengthModel { kWeightedAverage, kLogSumExp };

/// Common interface of the smooth wirelength operators: a differentiable
/// objective plus the gamma smoothness knob and an exact-HPWL probe. The
/// global placer is written against this base so the wirelength model is
/// a configuration choice (paper Sec. III-A: WA and LSE are both
/// implemented in the framework).
template <typename T>
class WirelengthOp : public ObjectiveFunction<T> {
 public:
  virtual void setGamma(double gamma) = 0;
  virtual double gamma() const = 0;
  /// Exact HPWL at the given parameters (monitoring; not differentiable).
  virtual double hpwl(std::span<const T> params) const = 0;
  /// Exact HPWL at the parameters of the last evaluate(), taken from the
  /// pin positions that evaluate computed anyway; bit-equal to hpwl() at
  /// the same (finite) point. 0 before the first evaluate().
  double lastHpwl() const { return last_hpwl_; }

 protected:
  double last_hpwl_ = 0.0;
};

/// Precomputed pin-position tables: branch-free form of
/// "movable pins follow their node, fixed pins sit still", shared by the
/// WA and LSE ops. pin = sel * node_coord + base, where sel is 1/0 and
/// base is the pin offset (movable) or the static position (fixed) — the
/// select becomes a lane multiply, and the result is bit-identical to
/// the branchy scalar form (sel and base are exact).
template <typename T>
struct PinPositionTables {
  std::vector<Index> gatherNode;  ///< pinNode, or 0 for fixed pins.
  std::vector<T> sel;             ///< 1 for movable pins, 0 for fixed.
  std::vector<T> baseX, baseY;    ///< Offset (movable) or position (fixed).

  void build(const NetTopologyView<T>& topo);
  /// pinX[p] = sel[p]*x[gatherNode[p]] + baseX[p] (same for y), lane
  /// blocks of V::kWidth, parallel over pins.
  template <typename V>
  void compute(const T* x, const T* y, T* pinX, T* pinY) const;
};

template <typename T>
class WaWirelengthOp final : public WirelengthOp<T> {
 public:
  struct Options {
    WirelengthKernel kernel = WirelengthKernel::kMerged;
    /// Nets with more pins than this are skipped (contest convention for
    /// huge fanout nets like clocks); <= 0 disables the cutoff.
    Index ignoreNetDegree = 0;
    /// Run the NativeVec kernels (polynomial vexp). Off = ScalarVec
    /// kernels with libm std::exp — the comparison row of bench_fig10
    /// and the only path in -DDREAMPLACE_SIMD=OFF builds.
    bool simd = true;
  };

  WaWirelengthOp(const Database& db, Index numNodes, Options options = {});

  void setGamma(double gamma) override { gamma_ = gamma; }
  double gamma() const override { return gamma_; }

  /// Switches the kernel strategy between evaluates (benching, A/B
  /// comparisons). All strategies share one intermediate workspace sized
  /// to the largest footprint, so switching never reallocates.
  void setKernel(WirelengthKernel kernel) { options_.kernel = kernel; }
  WirelengthKernel kernel() const { return options_.kernel; }

  std::size_t size() const override {
    return 2 * static_cast<std::size_t>(num_nodes_);
  }
  double evaluate(std::span<const T> params, std::span<T> grad) override;

  double hpwl(std::span<const T> params) const override;

  /// The flattened netlist all kernel strategies consume.
  NetTopologyView<T> topology() const { return topo_.view(); }

 private:
  template <typename V>
  double evaluateMerged(const NetTopologyView<T>& topo);
  template <typename V>
  double evaluateNetByNet(const NetTopologyView<T>& topo);
  template <typename V>
  double evaluateAtomic(const NetTopologyView<T>& topo);

  /// Sizes the per-pin gradient scratch on first use; reports allocation
  /// vs. reuse through the counter registry so the regression gate can
  /// pin "allocated once, then reused".
  void ensureScratch(Index numPins);
  /// Sizes the kNetByNet/kAtomic intermediate arrays once, to the larger
  /// (net-by-net) footprint, so alternating kernel strategies on one op
  /// reuses instead of churning reallocations. Counted like
  /// ensureScratch (ops/wirelength/kernel_ws_alloc|reuse).
  void ensureKernelScratch(Index numPins, Index numNets);
  /// Per-worker block rows for the merged kernel: arg+/arg-/a+/a- strips
  /// for the largest net block plus per-net min/max, sized threads x
  /// (4*maxBlockPins + 2*kMergedGrain). Owned by the op (not
  /// thread_local) so the bytes show up under the
  /// ops/wirelength/merged_scratch memory key and die with the op.
  void ensureMergedScratch(int workers);

  Index num_nodes_ = 0;
  Options options_;
  double gamma_ = 1.0;

  NetTopology<T> topo_;            // flat copies for kernel speed
  std::vector<char> net_ignored_;
  PinPositionTables<T> pin_tables_;
  Index max_active_degree_ = 0;    ///< Max degree over non-ignored nets.
  /// Per-evaluate vexp invocation counts (simd/vexp_calls), precomputed
  /// for both widths at construction — the active net set is fixed. The
  /// net-by-net and atomic kernels exp per net: one vector call per lane
  /// group per sign per dimension, 4 * sum over active nets of
  /// ceil(degree / width). The merged kernel exps per net block instead
  /// (one vexpArray over a block's 2*pins arguments per dimension), so
  /// its counts are 2 * sum over blocks of ceil(2*blockPins / width).
  std::int64_t vexp_groups_native_ = 0;
  std::int64_t vexp_groups_scalar_ = 0;
  std::int64_t vexp_calls_merged_native_ = 0;
  std::int64_t vexp_calls_merged_scalar_ = 0;
  /// Merged-kernel batching geometry: nets are blocked by kMergedGrain
  /// (also the parallel grain, so block boundaries depend only on the
  /// net count) and merged_block_pins_ is the widest block's pin strip.
  static constexpr Index kMergedGrain = 64;
  Index merged_block_pins_ = 0;

  // Workspaces.
  std::vector<T> pin_x_;
  std::vector<T> pin_y_;
  // Per-pin gradient scratch shared by every kernel strategy: the
  // backward passes write disjoint pin entries (no atomics), and
  // gatherPinGradient folds them into per-node gradients in a fixed
  // order, so the parallel backward is deterministic for any thread
  // count. Replaces the old vector<atomic<T>> reduction workspace, which
  // could never shrink or be copied and made results schedule-dependent.
  std::vector<T> pin_grad_x_, pin_grad_y_;
  // Intermediates for the net-by-net and atomic strategies
  // (ensureKernelScratch).
  std::vector<T> a_plus_, a_minus_;        // per pin (x dim reused for y)
  std::vector<T> b_plus_, b_minus_;        // per net
  std::vector<T> c_plus_, c_minus_;        // per net
  std::vector<T> x_max_, x_min_;           // per net
  // Merged-kernel per-worker a± rows (ensureMergedScratch).
  std::vector<T> merged_scratch_;
  std::size_t merged_row_ = 0;     ///< Elements per worker row.
  TrackedBytes mem_scratch_{"ops/wirelength/scratch"};
  TrackedBytes mem_kernel_ws_{"ops/wirelength/kernel_ws"};
  TrackedBytes mem_merged_{"ops/wirelength/merged_scratch"};
};

/// Log-sum-exp wirelength (Naylor et al.): WL_e = gamma*(log sum
/// e^{x/gamma} + log sum e^{-x/gamma}) per dimension, max-shifted for
/// numerical stability. Overestimates HPWL (WA underestimates).
template <typename T>
class LseWirelengthOp final : public WirelengthOp<T> {
 public:
  LseWirelengthOp(const Database& db, Index numNodes,
                  Index ignoreNetDegree = 0, bool simd = true);

  void setGamma(double gamma) override { gamma_ = gamma; }
  double gamma() const override { return gamma_; }

  std::size_t size() const override {
    return 2 * static_cast<std::size_t>(num_nodes_);
  }
  double evaluate(std::span<const T> params, std::span<T> grad) override;
  double hpwl(std::span<const T> params) const override;

  NetTopologyView<T> topology() const { return topo_.view(); }

 private:
  template <typename V>
  double evaluateImpl(const NetTopologyView<T>& topo);
  /// Per-worker a± rows: the forward pass stores the exponentials it
  /// sums into b±, and the fused backward re-reads them instead of
  /// recomputing exp per pin (the pre-SIMD code paid the exp twice).
  void ensureScratch(int workers);

  Index num_nodes_ = 0;
  Index ignore_net_degree_ = 0;
  bool simd_ = true;
  double gamma_ = 1.0;
  NetTopology<T> topo_;
  PinPositionTables<T> pin_tables_;
  Index max_active_degree_ = 0;
  std::int64_t vexp_groups_native_ = 0;
  std::int64_t vexp_groups_scalar_ = 0;
  std::vector<T> pin_x_, pin_y_;
  std::vector<T> pin_grad_x_, pin_grad_y_;
  std::vector<T> lse_scratch_;
  std::size_t lse_row_ = 0;
  TrackedBytes mem_lse_{"ops/wirelength/lse_scratch"};
};

}  // namespace dreamplace
