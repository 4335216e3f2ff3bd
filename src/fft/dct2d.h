// 2-D DCT-family transforms for the spectral Poisson solver.
//
// Maps are stored row-major as flat arrays: element (i1, i2) of an n1 x n2
// map lives at index i1*n2 + i2. In the electrostatics code dim0 is the
// x (horizontal bin) axis and dim1 the y axis.
//
// Three implementations mirror the paper's Fig. 11 comparison:
//  * kRowCol2N — 1-D DCT via 2N-point FFT applied rows-then-columns,
//  * kRowColN  — 1-D DCT via N-point real FFT (Alg. 3) rows-then-columns,
//  * kFft2dN   — single-pass 2-D transform via one 2-D real FFT (Alg. 4).
//
// Scaling follows the 1-D conventions in dct.h applied per dimension, so
// idct2d(dct2d(x)) == (n1/2)*(n2/2) * x.
//
// Dct2dPlan is the plan-based engine (docs/FFT.md): it owns the 1-D FFT
// plans, the reorder index maps, the twiddle tables, and every scratch
// buffer, so executing any transform is trig-free and allocation-free.
// The stateless functions below remain as thin wrappers over a
// thread-local plan cache, so one-shot callers keep working unchanged.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "common/memory.h"
#include "fft/dct.h"
#include "fft/plan.h"

namespace dreamplace::fft {

enum class Dct2dAlgorithm {
  kRowColNaive,  ///< O(N^3) test oracle built on 1-D naive transforms.
  kRowCol2N,
  kRowColN,
  kFft2dN,
};

/// Grid size (n1*n2 bins) from which a Dct2dPlan runs its passes as pool
/// jobs. Below it every pass is one plain loop on the calling thread: on
/// a 4-vCPU KVM host, bench_fig11_dct's 2D-N transforms ran 0.7-1.4x
/// as fast at 4 threads as at 1 on 128^2 maps and 1.6-2.2x on 256^2
/// (docs/PARALLEL.md), so a fork-join only pays from 256^2 up.
inline constexpr std::int64_t kParallelBins = 256 * 256;

/// Reusable 2-D transform plan for one (n1, n2, algorithm) triple.
///
/// Construction precomputes the Makhoul reorder index maps, the quarter-
/// wave twiddle tables, the underlying 1-D FFT plans (shared through
/// PlanCache), and sizes all workspace — including row and column
/// scratch, one lane per pool worker for parallel plans — so the
/// transform methods perform no trigonometry and no heap allocation
/// (scratch regrows only if the thread pool is enlarged after plan
/// construction). The mixed inverse transforms fuse
/// the paper's
/// eq. (14)/(16) input flips and eq. (15)/(17) sign passes into the
/// existing twiddle and reorder sweeps instead of materializing a flipped
/// copy plus a sign sweep (kFft2dN only; row-column algorithms keep the
/// literal flip for oracle comparability).
///
/// NOT thread-safe: a plan owns its workspace, so use one plan per thread
/// (at or above kParallelBins the transforms parallelize internally on
/// the deterministic ThreadPool; below it they run serially with one
/// scratch lane). In/out pointers may alias each other but must not
/// alias plan workspace.
template <typename T>
class Dct2dPlan {
 public:
  Dct2dPlan(int n1, int n2, Dct2dAlgorithm algo = Dct2dAlgorithm::kFft2dN);

  int n1() const { return n1_; }
  int n2() const { return n2_; }
  Dct2dAlgorithm algorithm() const { return algo_; }
  /// True when the grid reaches kParallelBins and passes run on the pool.
  bool parallel() const { return parallel_; }

  void dct2d(const T* in, T* out);
  void idct2d(const T* in, T* out);
  /// IDCT along dim0, IDXST along dim1 (paper Alg. 4 IDCT_IDXST).
  void idctIdxst(const T* in, T* out);
  /// IDXST along dim0, IDCT along dim1 (paper Alg. 4 IDXST_IDCT).
  void idxstIdct(const T* in, T* out);

 private:
  void forwardFft2d(const T* in, T* out);
  /// Generalized inverse: optional flip along dim0/dim1 realizes the
  /// IDXST reductions without extra full-map passes.
  void inverseFft2d(const T* in, T* out, bool flip0, bool flip1);
  void rowColApply(const T* in, T* out, bool forward);
  /// Attributes all owned workspace/table bytes to "fft/scratch".
  void trackWorkspace();
  /// Grows the per-worker scratch if the pool gained threads since plan
  /// construction (parallel kFft2dN plans only).
  void ensureScratch();

  std::complex<T>* rowScratch(int worker);
  std::complex<T>* colScratch(int worker);

  int n1_;
  int n2_;
  int h2_ = 0;      ///< n2/2 (kFft2dN)
  int stride_ = 0;  ///< h2_+1, row stride of the one-sided spectrum
  Dct2dAlgorithm algo_;
  bool parallel_;   ///< n1*n2 >= kParallelBins

  // kFft2dN state.
  std::shared_ptr<const RfftPlan<T>> row_fwd_;  ///< size n2
  std::shared_ptr<const RfftPlan<T>> row_inv_;
  std::shared_ptr<const FftPlan<T>> col_fwd_;  ///< size n1
  std::shared_ptr<const FftPlan<T>> col_inv_;
  std::vector<std::complex<T>> tw1_;  ///< exp(-i*pi*k1/(2*n1)), k1 < n1
  std::vector<std::complex<T>> tw2_;  ///< exp(-i*pi*k2/(2*n2)), k2 < n2
  std::vector<int> reorder1_, reorder2_;        ///< forward gather maps
  std::vector<int> inv_reorder1_, inv_reorder2_;

  // Workspace (ctor-sized; transforms never allocate).
  std::vector<T> buf_a_;                    ///< n1*n2 reorder/output buffer
  std::vector<T> buf_b_;                    ///< n1*n2, row-col only
  std::vector<T> flip_;                     ///< n1*n2, row-col mixed only
  std::vector<std::complex<T>> spec_;       ///< n1*stride, kFft2dN only
  std::size_t row_scratch_stride_ = 0;
  std::size_t col_scratch_stride_ = 0;
  int scratch_workers_ = 0;                 ///< pool size scratch is sized for
  std::vector<std::complex<T>> row_ws_;     ///< per-worker rfft scratch
  std::vector<std::complex<T>> col_ws_;     ///< per-worker column + scratch
  TrackedBytes mem_{"fft/scratch"};         ///< memory attribution
};

template <typename T>
void dct2d(const T* in, T* out, int n1, int n2,
           Dct2dAlgorithm algo = Dct2dAlgorithm::kFft2dN);

template <typename T>
void idct2d(const T* in, T* out, int n1, int n2,
            Dct2dAlgorithm algo = Dct2dAlgorithm::kFft2dN);

/// IDCT along dim0, IDXST along dim1 (paper Alg. 4 IDCT_IDXST).
template <typename T>
void idctIdxst(const T* in, T* out, int n1, int n2,
               Dct2dAlgorithm algo = Dct2dAlgorithm::kFft2dN);

/// IDXST along dim0, IDCT along dim1 (paper Alg. 4 IDXST_IDCT).
template <typename T>
void idxstIdct(const T* in, T* out, int n1, int n2,
               Dct2dAlgorithm algo = Dct2dAlgorithm::kFft2dN);

}  // namespace dreamplace::fft
