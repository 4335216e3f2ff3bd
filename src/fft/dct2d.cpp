#include "fft/dct2d.h"

#include <cmath>
#include <map>
#include <memory>
#include <tuple>

#include "common/counters.h"
#include "common/log.h"
#include "common/parallel.h"
#include "fft/fft.h"

namespace dreamplace::fft {

namespace {

/// Runs one transform pass, fn(i, worker) for every i in [0, n): a plain
/// loop on the caller when `parallel` is false (no pool job at all),
/// pool blocks of `grain` otherwise. Every pass writes disjoint rows or
/// columns and per-worker scratch never influences a value, so the path
/// never changes a result bit.
template <typename Fn>
void runPass(bool parallel, const char* label, Index n, Index grain,
             Fn&& fn) {
  if (!parallel) {
    for (Index i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  parallelForBlocked(label, n, grain, [&](Index lo, Index hi, int worker) {
    for (Index i = lo; i < hi; ++i) fn(i, worker);
  });
}

/// Cache-blocked transpose: walks 64x64 tiles so the strided writes stay
/// within one L1-resident tile instead of thrashing a whole column of
/// cache lines per row on large maps. Row-tile stripes write disjoint
/// output rows.
template <typename T>
void transposeBlocked(bool parallel, const T* in, T* out, int n1, int n2) {
  constexpr int kBlock = 64;
  const Index row_tiles = (n1 + kBlock - 1) / kBlock;
  runPass(parallel, "fft/transpose", row_tiles, 1, [&](Index tile, int) {
    const int ib = static_cast<int>(tile) * kBlock;
    const int iend = std::min(ib + kBlock, n1);
    for (int jb = 0; jb < n2; jb += kBlock) {
      const int jend = std::min(jb + kBlock, n2);
      for (int i = ib; i < iend; ++i) {
        for (int j = jb; j < jend; ++j) {
          out[static_cast<size_t>(j) * n1 + i] =
              in[static_cast<size_t>(i) * n2 + j];
        }
      }
    }
  });
}

DctAlgorithm to1d(Dct2dAlgorithm algo) {
  switch (algo) {
    case Dct2dAlgorithm::kRowColNaive:
      return DctAlgorithm::kNaive;
    case Dct2dAlgorithm::kRowCol2N:
      return DctAlgorithm::kFft2N;
    case Dct2dAlgorithm::kRowColN:
      return DctAlgorithm::kFftN;
    default:
      logFatal("no 1-D equivalent for this 2-D algorithm");
  }
}

/// Makhoul per-dimension reorder index: v_t = x_{m(t)}.
inline int reorderIndex(int t, int n) {
  return (t < (n + 1) / 2) ? 2 * t : 2 * (n - t) - 1;
}

/// Inverse reorder index for the IDCT output pass.
inline int inverseReorderIndex(int k, int n) {
  return (k % 2 == 0) ? k / 2 : n - (k + 1) / 2;
}

template <typename T>
std::complex<T> unitPhase(double angle) {
  return {static_cast<T>(std::cos(angle)), static_cast<T>(std::sin(angle))};
}

}  // namespace

// ---------------------------------------------------------------------------
// Dct2dPlan
// ---------------------------------------------------------------------------

template <typename T>
Dct2dPlan<T>::Dct2dPlan(int n1, int n2, Dct2dAlgorithm algo)
    : n1_(n1),
      n2_(n2),
      algo_(algo),
      parallel_(static_cast<std::int64_t>(n1) * n2 >= kParallelBins) {
  DP_ASSERT(n1 >= 1 && n2 >= 1);
  const size_t total = static_cast<size_t>(n1_) * n2_;
  buf_a_.resize(total);
  if (algo_ != Dct2dAlgorithm::kFft2dN) {
    buf_b_.resize(total);
    flip_.resize(total);
    trackWorkspace();
    return;
  }

  DP_ASSERT_MSG(n2_ % 2 == 0, "2-D FFT DCT requires even n2, got %d", n2_);
  h2_ = n2_ / 2;
  stride_ = h2_ + 1;
  row_fwd_ = PlanCache::realPlan<T>(n2_, false);
  row_inv_ = PlanCache::realPlan<T>(n2_, true);
  col_fwd_ = PlanCache::complexPlan<T>(n1_, false);
  col_inv_ = PlanCache::complexPlan<T>(n1_, true);

  tw1_.resize(n1_);
  for (int k = 0; k < n1_; ++k) {
    tw1_[k] = unitPhase<T>(-M_PI * k / (2.0 * n1_));
  }
  tw2_.resize(n2_);
  for (int k = 0; k < n2_; ++k) {
    tw2_[k] = unitPhase<T>(-M_PI * k / (2.0 * n2_));
  }
  reorder1_.resize(n1_);
  inv_reorder1_.resize(n1_);
  for (int t = 0; t < n1_; ++t) {
    reorder1_[t] = reorderIndex(t, n1_);
    inv_reorder1_[t] = inverseReorderIndex(t, n1_);
  }
  reorder2_.resize(n2_);
  inv_reorder2_.resize(n2_);
  for (int t = 0; t < n2_; ++t) {
    reorder2_[t] = reorderIndex(t, n2_);
    inv_reorder2_[t] = inverseReorderIndex(t, n2_);
  }

  spec_.resize(static_cast<size_t>(n1_) * stride_);
  // Serial plans only ever use lane 0.
  scratch_workers_ = parallel_ ? currentThreadPool().threads() : 1;
  row_scratch_stride_ =
      std::max(row_fwd_->scratchSize(), row_inv_->scratchSize());
  col_scratch_stride_ = static_cast<size_t>(n1_) +
      std::max(col_fwd_->scratchSize(), col_inv_->scratchSize());
  row_ws_.resize(row_scratch_stride_ * scratch_workers_);
  col_ws_.resize(col_scratch_stride_ * scratch_workers_);
  trackWorkspace();
}

template <typename T>
void Dct2dPlan<T>::ensureScratch() {
  if (!parallel_) return;
  const int workers = currentThreadPool().threads();
  if (workers <= scratch_workers_) return;
  scratch_workers_ = workers;
  row_ws_.resize(row_scratch_stride_ * workers);
  col_ws_.resize(col_scratch_stride_ * workers);
  trackWorkspace();
}

template <typename T>
void Dct2dPlan<T>::trackWorkspace() {
  const auto bytes = [](const auto& v) {
    return static_cast<std::int64_t>(
        v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type));
  };
  mem_.set(bytes(buf_a_) + bytes(buf_b_) + bytes(flip_) + bytes(spec_) +
           bytes(row_ws_) + bytes(col_ws_) + bytes(tw1_) + bytes(tw2_) +
           bytes(reorder1_) + bytes(reorder2_) + bytes(inv_reorder1_) +
           bytes(inv_reorder2_));
}

template <typename T>
std::complex<T>* Dct2dPlan<T>::rowScratch(int worker) {
  return row_ws_.data() + row_scratch_stride_ * worker;
}

template <typename T>
std::complex<T>* Dct2dPlan<T>::colScratch(int worker) {
  return col_ws_.data() + col_scratch_stride_ * worker;
}

/// Row-column driver: transform dim1 (rows), transpose, transform dim0,
/// transpose back. The 1-D transforms write straight into the plan's
/// buffers through the pointer API — no per-row vector round trips.
template <typename T>
void Dct2dPlan<T>::rowColApply(const T* in, T* out, bool forward) {
  const DctAlgorithm algo1d = to1d(algo_);
  // The 1-D stateless transforms memoize one plan per thread, so rows
  // can run on any worker without sharing workspace.
  runPass(parallel_, "fft/rowcol_rows", n1_, 4, [&](Index i, int) {
    if (forward) {
      dct(in + static_cast<size_t>(i) * n2_,
          buf_a_.data() + static_cast<size_t>(i) * n2_, n2_, algo1d);
    } else {
      idct(in + static_cast<size_t>(i) * n2_,
           buf_a_.data() + static_cast<size_t>(i) * n2_, n2_, algo1d);
    }
  });
  transposeBlocked(parallel_, buf_a_.data(), buf_b_.data(), n1_, n2_);
  runPass(parallel_, "fft/rowcol_cols", n2_, 4, [&](Index j, int) {
    if (forward) {
      dct(buf_b_.data() + static_cast<size_t>(j) * n1_,
          buf_a_.data() + static_cast<size_t>(j) * n1_, n1_, algo1d);
    } else {
      idct(buf_b_.data() + static_cast<size_t>(j) * n1_,
           buf_a_.data() + static_cast<size_t>(j) * n1_, n1_, algo1d);
    }
  });
  transposeBlocked(parallel_, buf_a_.data(), out, n2_, n1_);
}

/// Single-pass 2-D DCT via one 2-D real FFT (paper Algorithm 4 / Makhoul).
///
/// Steps: 2-D reorder -> row-wise real FFT (dim1) -> column-wise complex
/// FFT (dim0) -> O(N^2) twiddle combining the spectrum with its conjugate
/// mirror. Only the one-sided half of dim1 is ever materialized, and every
/// twiddle comes from the plan tables.
template <typename T>
void Dct2dPlan<T>::forwardFft2d(const T* in, T* out) {
  ensureScratch();
  // Reorder both dimensions (eq. (10)).
  runPass(parallel_, "fft/reorder", n1_, 4, [&](Index t1, int) {
    const T* src = in + static_cast<size_t>(reorder1_[t1]) * n2_;
    T* dst = buf_a_.data() + static_cast<size_t>(t1) * n2_;
    for (int t2 = 0; t2 < n2_; ++t2) {
      dst[t2] = src[reorder2_[t2]];
    }
  });

  // One-sided real FFT along dim1; each block borrows its worker's
  // scratch lane.
  runPass(parallel_, "fft/rows", n1_, 4, [&](Index t1, int worker) {
    row_fwd_->forward(buf_a_.data() + static_cast<size_t>(t1) * n2_,
                      spec_.data() + static_cast<size_t>(t1) * stride_,
                      rowScratch(worker));
  });

  // Complex FFT along dim0, column by column.
  runPass(parallel_, "fft/cols", h2_ + 1, 4, [&](Index k2, int worker) {
    std::complex<T>* col = colScratch(worker);
    for (int t1 = 0; t1 < n1_; ++t1) {
      col[t1] = spec_[static_cast<size_t>(t1) * stride_ + k2];
    }
    col_fwd_->execute(col, col + n1_);
    for (int t1 = 0; t1 < n1_; ++t1) {
      spec_[static_cast<size_t>(t1) * stride_ + k2] = col[t1];
    }
  });

  // Twiddle pass:
  //   X(k1,k2) = 1/2 Re(e^{-j a1 k1} (e^{-j a2 k2} A + e^{+j a2 k2} B))
  // with A = V(k1,k2), B = V(k1,(n2-k2) mod n2); the one-sided storage is
  // expanded through the Hermitian symmetry V(k1,k2) = conj(V((n1-k1)%n1,
  // n2-k2)).
  runPass(parallel_, "fft/twiddle", n1_, 4, [&](Index k1, int) {
    const int r1 = (n1_ - k1) % n1_;
    const std::complex<T> tw1 = tw1_[k1];
    for (int k2 = 0; k2 < n2_; ++k2) {
      std::complex<T> a;
      std::complex<T> b;
      if (k2 <= h2_) {
        a = spec_[static_cast<size_t>(k1) * stride_ + k2];
        b = std::conj(spec_[static_cast<size_t>(r1) * stride_ + k2]);
      } else {
        const int m2 = n2_ - k2;
        a = std::conj(spec_[static_cast<size_t>(r1) * stride_ + m2]);
        b = spec_[static_cast<size_t>(k1) * stride_ + m2];
      }
      const std::complex<T> tw2 = tw2_[k2];
      const std::complex<T> combined = tw2 * a + std::conj(tw2) * b;
      out[static_cast<size_t>(k1) * n2_ + k2] =
          T(0.5) * (tw1 * combined).real();
    }
  });
}

/// Single-pass 2-D IDCT via one 2-D inverse real FFT.
///
///   U(t1,t2) = e^{+j a1 t1} e^{+j a2 t2}
///              (c(t1,t2) - c(n1-t1,n2-t2) - j (c(t1,n2-t2) + c(n1-t1,t2)))
/// with out-of-range c treated as zero (paper eq. (12)); then a column-wise
/// inverse complex FFT, a row-wise inverse real FFT, the inverse reorder of
/// eq. (13), and the (n1/2)(n2/2) scale from the 1-D convention.
///
/// `flip0`/`flip1` fuse the IDXST reductions: the eq. (14)/(16) input flip
/// is applied inside the gather (reading c'(i) = c(n-i), c'(0) = 0) and
/// the eq. (15)/(17) (-1)^k sign inside the output reorder, saving one
/// full-map copy and one full-map sign sweep per transform.
template <typename T>
void Dct2dPlan<T>::inverseFft2d(const T* in, T* out, bool flip0,
                                bool flip1) {
  const auto at = [&](int i1, int i2) -> T {
    // c with zero padding at index n1 / n2 (not periodic wrap); under a
    // flip the zero also lands on index 0, matching z_0 = 0 in eq. (8e).
    if (flip0) {
      if (i1 == 0 || i1 >= n1_) {
        return T(0);
      }
      i1 = n1_ - i1;
    } else if (i1 >= n1_) {
      return T(0);
    }
    if (flip1) {
      if (i2 == 0 || i2 >= n2_) {
        return T(0);
      }
      i2 = n2_ - i2;
    } else if (i2 >= n2_) {
      return T(0);
    }
    return in[static_cast<size_t>(i1) * n2_ + i2];
  };

  ensureScratch();
  runPass(parallel_, "fft/igather", n1_, 4, [&](Index t1, int) {
    const std::complex<T> tw1 = std::conj(tw1_[t1]);
    for (int t2 = 0; t2 <= h2_; ++t2) {
      const std::complex<T> tw2 = std::conj(tw2_[t2]);
      const T re = at(t1, t2) - at(n1_ - t1, n2_ - t2);
      const T im = -(at(t1, n2_ - t2) + at(n1_ - t1, t2));
      spec_[static_cast<size_t>(t1) * stride_ + t2] =
          tw1 * tw2 * std::complex<T>(re, im);
    }
  });

  // Inverse complex FFT along dim0.
  runPass(parallel_, "fft/icols", h2_ + 1, 4, [&](Index t2, int worker) {
    std::complex<T>* col = colScratch(worker);
    for (int t1 = 0; t1 < n1_; ++t1) {
      col[t1] = spec_[static_cast<size_t>(t1) * stride_ + t2];
    }
    col_inv_->execute(col, col + n1_);
    for (int t1 = 0; t1 < n1_; ++t1) {
      spec_[static_cast<size_t>(t1) * stride_ + t2] = col[t1];
    }
  });

  // Inverse real FFT along dim1.
  runPass(parallel_, "fft/irows", n1_, 4, [&](Index t1, int worker) {
    row_inv_->inverse(spec_.data() + static_cast<size_t>(t1) * stride_,
                      buf_a_.data() + static_cast<size_t>(t1) * n2_,
                      rowScratch(worker));
  });

  // Inverse reorder (eq. (13)), scale, and the fused (-1)^k signs.
  const T scale = static_cast<T>(n1_) * static_cast<T>(n2_) / T(4);
  runPass(parallel_, "fft/ireorder", n1_, 4, [&](Index k1, int) {
    const T* src = buf_a_.data() + static_cast<size_t>(inv_reorder1_[k1]) * n2_;
    const T row_scale = (flip0 && (k1 & 1)) ? -scale : scale;
    T* dst = out + static_cast<size_t>(k1) * n2_;
    for (int k2 = 0; k2 < n2_; ++k2) {
      T v = row_scale * src[inv_reorder2_[k2]];
      if (flip1 && (k2 & 1)) {
        v = -v;
      }
      dst[k2] = v;
    }
  });
}

template <typename T>
void Dct2dPlan<T>::dct2d(const T* in, T* out) {
  static Counter calls("fft/dct2d");
  calls.add();
  if (algo_ == Dct2dAlgorithm::kFft2dN) {
    forwardFft2d(in, out);
  } else {
    rowColApply(in, out, /*forward=*/true);
  }
}

template <typename T>
void Dct2dPlan<T>::idct2d(const T* in, T* out) {
  static Counter calls("fft/idct2d");
  calls.add();
  if (algo_ == Dct2dAlgorithm::kFft2dN) {
    inverseFft2d(in, out, /*flip0=*/false, /*flip1=*/false);
  } else {
    rowColApply(in, out, /*forward=*/false);
  }
}

template <typename T>
void Dct2dPlan<T>::idctIdxst(const T* in, T* out) {
  static Counter calls("fft/idct_idxst");
  calls.add();
  if (algo_ == Dct2dAlgorithm::kFft2dN) {
    inverseFft2d(in, out, /*flip0=*/false, /*flip1=*/true);
    return;
  }
  // Paper Alg. 4 IDCT_IDXST on the row-column baselines: flip dim1
  // (eq. (14)), 2-D IDCT, then apply (-1)^{k2} (eq. (15)).
  for (int i1 = 0; i1 < n1_; ++i1) {
    flip_[static_cast<size_t>(i1) * n2_] = T(0);
    for (int i2 = 1; i2 < n2_; ++i2) {
      flip_[static_cast<size_t>(i1) * n2_ + i2] =
          in[static_cast<size_t>(i1) * n2_ + (n2_ - i2)];
    }
  }
  idct2d(flip_.data(), out);
  for (int i1 = 0; i1 < n1_; ++i1) {
    for (int i2 = 1; i2 < n2_; i2 += 2) {
      out[static_cast<size_t>(i1) * n2_ + i2] =
          -out[static_cast<size_t>(i1) * n2_ + i2];
    }
  }
}

template <typename T>
void Dct2dPlan<T>::idxstIdct(const T* in, T* out) {
  static Counter calls("fft/idxst_idct");
  calls.add();
  if (algo_ == Dct2dAlgorithm::kFft2dN) {
    inverseFft2d(in, out, /*flip0=*/true, /*flip1=*/false);
    return;
  }
  // Paper Alg. 4 IDXST_IDCT on the row-column baselines: flip dim0
  // (eq. (16)), 2-D IDCT, then apply (-1)^{k1} (eq. (17)).
  for (int i2 = 0; i2 < n2_; ++i2) {
    flip_[i2] = T(0);
  }
  for (int i1 = 1; i1 < n1_; ++i1) {
    for (int i2 = 0; i2 < n2_; ++i2) {
      flip_[static_cast<size_t>(i1) * n2_ + i2] =
          in[static_cast<size_t>(n1_ - i1) * n2_ + i2];
    }
  }
  idct2d(flip_.data(), out);
  for (int i1 = 1; i1 < n1_; i1 += 2) {
    for (int i2 = 0; i2 < n2_; ++i2) {
      out[static_cast<size_t>(i1) * n2_ + i2] =
          -out[static_cast<size_t>(i1) * n2_ + i2];
    }
  }
}

// ---------------------------------------------------------------------------
// Stateless wrappers over a thread-local plan cache
// ---------------------------------------------------------------------------

namespace {

/// Plans are not thread-safe (they own workspace), so the stateless entry
/// points memoize one plan per (n1, n2, algo) per thread. Counters:
/// `fft/plan2d/create` and `fft/plan2d/hit`.
template <typename T>
Dct2dPlan<T>& threadLocalPlan(int n1, int n2, Dct2dAlgorithm algo) {
  static Counter creates("fft/plan2d/create");
  static Counter hits("fft/plan2d/hit");
  thread_local std::map<std::tuple<int, int, int>,
                        std::unique_ptr<Dct2dPlan<T>>> cache;
  auto& slot = cache[std::make_tuple(n1, n2, static_cast<int>(algo))];
  if (!slot) {
    creates.add();
    slot = std::make_unique<Dct2dPlan<T>>(n1, n2, algo);
  } else {
    hits.add();
  }
  return *slot;
}

}  // namespace

template <typename T>
void dct2d(const T* in, T* out, int n1, int n2, Dct2dAlgorithm algo) {
  threadLocalPlan<T>(n1, n2, algo).dct2d(in, out);
}

template <typename T>
void idct2d(const T* in, T* out, int n1, int n2, Dct2dAlgorithm algo) {
  threadLocalPlan<T>(n1, n2, algo).idct2d(in, out);
}

template <typename T>
void idctIdxst(const T* in, T* out, int n1, int n2, Dct2dAlgorithm algo) {
  threadLocalPlan<T>(n1, n2, algo).idctIdxst(in, out);
}

template <typename T>
void idxstIdct(const T* in, T* out, int n1, int n2, Dct2dAlgorithm algo) {
  threadLocalPlan<T>(n1, n2, algo).idxstIdct(in, out);
}

#define DP_INSTANTIATE_DCT2D(T)                                      \
  template class Dct2dPlan<T>;                                       \
  template void dct2d<T>(const T*, T*, int, int, Dct2dAlgorithm);    \
  template void idct2d<T>(const T*, T*, int, int, Dct2dAlgorithm);   \
  template void idctIdxst<T>(const T*, T*, int, int, Dct2dAlgorithm); \
  template void idxstIdct<T>(const T*, T*, int, int, Dct2dAlgorithm);

DP_INSTANTIATE_DCT2D(float)
DP_INSTANTIATE_DCT2D(double)

#undef DP_INSTANTIATE_DCT2D

}  // namespace dreamplace::fft
