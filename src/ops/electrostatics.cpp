#include "ops/electrostatics.h"

#include <cmath>

#include "common/counters.h"
#include "common/log.h"
#include "common/parallel.h"

namespace dreamplace {

template <typename T>
PoissonSolver<T>::PoissonSolver(int mx, int my, fft::Dct2dAlgorithm algo)
    : mx_(mx), my_(my), plan_(mx, my, algo) {
  wu_.resize(mx_);
  wv_.resize(my_);
  for (int u = 0; u < mx_; ++u) {
    wu_[u] = static_cast<T>(M_PI * u / mx_);
  }
  for (int v = 0; v < my_; ++v) {
    wv_[v] = static_cast<T>(M_PI * v / my_);
  }
  const size_t total = static_cast<size_t>(mx_) * my_;
  inv_w2_.resize(total);
  for (int u = 0; u < mx_; ++u) {
    for (int v = 0; v < my_; ++v) {
      const T w2 = wu_[u] * wu_[u] + wv_[v] * wv_[v];
      inv_w2_[u * my_ + v] = (u == 0 && v == 0) ? T(0) : T(1) / w2;
    }
  }
  coeff_.resize(total);
  zx_.resize(total);
  zy_.resize(total);
  mem_.set(static_cast<std::int64_t>(
      (wu_.capacity() + wv_.capacity() + inv_w2_.capacity() +
       coeff_.capacity() + zx_.capacity() + zy_.capacity()) *
      sizeof(T)));
}

template <typename T>
void PoissonSolver<T>::solve(std::span<const T> density,
                             PoissonSolution<T>& out) {
  static Counter solves("ops/electrostatics/solve");
  static Counter ws_allocs("ops/electrostatics/ws_alloc");
  static Counter ws_reuses("ops/electrostatics/ws_reuse");
  solves.add();
  const size_t total = static_cast<size_t>(mx_) * my_;
  DP_ASSERT(density.size() == total);
  const bool grows =
      out.fieldX.capacity() < total || out.fieldY.capacity() < total;
  (grows ? ws_allocs : ws_reuses).add();
  out.fieldX.resize(total);
  out.fieldY.resize(total);

  // Forward DCT of the charge density.
  plan_.dct2d(density.data(), coeff_.data());

  // Mode amplitudes of the series rho = sum a_uv cos cos are
  // a_uv = dct * eps_u * eps_v / (mx*my); evaluating the inverse series
  // through idct2d absorbs another 2^[u==0] 2^[v==0], so the combined
  // coefficient is uniformly 4/(mx*my) (derivation: docs/ALGORITHMS.md §3).
  // The energy 1/2 sum_b rho_b psi_b equals, by Parseval,
  // 1/2 sum_uv h_u h_v dct_uv z_uv with h_0 = 1/2, h_{>0} = 1 (idct2d's
  // DC weight), so it is summed here instead of transforming psi back.
  const T norm = T(4) / (static_cast<T>(mx_) * static_cast<T>(my_));
  out.energy = parallelReduce(
      "ops/es/coeff", mx_, 8, 0.0,
      [&](Index u_begin, Index u_end) {
        double partial = 0.0;
        for (Index u = u_begin; u < u_end; ++u) {
          const T wu = wu_[u];
          const double hu = u == 0 ? 0.25 : 0.5;  // 1/2 * h_u
          double row = 0.0;
          for (int v = 0; v < my_; ++v) {
            const size_t i = static_cast<size_t>(u) * my_ + v;
            const T base = norm * coeff_[i] * inv_w2_[i];
            zx_[i] = base * wu;
            zy_[i] = base * wv_[v];
            const double hv = v == 0 ? 0.5 : 1.0;
            row += hv * static_cast<double>(coeff_[i]) *
                   static_cast<double>(base);
          }
          partial += hu * row;
        }
        return partial;
      },
      [](double acc, double partial) { return acc + partial; });

  plan_.idxstIdct(zx_.data(), out.fieldX.data());
  plan_.idctIdxst(zy_.data(), out.fieldY.data());
}

template <typename T>
std::vector<T> PoissonSolver<T>::potential(std::span<const T> density) {
  const size_t total = static_cast<size_t>(mx_) * my_;
  DP_ASSERT(density.size() == total);
  plan_.dct2d(density.data(), coeff_.data());
  const T norm = T(4) / (static_cast<T>(mx_) * static_cast<T>(my_));
  std::vector<T> z(total);
  for (size_t i = 0; i < total; ++i) {
    z[i] = norm * coeff_[i] * inv_w2_[i];
  }
  std::vector<T> psi(total);
  plan_.idct2d(z.data(), psi.data());
  return psi;
}

template class PoissonSolver<float>;
template class PoissonSolver<double>;

}  // namespace dreamplace
