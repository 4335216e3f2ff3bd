// Spectral Poisson solver for the electrostatic density model
// (paper Sec. II-C eq. (4)-(5) and Sec. III-B3 eq. (9)).
//
// Solves  laplacian(psi) = -rho  on an mx x my bin grid with Neumann
// (zero normal field) boundary conditions, which the DCT-II basis
// cos(pi*u*(x+1/2)/M) satisfies naturally. The DC mode is zeroed,
// implementing the zero-total-charge compatibility condition (eq. (4c)).
//
// solve() outputs, all in bin-index coordinates:
//   fieldX = -d psi / dx  (IDXST along x, IDCT along y),
//   fieldY = -d psi / dy  (IDCT along x, IDXST along y),
//   energy = 1/2 sum_b rho_b * psi_b, evaluated in coefficient space
//            (Parseval, docs/ALGORITHMS.md §3),
// from three 2-D transforms per solve. The potential psi(x,y) itself
// feeds nothing in placement; potential() computes it on request.
//
// Below fft::kParallelBins a solve is one pool job: the forward DCT and
// the coefficient/energy sweep run as plain loops on the caller, then
// the fieldX and fieldY transforms run as one 2-task job, each on its
// own transform plan. At or above it the transforms run one after the
// other, each parallel pass by pass (docs/PARALLEL.md).
//
// Maps are row-major with dim0 = x: element (bx, by) at bx*my + by.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/memory.h"
#include "fft/dct2d.h"

namespace dreamplace {

template <typename T>
struct PoissonSolution {
  std::vector<T> fieldX;
  std::vector<T> fieldY;
  double energy = 0.0;
};

template <typename T>
class PoissonSolver {
 public:
  PoissonSolver(int mx, int my,
                fft::Dct2dAlgorithm algo = fft::Dct2dAlgorithm::kFft2dN);

  /// Solves for the given density map. The transform plans and all
  /// spectral workspace are constructed once with the solver and reused,
  /// so steady-state calls (same `out` object) perform no heap
  /// allocation; the counter pair `ops/electrostatics/ws_alloc` /
  /// `ws_reuse` records whether a call had to grow the output buffers.
  void solve(std::span<const T> density, PoissonSolution<T>& out);

  /// Potential psi = idct2d(z) for the given density map (one forward
  /// and one inverse transform). Not part of solve(); for tests and
  /// diagnostics.
  std::vector<T> potential(std::span<const T> density);

  int mx() const { return mx_; }
  int my() const { return my_; }

 private:
  int mx_;
  int my_;
  fft::Dct2dPlan<T> plan_;   ///< owns FFT plans + transform workspace
  /// fieldY's plan when the two field transforms run as concurrent tasks
  /// (serial plans only); null otherwise.
  std::unique_ptr<fft::Dct2dPlan<T>> field_plan_;
  std::vector<T> wu_;        ///< omega_u = pi*u/mx
  std::vector<T> wv_;        ///< omega_v = pi*v/my
  std::vector<T> inv_w2_;    ///< 1/(wu^2+wv^2), 0 at DC
  std::vector<T> coeff_;     ///< forward DCT of the density
  std::vector<T> zx_;        ///< scaled modes for fieldX
  std::vector<T> zy_;        ///< scaled modes for fieldY
  TrackedBytes mem_{"ops/density/grids"};  ///< spectral workspace bytes
};

}  // namespace dreamplace
