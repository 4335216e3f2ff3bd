#include <gtest/gtest.h>

#include <cmath>

#include "common/counters.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ops/electrostatics.h"

namespace dreamplace {
namespace {

/// Parameterized over (grid size, mode u, mode v): a single cosine mode
/// rho(x,y) = cos(wu*(x+1/2)) cos(wv*(y+1/2)) is an eigenfunction of the
/// Laplacian with Neumann BCs, so the solver must return exactly
/// psi = rho/(wu^2+wv^2) and the corresponding analytic fields.
class PoissonModeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PoissonModeTest, SingleModeSolvedExactly) {
  const auto [m, u, v] = GetParam();
  const double wu = M_PI * u / m;
  const double wv = M_PI * v / m;
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (int x = 0; x < m; ++x) {
    for (int y = 0; y < m; ++y) {
      rho[x * m + y] =
          std::cos(wu * (x + 0.5)) * std::cos(wv * (y + 0.5));
    }
  }
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> sol;
  solver.solve(rho, sol);
  const std::vector<double> potential = solver.potential(rho);

  const double w2 = wu * wu + wv * wv;
  for (int x = 0; x < m; ++x) {
    for (int y = 0; y < m; ++y) {
      const size_t i = static_cast<size_t>(x) * m + y;
      const double psi = rho[i] / w2;
      ASSERT_NEAR(potential[i], psi, 1e-9) << x << "," << y;
      const double ex = wu / w2 * std::sin(wu * (x + 0.5)) *
                        std::cos(wv * (y + 0.5));
      const double ey = wv / w2 * std::cos(wu * (x + 0.5)) *
                        std::sin(wv * (y + 0.5));
      ASSERT_NEAR(sol.fieldX[i], ex, 1e-9);
      ASSERT_NEAR(sol.fieldY[i], ey, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, PoissonModeTest,
                         ::testing::Values(std::make_tuple(16, 1, 0),
                                           std::make_tuple(16, 0, 1),
                                           std::make_tuple(16, 3, 2),
                                           std::make_tuple(32, 5, 7),
                                           std::make_tuple(64, 1, 1)));

TEST(PoissonTest, UniformDensityGivesZeroField) {
  const int m = 32;
  std::vector<double> rho(static_cast<size_t>(m) * m, 0.7);
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> sol;
  solver.solve(rho, sol);
  const std::vector<double> potential = solver.potential(rho);
  for (size_t i = 0; i < rho.size(); ++i) {
    ASSERT_NEAR(potential[i], 0.0, 1e-9);
    ASSERT_NEAR(sol.fieldX[i], 0.0, 1e-9);
    ASSERT_NEAR(sol.fieldY[i], 0.0, 1e-9);
  }
  EXPECT_NEAR(sol.energy, 0.0, 1e-9);
}

TEST(PoissonTest, DcOffsetIsIrrelevant) {
  // Adding a constant to rho must not change the solution (eq. (4c)).
  const int m = 16;
  Rng rng(8);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (double& r : rho) {
    r = rng.uniform(0, 1);
  }
  std::vector<double> shifted = rho;
  for (double& r : shifted) {
    r += 5.0;
  }
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> a, b;
  solver.solve(rho, a);
  solver.solve(shifted, b);
  const std::vector<double> psi_a = solver.potential(rho);
  const std::vector<double> psi_b = solver.potential(shifted);
  for (size_t i = 0; i < rho.size(); ++i) {
    ASSERT_NEAR(psi_a[i], psi_b[i], 1e-8);
    ASSERT_NEAR(a.fieldX[i], b.fieldX[i], 1e-8);
  }
}

TEST(PoissonTest, EnergyNonNegativeForZeroMeanCharge) {
  // Energy = 1/2 rho^T K^{-1} rho is PSD on the zero-mean subspace; with
  // the DC mode removed it is non-negative for any rho.
  const int m = 32;
  Rng rng(19);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (double& r : rho) {
    r = rng.uniform(-1, 1);
  }
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> sol;
  solver.solve(rho, sol);
  EXPECT_GE(sol.energy, -1e-9);
}

TEST(PoissonTest, PotentialHasZeroMean) {
  const int m = 16;
  Rng rng(23);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (double& r : rho) {
    r = rng.uniform(0, 2);
  }
  PoissonSolver<double> solver(m, m);
  const std::vector<double> potential = solver.potential(rho);
  double mean = 0;
  for (double p : potential) {
    mean += p;
  }
  EXPECT_NEAR(mean / potential.size(), 0.0, 1e-9);
}

TEST(PoissonTest, FieldIsDiscreteGradientOfPotential) {
  // For smooth rho, central differences of psi should approximate -field.
  const int m = 64;
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (int x = 0; x < m; ++x) {
    for (int y = 0; y < m; ++y) {
      const double dx = (x - m / 2.0) / (m / 6.0);
      const double dy = (y - m / 2.0) / (m / 6.0);
      rho[x * m + y] = std::exp(-(dx * dx + dy * dy));
    }
  }
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> sol;
  solver.solve(rho, sol);
  const std::vector<double> potential = solver.potential(rho);
  double max_err = 0;
  double max_field = 0;
  for (int x = 2; x < m - 2; ++x) {
    for (int y = 2; y < m - 2; ++y) {
      const double dpsi_dx =
          (potential[(x + 1) * m + y] - potential[(x - 1) * m + y]) / 2.0;
      const double err = std::abs(-dpsi_dx - sol.fieldX[x * m + y]);
      max_err = std::max(max_err, err);
      max_field = std::max(max_field, std::abs(sol.fieldX[x * m + y]));
    }
  }
  EXPECT_LT(max_err, 0.05 * max_field);
}

TEST(PoissonTest, AllDctAlgorithmsAgree) {
  const int m = 32;
  Rng rng(31);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (double& r : rho) {
    r = rng.uniform(0, 1);
  }
  PoissonSolution<double> ref, other;
  PoissonSolver<double> ref_solver(m, m, fft::Dct2dAlgorithm::kFft2dN);
  ref_solver.solve(rho, ref);
  const std::vector<double> ref_psi = ref_solver.potential(rho);
  for (auto algo : {fft::Dct2dAlgorithm::kRowCol2N,
                    fft::Dct2dAlgorithm::kRowColN}) {
    PoissonSolver<double> solver(m, m, algo);
    solver.solve(rho, other);
    const std::vector<double> psi = solver.potential(rho);
    EXPECT_NEAR(other.energy, ref.energy, 1e-10 * std::abs(ref.energy));
    for (size_t i = 0; i < rho.size(); ++i) {
      ASSERT_NEAR(psi[i], ref_psi[i], 1e-8);
      ASSERT_NEAR(other.fieldX[i], ref.fieldX[i], 1e-8);
      ASSERT_NEAR(other.fieldY[i], ref.fieldY[i], 1e-8);
    }
  }
}

TEST(PoissonTest, SolveIsAllocationFreeAfterFirstCall) {
  // The solver owns its transform plans and spectral workspace, and the
  // caller-owned PoissonSolution buffers reach full size on the first
  // call, so every later call must touch the heap zero times. Proven via
  // the counter registry: no workspace growth, no new FFT plans, no plan
  // scratch growth across the steady-state calls.
  const int m = 32;
  Rng rng(41);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (double& r : rho) {
    r = rng.uniform(0, 1);
  }
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> sol;
  solver.solve(rho, sol);  // warm-up: grows `sol` to full size

  auto& reg = CounterRegistry::instance();
  const auto ws_alloc = reg.value("ops/electrostatics/ws_alloc");
  const auto ws_reuse = reg.value("ops/electrostatics/ws_reuse");
  const auto plan_create = reg.value("fft/plan/create");
  const auto plan2d_create = reg.value("fft/plan2d/create");
  const auto scratch_grow = reg.value("fft/scratch_grow");
  constexpr int kSteadyCalls = 5;
  for (int i = 0; i < kSteadyCalls; ++i) {
    solver.solve(rho, sol);
  }
  EXPECT_EQ(reg.value("ops/electrostatics/ws_alloc"), ws_alloc);
  EXPECT_EQ(reg.value("ops/electrostatics/ws_reuse"),
            ws_reuse + kSteadyCalls);
  EXPECT_EQ(reg.value("fft/plan/create"), plan_create);
  EXPECT_EQ(reg.value("fft/plan2d/create"), plan2d_create);
  EXPECT_EQ(reg.value("fft/scratch_grow"), scratch_grow);
}

TEST(PoissonFloatTest, SinglePrecisionTracksDouble) {
  const int m = 32;
  Rng rng(37);
  std::vector<float> rho32(static_cast<size_t>(m) * m);
  std::vector<double> rho64(rho32.size());
  for (size_t i = 0; i < rho32.size(); ++i) {
    rho64[i] = rng.uniform(0, 1);
    rho32[i] = static_cast<float>(rho64[i]);
  }
  PoissonSolver<float> s32(m, m);
  PoissonSolver<double> s64(m, m);
  const std::vector<float> a = s32.potential(rho32);
  const std::vector<double> b = s64.potential(rho64);
  double err = 0;
  for (size_t i = 0; i < rho32.size(); ++i) {
    err = std::max(err, std::abs(a[i] - b[i]));
  }
  EXPECT_LT(err, 1e-2);
}


/// Energy from solve() (coefficient space, Parseval) against its
/// definition 1/2 sum_b rho_b psi_b with psi from potential(), for every
/// DCT algorithm and both precisions.
template <typename T>
void expectParsevalEnergy(fft::Dct2dAlgorithm algo, double rel) {
  const int m = 32;
  Rng rng(53);
  std::vector<T> rho(static_cast<size_t>(m) * m);
  for (T& r : rho) {
    r = static_cast<T>(rng.uniform(0, 2));
  }
  PoissonSolver<T> solver(m, m, algo);
  PoissonSolution<T> sol;
  solver.solve(rho, sol);
  const std::vector<T> psi = solver.potential(rho);
  double direct = 0.0;
  for (size_t i = 0; i < rho.size(); ++i) {
    direct += 0.5 * static_cast<double>(rho[i]) * static_cast<double>(psi[i]);
  }
  ASSERT_GT(direct, 0.0);
  EXPECT_NEAR(sol.energy, direct, rel * direct);
}

class PoissonParsevalTest
    : public ::testing::TestWithParam<fft::Dct2dAlgorithm> {};

TEST_P(PoissonParsevalTest, EnergyMatchesHalfRhoPsiDouble) {
  expectParsevalEnergy<double>(GetParam(), 1e-10);
}

TEST_P(PoissonParsevalTest, EnergyMatchesHalfRhoPsiFloat) {
  expectParsevalEnergy<float>(GetParam(), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, PoissonParsevalTest,
                         ::testing::Values(fft::Dct2dAlgorithm::kRowCol2N,
                                           fft::Dct2dAlgorithm::kRowColN,
                                           fft::Dct2dAlgorithm::kFft2dN));

TEST(PoissonTest, SolveRunsThreeTransforms) {
  // dct2d forward plus the two field transforms; the potential idct2d is
  // not part of a solve.
  const int m = 16;
  std::vector<double> rho(static_cast<size_t>(m) * m, 0.5);
  PoissonSolver<double> solver(m, m);
  PoissonSolution<double> sol;
  auto& reg = CounterRegistry::instance();
  const auto count = [&]() {
    return reg.value("fft/dct2d") + reg.value("fft/idct2d") +
           reg.value("fft/idct_idxst") + reg.value("fft/idxst_idct");
  };
  const auto before = count();
  solver.solve(rho, sol);
  EXPECT_EQ(count() - before, 3);
}

// Below fft::kParallelBins a whole solve is one fork-join: the forward
// DCT and the coefficient sweep run on the caller, the two field
// transforms as one 2-task pool job. At 4 threads it must give the same
// bits as the 1-thread solve, for every DCT formulation.
class PoissonForkJoinTest
    : public ::testing::TestWithParam<fft::Dct2dAlgorithm> {};

TEST_P(PoissonForkJoinTest, SmallGridSolveIsOnePoolJob) {
  const int m = 128;
  static_assert(128 * 128 < fft::kParallelBins);
  Rng rng(29);
  std::vector<double> rho(static_cast<size_t>(m) * m);
  for (double& r : rho) {
    r = rng.uniform(0, 1);
  }
  auto& reg = CounterRegistry::instance();
  const auto solveAt = [&](int threads, PoissonSolution<double>& sol) {
    ThreadPool::instance().setThreads(threads);
    PoissonSolver<double> solver(m, m, GetParam());
    const auto before = reg.value("parallel/jobs");
    solver.solve(rho, sol);
    return reg.value("parallel/jobs") - before;
  };
  PoissonSolution<double> serial;
  PoissonSolution<double> pooled;
  EXPECT_EQ(solveAt(1, serial), 1);
  EXPECT_EQ(solveAt(4, pooled), 1);
  ThreadPool::instance().setThreads(0);
  EXPECT_EQ(pooled.fieldX, serial.fieldX);
  EXPECT_EQ(pooled.fieldY, serial.fieldY);
  EXPECT_EQ(pooled.energy, serial.energy);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, PoissonForkJoinTest,
                         ::testing::Values(fft::Dct2dAlgorithm::kRowCol2N,
                                           fft::Dct2dAlgorithm::kRowColN,
                                           fft::Dct2dAlgorithm::kFft2dN));

}  // namespace
}  // namespace dreamplace
