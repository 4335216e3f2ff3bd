// Portable fixed-width SIMD layer: Vec<T, N> wrappers plus a vectorized
// exponential (vexp), the arithmetic backbone of the WA/LSE wirelength
// kernels and the density overlap strips (see docs/SIMD.md).
//
// Two interchangeable vector families expose the same operation set:
//  * HwVec<T, N>     — GCC/Clang vector extensions; one register per
//    value. Compiled only when DREAMPLACE_SIMD is ON (the default).
//  * ScalarVec<T, N> — plain lane array with elementwise loops; always
//    available. Its vexp is std::exp per lane, so a ScalarVec kernel
//    reproduces libm numerics exactly. This is both the
//    -DDREAMPLACE_SIMD=OFF fallback and the in-binary "scalar" row of
//    bench_fig10.
//
// NativeVec<T> is the build's preferred type: HwVec<T, kNativeBytes /
// sizeof(T)> (8 float / 4 double lanes on AVX2, half that on SSE2/NEON)
// when SIMD is enabled, ScalarVec<T, 1> otherwise. Kernels are written
// as templates over the vector type and
// instantiated for both families, so the scalar path is a first-class
// citizen (tested, benchable), not dead code.
//
// Determinism contract (docs/PARALLEL.md): lane decomposition of a range
// depends only on the range length and kWidth — never on the thread
// count — and every horizontal reduction (hsum/hmin/hmax) folds lanes in
// ascending lane order. Remainder elements go through the same vexp
// instruction path via a padded lane (vexpArray), so an element's value
// never depends on its position in a range. All kernels therefore stay
// bit-identical for any thread count, exactly like the block
// decomposition of common/parallel.h.
//
// vexp accuracy contract (pinned by tests/simd_test.cpp):
//  * Cephes-style argument reduction x = k*ln2 + r, |r| <= ln2/2, with a
//    degree-5 polynomial (float) / Pade rational (double) for exp(r) and
//    exponent-field scaling by 2^k.
//  * Max error <= 4 ULP against std::exp wherever exp(x) is a normal
//    number (measured: ~2 ULP float, ~1 ULP double). The kernels'
//    argument range is (-inf, 0], where exp is in [0, 1].
//  * Flush-to-zero below kLoFlush (x < -86 float, x < -706 double) —
//    slightly before exp(x) itself goes subnormal, so no intermediate of
//    the lane math is ever a subnormal operand (a many-cycle microcode
//    assist per element on x86; see ExpConst). x = -inf returns exactly
//    0 and x = 0 returns exactly 1. Arguments above +88.38 (float) /
//    +709 (double) saturate rather than overflow.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include "common/types.h"

namespace dreamplace {
namespace simd {

#if !defined(DREAMPLACE_SIMD_DISABLED)
#define DREAMPLACE_SIMD_ENABLED 1
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// Human-readable name of the vector ISA the build targets ("avx2",
/// "sse2", "neon", ... or "scalar" when DREAMPLACE_SIMD is OFF). Purely
/// informational: the code is the same portable vector-extension code
/// either way; the compiler's target flags decide the instructions.
const char* activeIsaName();

// ---------------------------------------------------------------------------
// ScalarVec<T, N>: the always-available lane-array fallback.
// ---------------------------------------------------------------------------

template <typename T, int N>
struct ScalarVec {
  static constexpr int kWidth = N;
  using Elem = T;

  T lane[N];

  static ScalarVec broadcast(T x) {
    ScalarVec r;
    for (int i = 0; i < N; ++i) r.lane[i] = x;
    return r;
  }
  static ScalarVec zero() { return broadcast(T(0)); }
  /// {0, 1, ..., N-1} as T.
  static ScalarVec iota() {
    ScalarVec r;
    for (int i = 0; i < N; ++i) r.lane[i] = static_cast<T>(i);
    return r;
  }
  static ScalarVec load(const T* p) {
    ScalarVec r;
    for (int i = 0; i < N; ++i) r.lane[i] = p[i];
    return r;
  }
  void store(T* p) const {
    for (int i = 0; i < N; ++i) p[i] = lane[i];
  }
  /// Lane i = base[idx[i]] (one element per lane from anywhere).
  static ScalarVec gather(const T* base, const Index* idx) {
    ScalarVec r;
    for (int i = 0; i < N; ++i) r.lane[i] = base[idx[i]];
    return r;
  }
  /// base[idx[i]] = lane i; the indices must be distinct.
  void scatter(T* base, const Index* idx) const {
    for (int i = 0; i < N; ++i) base[idx[i]] = lane[i];
  }
  T operator[](int i) const { return lane[i]; }

  friend ScalarVec operator+(ScalarVec a, ScalarVec b) {
    for (int i = 0; i < N; ++i) a.lane[i] += b.lane[i];
    return a;
  }
  friend ScalarVec operator-(ScalarVec a, ScalarVec b) {
    for (int i = 0; i < N; ++i) a.lane[i] -= b.lane[i];
    return a;
  }
  friend ScalarVec operator*(ScalarVec a, ScalarVec b) {
    for (int i = 0; i < N; ++i) a.lane[i] *= b.lane[i];
    return a;
  }
  friend ScalarVec operator/(ScalarVec a, ScalarVec b) {
    for (int i = 0; i < N; ++i) a.lane[i] /= b.lane[i];
    return a;
  }
};

template <typename T, int N>
inline ScalarVec<T, N> min(ScalarVec<T, N> a, ScalarVec<T, N> b) {
  for (int i = 0; i < N; ++i) a.lane[i] = a.lane[i] < b.lane[i] ? a.lane[i] : b.lane[i];
  return a;
}
template <typename T, int N>
inline ScalarVec<T, N> max(ScalarVec<T, N> a, ScalarVec<T, N> b) {
  for (int i = 0; i < N; ++i) a.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
  return a;
}
/// a*b + c. Deliberately unfused (two correctly-rounded ops) in both
/// vector families so HwVec and ScalarVec kernels agree on targets with
/// and without hardware FMA; see docs/SIMD.md.
template <typename T, int N>
inline ScalarVec<T, N> fma(ScalarVec<T, N> a, ScalarVec<T, N> b,
                           ScalarVec<T, N> c) {
  for (int i = 0; i < N; ++i) c.lane[i] += a.lane[i] * b.lane[i];
  return c;
}
/// Lanes folded in ascending lane order (deterministic).
template <typename T, int N>
inline T hsum(ScalarVec<T, N> a) {
  T s = a.lane[0];
  for (int i = 1; i < N; ++i) s += a.lane[i];
  return s;
}
template <typename T, int N>
inline T hmin(ScalarVec<T, N> a) {
  T s = a.lane[0];
  for (int i = 1; i < N; ++i) s = a.lane[i] < s ? a.lane[i] : s;
  return s;
}
template <typename T, int N>
inline T hmax(ScalarVec<T, N> a) {
  T s = a.lane[0];
  for (int i = 1; i < N; ++i) s = a.lane[i] > s ? a.lane[i] : s;
  return s;
}

/// Every lane = lane I.
template <int I, typename T, int N>
inline ScalarVec<T, N> splat(ScalarVec<T, N> a) {
  return ScalarVec<T, N>::broadcast(a.lane[I]);
}
/// In-place transpose of the 4x4 matrix whose rows are r0..r3.
template <typename T>
inline void transpose4(ScalarVec<T, 4>& r0, ScalarVec<T, 4>& r1,
                       ScalarVec<T, 4>& r2, ScalarVec<T, 4>& r3) {
  ScalarVec<T, 4>* rows[4] = {&r0, &r1, &r2, &r3};
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      std::swap(rows[i]->lane[j], rows[j]->lane[i]);
    }
  }
}

/// Scalar-family vexp: exactly std::exp per lane. The fallback therefore
/// has libm accuracy (0 ULP vs std::exp) and is the reference the
/// polynomial path is ULP-tested against.
template <typename T, int N>
inline ScalarVec<T, N> vexp(ScalarVec<T, N> a) {
  for (int i = 0; i < N; ++i) a.lane[i] = std::exp(a.lane[i]);
  return a;
}

#if defined(DREAMPLACE_SIMD_ENABLED)

// ---------------------------------------------------------------------------
// HwVec<T, N>: GCC/Clang vector extensions.
// ---------------------------------------------------------------------------

template <typename T, int N>
struct HwVec {
  static constexpr int kWidth = N;
  using Elem = T;
  typedef T Native __attribute__((vector_size(N * sizeof(T))));
  /// N lanes of int32 regardless of T: exponent-field math never needs
  /// 64-bit integer lanes (which SSE2/NEON/AVX2 lack converts for).
  typedef std::int32_t NativeI32 __attribute__((vector_size(N * 4)));

  Native v;

  static HwVec broadcast(T x) { return {Native{} + x}; }
  static HwVec zero() { return {Native{}}; }
  static HwVec iota() {
    HwVec r;
    for (int i = 0; i < N; ++i) r.v[i] = static_cast<T>(i);
    return r;
  }
  /// Unaligned load/store (memcpy lowers to unaligned vector moves).
  static HwVec load(const T* p) {
    HwVec r;
    std::memcpy(&r.v, p, sizeof(Native));
    return r;
  }
  void store(T* p) const { std::memcpy(p, &v, sizeof(Native)); }
  /// Lane i = base[idx[i]]: per-lane inserts (no portable hardware
  /// gather in the vector extensions).
  static HwVec gather(const T* base, const Index* idx) {
    HwVec r;
    for (int i = 0; i < N; ++i) r.v[i] = base[idx[i]];
    return r;
  }
  /// base[idx[i]] = lane i; the indices must be distinct.
  void scatter(T* base, const Index* idx) const {
    for (int i = 0; i < N; ++i) base[idx[i]] = v[i];
  }
  T operator[](int i) const { return v[i]; }

  friend HwVec operator+(HwVec a, HwVec b) { return {a.v + b.v}; }
  friend HwVec operator-(HwVec a, HwVec b) { return {a.v - b.v}; }
  friend HwVec operator*(HwVec a, HwVec b) { return {a.v * b.v}; }
  friend HwVec operator/(HwVec a, HwVec b) { return {a.v / b.v}; }
};

template <typename T, int N>
inline HwVec<T, N> min(HwVec<T, N> a, HwVec<T, N> b) {
  return {a.v < b.v ? a.v : b.v};
}
template <typename T, int N>
inline HwVec<T, N> max(HwVec<T, N> a, HwVec<T, N> b) {
  return {a.v > b.v ? a.v : b.v};
}
template <typename T, int N>
inline HwVec<T, N> fma(HwVec<T, N> a, HwVec<T, N> b, HwVec<T, N> c) {
  return {a.v * b.v + c.v};
}
template <typename T, int N>
inline T hsum(HwVec<T, N> a) {
  T s = a.v[0];
  for (int i = 1; i < N; ++i) s += a.v[i];
  return s;
}
template <typename T, int N>
inline T hmin(HwVec<T, N> a) {
  T s = a.v[0];
  for (int i = 1; i < N; ++i) s = a.v[i] < s ? a.v[i] : s;
  return s;
}
template <typename T, int N>
inline T hmax(HwVec<T, N> a) {
  T s = a.v[0];
  for (int i = 1; i < N; ++i) s = a.v[i] > s ? a.v[i] : s;
  return s;
}

namespace detail {

template <int I, typename Native, std::size_t... Is>
inline Native splatImpl(Native v, std::index_sequence<Is...>) {
  return __builtin_shufflevector(v, v, ((void)Is, I)...);
}

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
inline constexpr bool kLittleEndian = true;
#else
inline constexpr bool kLittleEndian = false;
#endif

/// Per-precision constants of the Cephes-style exp reduction.
template <typename T>
struct ExpConst;

template <>
struct ExpConst<float> {
  static constexpr float kLog2e = 1.44269504088896341f;
  // ln2 split so k*kLn2Hi is exact for |k| < 2^15.
  static constexpr float kLn2Hi = 0.693359375f;
  static constexpr float kLn2Lo = -2.12194440e-4f;
  // Flush-to-zero threshold. exp(x) only goes subnormal below -87.34,
  // but the cut sits at -86 so every intermediate stays comfortably
  // normal: k = rint(x*log2e) >= -125, and y*2^k >= 0.5*2^-125 — a
  // subnormal *operand* anywhere in the lane math costs a ~100-cycle
  // microcode assist per element on x86 (we never set FTZ/DAZ), which
  // measured as a 10x kernel slowdown on wirelength-typical arguments.
  // exp(-86) ~= 4.4e-38; flushing values that small changes no WA/LSE
  // sum (the max-shifted term is always exp(0) = 1).
  static constexpr float kLoFlush = -86.0f;
  static constexpr float kHi = 88.3762626647949f;
  // 1.5 * 2^23: adding/subtracting rounds |z| < 2^22 to the nearest
  // integer (round-to-nearest FP mode, the C++ default) with no
  // float<->int compare/fixup dance.
  static constexpr float kMagic = 12582912.0f;
  static constexpr std::int32_t kExpBias = 127;
  static constexpr int kMantBits = 23;
};

template <>
struct ExpConst<double> {
  static constexpr double kLog2e = 1.4426950408889634073599;
  static constexpr double kLn2Hi = 6.93145751953125e-1;
  static constexpr double kLn2Lo = 1.42860682030941723212e-6;
  // Same conservative flush as float (see above): exp(x) is subnormal
  // below -708.4, but cutting at -706 keeps k >= -1019 and every
  // intermediate normal (y*2^k >= 0.5*2^-1019 > 2^-1022).
  static constexpr double kLoFlush = -706.0;
  static constexpr double kHi = 709.0;
  // 1.5 * 2^52: rounds |z| < 2^51 to the nearest integer.
  static constexpr double kMagic = 6755399441055744.0;
  static constexpr std::int32_t kExpBias = 1023;
  static constexpr int kMantBits = 52;
};

}  // namespace detail

/// Every lane = lane I (one shuffle).
template <int I, typename T, int N>
inline HwVec<T, N> splat(HwVec<T, N> a) {
  return {detail::splatImpl<I>(a.v, std::make_index_sequence<N>{})};
}
/// In-register transpose of the 4x4 matrix whose rows are r0..r3.
template <typename T>
inline void transpose4(HwVec<T, 4>& r0, HwVec<T, 4>& r1, HwVec<T, 4>& r2,
                       HwVec<T, 4>& r3) {
  const auto t0 = __builtin_shufflevector(r0.v, r1.v, 0, 4, 1, 5);
  const auto t1 = __builtin_shufflevector(r2.v, r3.v, 0, 4, 1, 5);
  const auto t2 = __builtin_shufflevector(r0.v, r1.v, 2, 6, 3, 7);
  const auto t3 = __builtin_shufflevector(r2.v, r3.v, 2, 6, 3, 7);
  r0.v = __builtin_shufflevector(t0, t1, 0, 1, 4, 5);
  r1.v = __builtin_shufflevector(t0, t1, 2, 3, 6, 7);
  r2.v = __builtin_shufflevector(t2, t3, 0, 1, 4, 5);
  r3.v = __builtin_shufflevector(t2, t3, 2, 3, 6, 7);
}

/// Vectorized exp, float: Cephes expf — degree-5 polynomial for exp(r)
/// after x = k*ln2 + r reduction (k = rint(x*log2e), so |r| <= ln2/2),
/// 2^k applied through the exponent field.
template <int N>
inline HwVec<float, N> vexp(HwVec<float, N> xin) {
  using V = HwVec<float, N>;
  using NF = typename V::Native;
  using NI = typename V::NativeI32;
  using C = detail::ExpConst<float>;

  const NF x0 = xin.v;
  NF x = x0 < C::kHi ? x0 : (NF{} + C::kHi);
  x = x > C::kLoFlush ? x : (NF{} + C::kLoFlush);

  // k = rint(x * log2(e)) via the magic-constant trick; the clamps keep
  // |x*log2e| < 2^22 so the rounding is exact, and the truncating
  // convert below is exact because kf is already an integer.
  const NF kf = (x * C::kLog2e + C::kMagic) - C::kMagic;
  const NI k = __builtin_convertvector(kf, NI);

  NF r = x - kf * C::kLn2Hi;
  r = r - kf * C::kLn2Lo;

  NF y = NF{} + 1.9875691500e-4f;
  y = y * r + 1.3981999507e-3f;
  y = y * r + 8.3334519073e-3f;
  y = y * r + 4.1665795894e-2f;
  y = y * r + 1.6666665459e-1f;
  y = y * r + 5.0000001201e-1f;
  y = y * (r * r) + r + 1.0f;

  // Scale by 2^k through the exponent field; k is in [-126, 127] thanks
  // to the clamps, so the biased exponent stays in the normal range.
  const NI bits = (k + C::kExpBias) << C::kMantBits;
  NF scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  NF result = y * scale;

  // Subnormal results flush to exactly zero (see the contract above).
  result = x0 >= C::kLoFlush ? result : NF{};
  return {result};
}

/// Vectorized exp, double: Cephes exp — Pade rational
/// exp(r) = 1 + 2r*P(r^2) / (Q(r^2) - r*P(r^2)) after the same reduction.
template <int N>
inline HwVec<double, N> vexp(HwVec<double, N> xin) {
  using V = HwVec<double, N>;
  using NF = typename V::Native;
  using NI = typename V::NativeI32;
  using C = detail::ExpConst<double>;

  const NF x0 = xin.v;
  NF x = x0 < C::kHi ? x0 : (NF{} + C::kHi);
  x = x > C::kLoFlush ? x : (NF{} + C::kLoFlush);

  const NF kf = (x * C::kLog2e + C::kMagic) - C::kMagic;
  const NI k = __builtin_convertvector(kf, NI);

  NF r = x - kf * C::kLn2Hi;
  r = r - kf * C::kLn2Lo;
  const NF rr = r * r;

  NF p = NF{} + 1.26177193074810590878e-4;
  p = p * rr + 3.02994407707441961300e-2;
  p = p * rr + 9.99999999999999999910e-1;
  p = p * r;

  NF q = NF{} + 3.00198505138664455042e-6;
  q = q * rr + 2.52448340349684104192e-3;
  q = q * rr + 2.27265548208155028766e-1;
  q = q * rr + 2.00000000000000000005e0;

  NF y = p / (q - p);
  y = 1.0 + 2.0 * y;

  // 2^k as a double whose bit pattern is (k + 1023) << 52. Built from
  // int32 lanes only — hardware converts/shifts on 64-bit integer lanes
  // don't exist below AVX-512, so the obvious int64 formulation
  // scalarizes. The int64 bits are [low word 0 | high word
  // (k+1023) << 20]; on little-endian we interleave zeros with the high
  // words in one shuffle.
  const NI hi = (k + C::kExpBias) << (C::kMantBits - 32);
  NF scale;
  if constexpr (detail::kLittleEndian && N == 4) {
    typedef std::int32_t WideI __attribute__((vector_size(32)));
    const WideI w = __builtin_shufflevector(NI{}, hi, 0, 4, 0, 5, 0, 6, 0, 7);
    std::memcpy(&scale, &w, sizeof(scale));
  } else if constexpr (detail::kLittleEndian && N == 2) {
    typedef std::int32_t WideI __attribute__((vector_size(16)));
    const WideI w = __builtin_shufflevector(NI{}, hi, 0, 2, 0, 3);
    std::memcpy(&scale, &w, sizeof(scale));
  } else {
    std::int64_t b[N];
    for (int i = 0; i < N; ++i) {
      b[i] = static_cast<std::int64_t>(k[i] + C::kExpBias) << C::kMantBits;
    }
    std::memcpy(&scale, b, sizeof(scale));
  }
  NF result = y * scale;

  result = x0 >= C::kLoFlush ? result : NF{};
  return {result};
}

/// Bytes per native vector. 32 only when the target really has 32-byte
/// integer lanes (AVX2); otherwise 16 — on SSE2/NEON a 32-byte vector
/// splits into register pairs and measures *slower* than libm, while
/// 16-byte vexp beats it. The width is a per-build constant (set by the
/// target flags CMake chose), so every TU in a build agrees on
/// NativeVec and the determinism contract is per-build, as documented.
#if defined(__AVX2__)
inline constexpr int kNativeBytes = 32;
#else
inline constexpr int kNativeBytes = 16;
#endif

/// The build's preferred vector type (e.g. 8 float / 4 double lanes on
/// AVX2, 4 float / 2 double on SSE2/NEON).
template <typename T>
using NativeVec = HwVec<T, kNativeBytes / static_cast<int>(sizeof(T))>;

/// N lanes of T whatever the native width (e.g. the 4-bin columns of the
/// density footprint): HwVec, or ScalarVec when SIMD is OFF. Both apply
/// the same correctly-rounded operation per lane, so the results agree.
template <typename T, int N>
using FixedVec = HwVec<T, N>;

#else  // DREAMPLACE_SIMD_DISABLED

template <typename T>
using NativeVec = ScalarVec<T, 1>;

template <typename T, int N>
using FixedVec = ScalarVec<T, N>;

#endif

/// Lane width of the build's native vector for T (1 when SIMD is OFF).
template <typename T>
inline constexpr int kNativeWidth = NativeVec<T>::kWidth;

/// NativeVec's vexp returns exactly 0 for arguments below this
/// threshold (see ExpConst::kLoFlush). -inf when SIMD is OFF: the
/// ScalarVec fallback is libm std::exp, which never flushes.
template <typename T>
#if defined(DREAMPLACE_SIMD_ENABLED)
inline constexpr T kVexpFlushBelow = detail::ExpConst<T>::kLoFlush;
#else
inline constexpr T kVexpFlushBelow = -std::numeric_limits<T>::infinity();
#endif

/// out[i] = vexp(in[i]) for i in [0, n). Full lanes stream through vexp;
/// the remainder is computed through the *same* vexp on a zero-padded
/// lane, so every element's value is independent of its position in the
/// array (lane-remainder determinism, pinned by tests/simd_test.cpp).
template <typename V, typename T = typename V::Elem>
inline void vexpArray(const T* in, T* out, Index n) {
  constexpr Index kW = V::kWidth;
  Index i = 0;
  for (; i + kW <= n; i += kW) {
    vexp(V::load(in + i)).store(out + i);
  }
  if (i < n) {
    T tmp[kW] = {};
    for (Index j = i; j < n; ++j) tmp[j - i] = in[j];
    T padded[kW];
    vexp(V::load(tmp)).store(padded);
    for (Index j = i; j < n; ++j) out[j] = padded[j - i];
  }
}

}  // namespace simd
}  // namespace dreamplace
