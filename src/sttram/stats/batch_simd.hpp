// Per-width instantiations of the Gaussian-fill vector tails
// (stats/batch.cpp dispatches on active_simd_isa()).
//
// The Marsaglia polar sampler splits into three stages: (1) the rejection
// loop, which consumes the rng stream and must stay scalar per lane to
// preserve draw order; (2) log(s), a transcendental that stays a scalar
// libm call per lane (vector math libs are not correctly rounded); and
// (3) the value tail n = u * sqrt(-2*log(s)/s), which is pure correctly
// rounded arithmetic and vectorizes bit-identically.  These templates
// implement stage 3 — given staged u, s and t = log(s) rows — plus the
// fused importance-sampling axis fill z = shift + n, dot += shift * z.
//
// W > 1 is instantiated in batch_w{2,4,8}.cpp, compiled with the
// matching -m flags; batch.cpp instantiates W = 1 as the `scalar` ISA.
// All of them build with -ffp-contract=off (see DESIGN.md §15).  Each
// kernel is a one-strip body `*_strip<W>`; an outer loop runs W-wide strips
// and finishes the tail lanes with `*_strip<1>`.
#pragma once

#include <cmath>
#include <cstddef>

#include "sttram/common/simd.hpp"

namespace sttram {

/// n[i] = u[i] * sqrt(-2 * t[i] / s[i]) with t = log(s) staged upstream.
using PolarTailFn = void (*)(const double* u, const double* s,
                             const double* t, std::size_t n, double* out);

/// Fused shifted-axis fill: z[i] = shift + n[i]; dot[i] += shift * z[i].
using GaussianAxisFn = void (*)(const double* u, const double* s,
                                const double* t, double shift,
                                std::size_t n, double* z_row, double* dot);

struct StatsSimdKernels {
  PolarTailFn polar_tail = nullptr;
  GaussianAxisFn gaussian_axis = nullptr;
};

/// nullptr when the width is not compiled in on this target.
const StatsSimdKernels* stats_simd_kernels_w2();
const StatsSimdKernels* stats_simd_kernels_w4();
const StatsSimdKernels* stats_simd_kernels_w8();

namespace simd_detail {
namespace {  // internal linkage, see common/simd.hpp

/// n = u * sqrt(-2 * t / s) on lanes [k, k + W) — exactly
/// sample_standard_normal's return expression `u * std::sqrt(-2.0 *
/// std::log(s) / s)` with log(s) staged upstream.
template <int W>
simd::Vec<W> polar_tail_strip(const double* u, const double* s,
                              const double* t, std::size_t k) {
  using V = simd::Vec<W>;
  return V::load(u + k) *
         vsqrt(V::splat(-2.0) * V::load(t + k) / V::load(s + k));
}

template <int W>
void polar_tail_simd(const double* u, const double* s, const double* t,
                     std::size_t n, double* out) {
  std::size_t k = 0;
  for (; k + W <= n; k += W) polar_tail_strip<W>(u, s, t, k).store(out + k);
  for (; k < n; ++k) polar_tail_strip<1>(u, s, t, k).store(out + k);
}

/// z = shift + n, dot += shift * z on lanes [k, k + W).
template <int W>
void gaussian_axis_strip(const double* u, const double* s, const double* t,
                         double shift, std::size_t k, double* z_row,
                         double* dot) {
  using V = simd::Vec<W>;
  const V vshift = V::splat(shift);
  const V z = vshift + polar_tail_strip<W>(u, s, t, k);
  z.store(z_row + k);
  (V::load(dot + k) + vshift * z).store(dot + k);
}

template <int W>
void gaussian_axis_simd(const double* u, const double* s, const double* t,
                        double shift, std::size_t n, double* z_row,
                        double* dot) {
  std::size_t k = 0;
  for (; k + W <= n; k += W) {
    gaussian_axis_strip<W>(u, s, t, shift, k, z_row, dot);
  }
  for (; k < n; ++k) gaussian_axis_strip<1>(u, s, t, shift, k, z_row, dot);
}

}  // namespace
}  // namespace simd_detail
}  // namespace sttram
