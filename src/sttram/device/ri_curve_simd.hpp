// Per-width instantiations of the Simmons Newton solve (ri_curve.cpp
// dispatches on active_simd_isa()).
//
// The vector kernel runs every lane through the same Newton iteration the
// scalar bias_voltage() (the oracle) runs — converged lanes keep computing
// but their v is frozen by an active-lane select, so each lane's update
// sequence (and therefore its result) is bit-identical to it.
// Zero-current lanes start inactive with v = 0, matching its early-out.
//
// The W > 1 templates are instantiated inside ri_curve_w{2,4,8}.cpp,
// compiled with the matching -m flags; ri_curve.cpp instantiates W = 1 as
// the `scalar` ISA.  All of them build with -ffp-contract=off (an FMA
// contraction would change the rounding of f = g0*v*(1+u^2) - i).
#pragma once

#include <cmath>
#include <cstddef>

#include "sttram/common/simd.hpp"

namespace sttram {

/// One Newton solve family: v such that (1/r0) * v * (1 + (v/vh)^2) = |i|.
using SimmonsNewtonFn = void (*)(double r0, double vh, const double* i_amps,
                                 std::size_t n, double* v_out);

struct DeviceSimdKernels {
  SimmonsNewtonFn simmons_newton = nullptr;
};

/// nullptr when the width is not compiled in on this target.
const DeviceSimdKernels* device_simd_kernels_w2();
const DeviceSimdKernels* device_simd_kernels_w4();
const DeviceSimdKernels* device_simd_kernels_w8();

namespace simd_detail {
namespace {  // internal linkage, see common/simd.hpp

/// Masked vector Newton over lanes [k, k + W), per-lane convergence masks.
template <int W>
void simmons_newton_strip(double r0, double vh, const double* i_amps,
                          std::size_t k, double* v_out) {
  using V = simd::Vec<W>;
  using M = typename simd::LaneTraits<W>::vm;
  const V vg0 = V::splat(1.0 / r0);
  const V vvh = V::splat(vh);
  const V one = V::splat(1.0);
  const V zero = V::splat(0.0);
  const V tiny = V::splat(1e-15);
  const V eps = V::splat(1e-15);
  const V cur = vabs(V::load(i_amps + k));
  const M zero_cur = (cur == zero);
  M active = ~zero_cur;
  V v = V::select(zero_cur, zero, cur * V::splat(r0));
  for (int iter = 0; iter < 60 && simd::mask_any<W>(active); ++iter) {
    const V u = v / vvh;
    const V uu = u * u;
    const V f = vg0 * v * (one + uu) - cur;
    const V df = vg0 * (one + V::splat(3.0) * uu);
    const V step = f / df;
    V v_new = v - step;
    v_new = V::select(v_new <= zero, tiny, v_new);
    const M conv = vabs(step) < eps * (one + vabs(v_new));
    v = V::select(active, v_new, v);
    active = active & ~conv;
  }
  v.store(v_out + k);
}

/// W-wide strips, then W = 1 strips for the tail lanes.
template <int W>
void simmons_newton_simd(double r0, double vh, const double* i_amps,
                         std::size_t n, double* v_out) {
  std::size_t k = 0;
  for (; k + W <= n; k += W) simmons_newton_strip<W>(r0, vh, i_amps, k, v_out);
  for (; k < n; ++k) simmons_newton_strip<1>(r0, vh, i_amps, k, v_out);
}

}  // namespace
}  // namespace simd_detail
}  // namespace sttram
