// Width-2 Gaussian kernels: SSE2 on x86-64, NEON on aarch64 (both baseline
// ISAs, so no extra -m flags — just -ffp-contract=off -fno-math-errno).
#include "sttram/stats/batch_simd.hpp"

namespace sttram {

const StatsSimdKernels* stats_simd_kernels_w2() {
#if defined(__x86_64__) || defined(__aarch64__)
  static const StatsSimdKernels kernels{
      &simd_detail::polar_tail_simd<2>,
      &simd_detail::gaussian_axis_simd<2>,
      // Two 64-bit integer lanes lose to scalar registers (no 64-bit
      // rotate or multiply on SSE2/NEON), so the draws run at W = 1.
      &simd_detail::polar_stage_simd<1>};
  return &kernels;
#else
  return nullptr;
#endif
}

}  // namespace sttram
