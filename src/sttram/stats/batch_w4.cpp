// Width-4 Gaussian kernels, compiled with -mavx2 -ffp-contract=off.
#include "sttram/stats/batch_simd.hpp"

namespace sttram {

const StatsSimdKernels* stats_simd_kernels_w4() {
#if defined(__x86_64__)
  static const StatsSimdKernels kernels{
      &simd_detail::polar_tail_simd<4>,
      &simd_detail::gaussian_axis_simd<4>,
      &simd_detail::polar_stage_simd<4>};
  return &kernels;
#else
  return nullptr;
#endif
}

}  // namespace sttram
