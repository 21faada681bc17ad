// 8-lane sense kernels, compiled with -mavx512f -mavx512dq (plus
// -ffp-contract=off so no mul+add fuses into an FMA — contraction would
// change rounding and break bit-identity with the per-cell oracle).
#include "sttram/sense/margins_batch_simd.hpp"

namespace sttram {

const SenseSimdKernels* sense_simd_kernels_w8() {
#if defined(__x86_64__)
  static const SenseSimdKernels kTable{
      &simd_detail::yield_solve_simd<8>,
      &simd_detail::tail_margins_simd<8>,
  };
  return &kTable;
#else
  return nullptr;
#endif
}

}  // namespace sttram
