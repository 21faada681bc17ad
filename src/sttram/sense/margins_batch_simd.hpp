// Width-generic instantiations of the batched sense-margin kernels.
//
// Each kernel is written once as `template <int W>` over Vec<W> lanes: a
// one-strip body `*_strip<W>` plus an outer loop that runs W-wide strips and
// finishes the block tail (and, for yield, each column-table wrap) with
// `*_strip<1>`.  The per-width TUs (margins_batch_w2/w4/w8.cpp) are the
// only files compiled with wider -m flags; margins_batch.cpp instantiates
// W = 1 as the `scalar` ISA.  Everything here is lane-parallel IEEE
// arithmetic (+, -, *, /, compare/select/abs, min/max in scalar-predicate
// form); the only libm calls (exp in the tail kernel) run scalar per
// lane, so every width reproduces the per-cell scheme objects (the
// oracle) bitwise.  The TUs are compiled with -ffp-contract=off: FMA
// contraction would change rounding and break that contract.
//
// The yield kernel's outputs are SoA (YieldMarginsSoA: one row per
// scheme/bit, contiguous across cells), so the vector path retires each
// of its 8 output vectors with one contiguous W-wide store — no
// cross-lane shuffles anywhere in the hot loop.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "sttram/common/simd.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/stats/batch.hpp"

namespace sttram {

/// Per-ISA kernel entry points this library exports.  A getter returns
/// nullptr when the width is not compiled for the target architecture.
struct SenseSimdKernels {
  YieldSolveFn yield_solve = nullptr;
  TailMarginsFn tail_margins = nullptr;
};

const SenseSimdKernels* sense_simd_kernels_w2();  // SSE2 / NEON baseline
const SenseSimdKernels* sense_simd_kernels_w4();  // AVX2
const SenseSimdKernels* sense_simd_kernels_w8();  // AVX-512 F+DQ

namespace simd_detail {
namespace {  // internal linkage, see common/simd.hpp

/// One W-lane strip of the yield solve: cells [lane, lane + W), whose
/// columns [c, c + W) are contiguous in the per-column tables.  Returns
/// the second-read bit-line voltages (v_p2, v_ap2) for the caller to fold
/// into the shared-reference window bounds.
template <int W>
std::pair<simd::Vec<W>, simd::Vec<W>> yield_strip(
    const YieldKernelTables& k, const VariationBlock& block, std::size_t lane,
    std::size_t c, double* const* out_rows) {
  using V = simd::Vec<W>;
  const V i_max = V::splat(k.i_max);
  const V vrl = V::load(block.r_low0.data() + lane);
  const V vrh = V::load(block.r_high0.data() + lane);
  const V vdl = V::load(block.droop_low.data() + lane);
  const V vdh = V::load(block.droop_high.data() + lane);
  const V r_t = V::load(block.r_access.data() + lane);
  // Second-read (I2 = I_max) path resistances and bit-line voltages —
  // shared by all four schemes.
  const V r_p2 = vrl - vdl * V::splat(k.frac2);
  const V r_ap2 = vrh - vdh * V::splat(k.frac2);
  const V v_p2 = i_max * (r_p2 + r_t);
  const V v_ap2 = i_max * (r_ap2 + r_t);
  // Conventional sensing against the shared V_REF (+ column error).
  const V vref = V::load(k.v_ref_conv.data() + c);
  (vref - v_p2).store(out_rows[0] + lane);
  (v_ap2 - vref).store(out_rows[1] + lane);
  // Reference-cell sensing: the column pair's midpoint sees the same
  // per-cell access device as the data read.
  const V v_rp = i_max * (V::load(k.r_ref_p2.data() + c) + r_t);
  const V v_rap = i_max * (V::load(k.r_ref_ap2.data() + c) + r_t);
  const V v_ref_rc = V::splat(0.5) * (v_rp + v_rap);
  (v_ref_rc - v_p2).store(out_rows[2] + lane);
  (v_ap2 - v_ref_rc).store(out_rows[3] + lane);
  // Destructive self-reference: the erased-cell second read IS v_p2.
  {
    const V i1 = V::load(k.i1_d.data() + c);
    const V f1 = V::load(k.frac1_d.data() + c);
    const V r_p1 = vrl - vdl * f1;
    const V r_ap1 = vrh - vdh * f1;
    (i1 * (r_ap1 + r_t) - v_p2).store(out_rows[5] + lane);
    (v_p2 - i1 * (r_p1 + r_t)).store(out_rows[4] + lane);
  }
  // Nondestructive self-reference: first read vs divided second read.
  {
    const V i1 = V::load(k.i1_n.data() + c);
    const V f1 = V::load(k.frac1_n.data() + c);
    const V r_p1 = vrl - vdl * f1;
    const V r_ap1 = vrh - vdh * f1;
    const V ae = V::load(k.alpha_eff.data() + c);
    (i1 * (r_ap1 + r_t) - ae * v_ap2).store(out_rows[7] + lane);
    (ae * v_p2 - i1 * (r_p1 + r_t)).store(out_rows[6] + lane);
  }
  return {v_p2, v_ap2};
}

/// W-lane yield solve.  W-wide strips run where the next W columns are
/// contiguous in the per-column tables; the lanes left before a column
/// wrap (at most once per `cols` lanes) or the block tail run W = 1
/// strips.  The window bounds accumulate per vector slot and fold at the
/// end — exact, because max/min over positive finite voltages is
/// order-independent.
template <int W>
void yield_solve_simd(const YieldKernelTables& k, const VariationBlock& block,
                      std::size_t first_cell, double* const* out_rows,
                      double* max_low, double* min_high) {
  using V = simd::Vec<W>;
  double ml = *max_low;
  double mh = *min_high;
  V vml = V::splat(ml);
  V vmh = V::splat(mh);
  std::size_t c = first_cell % k.cols;
  std::size_t lane = 0;
  while (lane < block.size) {
    // One run: the lanes up to the next column wrap or the block tail.
    const std::size_t end = lane + std::min(block.size - lane, k.cols - c);
    // W = 1 skips this loop so its window bounds stay plain doubles (GCC
    // keeps a loop-carried one-lane vector in memory, not a register).
    for (; W > 1 && lane + W <= end; lane += W, c += W) {
      // Not a structured binding: GCC 12 spills both vectors per strip.
      const auto v2 = yield_strip<W>(k, block, lane, c, out_rows);
      vml = vmax(vml, v2.first);
      vmh = vmin(vmh, v2.second);
    }
    for (; lane < end; ++lane, ++c) {
      const auto v2 = yield_strip<1>(k, block, lane, c, out_rows);
      ml = std::max(ml, v2.first[0]);
      mh = std::min(mh, v2.second[0]);
    }
    if (c == k.cols) c = 0;
  }
  for (int i = 0; i < W; ++i) {
    ml = std::max(ml, vml[i]);
    mh = std::min(mh, vmh[i]);
  }
  *max_low = ml;
  *min_high = mh;
}

/// One W-lane strip of the tail margins-min: lanes [lane, lane + W).  The
/// three exponentials per lane stay scalar libm calls (vector math
/// libraries are not bit-identical to libm); the surrounding arithmetic
/// runs on vectors.
template <int W>
void tail_strip(const TailKernelTables& k, const GaussianBlock& block,
                std::size_t lane, double* out) {
  using V = simd::Vec<W>;
  const V one = V::splat(1.0);
  const V i_max = V::splat(k.i_max);
  const V r_low0 = V::splat(k.r_low0);
  const V droop_low = V::splat(k.droop_low);
  // MtjParams::scaled(common, tmr) on the nominal device, unfolded.  The
  // exp arguments are vector muls (bit-identical to the scalar mul); the
  // exp itself is libm per lane.
  const V arg_c = V::splat(k.sigma_common) * V::load(block.axis(0) + lane);
  const V arg_t = V::splat(k.sigma_tmr) * V::load(block.axis(1) + lane);
  const V arg_a = V::splat(k.sigma_access) * V::load(block.axis(2) + lane);
  alignas(64) double e_c[W], e_t[W], e_a[W];
  for (int i = 0; i < W; ++i) e_c[i] = std::exp(arg_c[i]);
  for (int i = 0; i < W; ++i) e_t[i] = std::exp(arg_t[i]);
  for (int i = 0; i < W; ++i) e_a[i] = std::exp(arg_a[i]);
  const V common = V::load(e_c);
  const V tmr = V::load(e_t);
  const V excess0 = V::splat(k.excess0_base) * tmr;
  const V excess_droop = V::splat(k.excess_droop_base) * tmr;
  const V r_l0 = r_low0 * common;
  const V r_h0 = (r_low0 + excess0) * common;
  const V d_l = droop_low * common;
  const V d_h = (droop_low + excess_droop) * common;
  const V r_t = V::splat(k.r_access_nominal) * V::load(e_a);
  const V beta_eff = V::splat(k.beta) *
                     (one + V::splat(k.sigma_beta) *
                                V::load(block.axis(3) + lane));
  const V alpha_eff = V::splat(k.alpha) *
                      (one + V::splat(k.sigma_alpha) *
                                 V::load(block.axis(4) + lane));
  const V i1 = i_max / beta_eff;
  const V frac1 = vmin(vabs(i1) / V::splat(k.idr), V::splat(1.5));
  const V r_p1 = r_l0 - d_l * frac1;
  const V r_ap1 = r_h0 - d_h * frac1;
  const V r_p2 = r_l0 - d_l * V::splat(k.frac2);
  const V r_ap2 = r_h0 - d_h * V::splat(k.frac2);
  const V sm1 = i1 * (r_ap1 + r_t) - alpha_eff * (i_max * (r_ap2 + r_t));
  const V sm0 = alpha_eff * (i_max * (r_p2 + r_t)) - i1 * (r_p1 + r_t);
  vmin(sm0, sm1).store(out + lane);
}

/// W-lane tail margins-min: W-wide strips, then W = 1 strips for the
/// block tail.
template <int W>
void tail_margins_simd(const TailKernelTables& k, const GaussianBlock& block,
                       double* out) {
  std::size_t lane = 0;
  for (; lane + W <= block.size; lane += W) tail_strip<W>(k, block, lane, out);
  for (; lane < block.size; ++lane) tail_strip<1>(k, block, lane, out);
}

}  // namespace
}  // namespace simd_detail
}  // namespace sttram
