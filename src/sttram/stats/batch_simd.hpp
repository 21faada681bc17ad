// Per-width instantiations of the Gaussian-fill kernels (stats/batch.cpp
// dispatches on active_simd_isa()).
//
// The Marsaglia polar sampler splits into three stages:
//   1. the rejection loop, which consumes the rng stream.  It runs on W
//      lanes at once: W xoshiro256** streams (rng.hpp's formulas on
//      unsigned 64-bit lanes) draw in lock step, and a lane's stream
//      position only advances through the draws it makes while still
//      pending, so each lane consumes its own stream draw for draw,
//      exactly as the scalar loop would (DESIGN.md §15.2).
//   2. log(s), a transcendental that stays a scalar libm call per lane
//      (vector math libs are not correctly rounded).
//   3. the value tail n = u * sqrt(-2*log(s)/s), which is pure correctly
//      rounded arithmetic and vectorizes bit-identically.
// polar_stage_simd implements stage 1; polar_tail_simd and
// gaussian_axis_simd implement stage 3 — given staged u, s and t = log(s)
// rows — the latter fused with the importance-sampling axis fill
// z = shift + n, dot += shift * z.
//
// W > 1 is instantiated in batch_w{2,4,8}.cpp, compiled with the
// matching -m flags; batch.cpp instantiates W = 1 as the `scalar` ISA.
// All of them build with -ffp-contract=off (see DESIGN.md §15).  Each
// kernel is a one-strip body `*_strip<W>`; an outer loop runs W-wide strips
// and finishes the tail lanes with `*_strip<1>`.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sttram/common/simd.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {

/// n[i] = u[i] * sqrt(-2 * t[i] / s[i]) with t = log(s) staged upstream.
using PolarTailFn = void (*)(const double* u, const double* s,
                             const double* t, std::size_t n, double* out);

/// Fused shifted-axis fill: z[i] = shift + n[i]; dot[i] += shift * z[i].
using GaussianAxisFn = void (*)(const double* u, const double* s,
                                const double* t, double shift,
                                std::size_t n, double* z_row, double* dot);

/// Stages accepted polar pairs for lanes [first, first + count) of
/// master's fork streams (the contract of stage_polar_pairs).
using PolarStageFn = void (*)(const Xoshiro256& master, std::size_t first,
                              std::size_t count, std::size_t pairs,
                              const PolarWindow* window, double* u_rows,
                              double* s_rows, std::size_t stride);

struct StatsSimdKernels {
  PolarTailFn polar_tail = nullptr;
  GaussianAxisFn gaussian_axis = nullptr;
  PolarStageFn polar_stage = nullptr;
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

/// W xoshiro256** streams, one per lane, each holding its lane's
/// committed position in master.fork(stream).
template <int W>
struct LaneStreams {
  using U = typename simd::LaneTraits<W>::vu;
  using M = typename simd::LaneTraits<W>::vm;
  using V = simd::Vec<W>;

  U s0, s1, s2, s3;

  /// Lane i = master.fork(stream0 + i).
  static LaneStreams fork(const Xoshiro256& master, std::uint64_t stream0) {
    U stream{};
    for (int i = 0; i < W; ++i) stream[i] = stream0 + i;
    const U seed = master.fork_seed(stream);
    return {Xoshiro256::seed_word(seed, 0), Xoshiro256::seed_word(seed, 1),
            Xoshiro256::seed_word(seed, 2), Xoshiro256::seed_word(seed, 3)};
  }

  /// The polar sampler's coordinate 2 * next_double() - 1 of 64 raw bits
  /// x.  With m = x >> 11 (53 bits) the scalar expression is exactly
  /// (m - 2^52) * 2^-52.  Here bits 62..11 of x become the mantissa of
  /// y = 1 + r * 2^-52 in [1, 2), and the top bit of m selects y - 1
  /// (set) or y - 2 (clear).  Both subtractions are exact (Sterbenz),
  /// so the lanes get the scalar doubles bit for bit without any
  /// int -> double conversion.
  static V centered_unit(U x) {
    constexpr std::uint64_t kOne = 0x3ff0000000000000ULL;  // bits of 1.0
    const U y_bits = ((x >> 11) & 0x000fffffffffffffULL) | kOne;
    // Bits of 2.0, minus one exponent step (-> 1.0) when bit 63 is set.
    const U c_bits = 0x4000000000000000ULL - ((x >> 63) << 52);
    V y{}, c{};
    __builtin_memcpy(&y.v, &y_bits, sizeof(U));
    __builtin_memcpy(&c.v, &c_bits, sizeof(U));
    return y - c;
  }

  /// Lanes where s lies in (0, 1): the polar sampler accepts the pair.
  static U polar_ok(V s) {
    return (U)(V::splat(0.0) < s) & (U)(s < V::splat(1.0));
  }

  /// Draws polar candidates — u, v = 2 * next_double() - 1, s = u^2 + v^2
  /// — on every lane until each lane is done.  `finish(pending, u, s)`
  /// returns the pending lanes this candidate finishes, and
  /// `keep(done, u, s)` records it for them.  The running state steps on
  /// every lane each draw (so the step chain never waits on the
  /// acceptance test), but a lane's committed state only takes the state
  /// after the draw that finished it; draws a lane makes after that are
  /// discarded.  Each lane therefore consumes exactly the draws the
  /// scalar loop would.  With one lane the loop simply stops at that
  /// draw, so W = 1 needs no masking at all.
  template <class Finish, class Keep>
  void draw_until(Finish&& finish, Keep&& keep) {
    U t0 = s0, t1 = s1, t2 = s2, t3 = s3;
    U pending = ~U{};
    for (;;) {
      const U x1 = Xoshiro256::scramble(t1);
      Xoshiro256::step(t0, t1, t2, t3);
      const U x2 = Xoshiro256::scramble(t1);
      Xoshiro256::step(t0, t1, t2, t3);
      const V u = centered_unit(x1);
      const V v = centered_unit(x2);
      const V s = u * u + v * v;
      const U done = finish(pending, u, s);
      if constexpr (W == 1) {
        if (done[0] == 0) continue;
        keep(~U{}, u, s);
        s0 = t0, s1 = t1, s2 = t2, s3 = t3;
        return;
      }
      keep(done, u, s);
      s0 = (t0 & done) | (s0 & ~done);
      s1 = (t1 & done) | (s1 & ~done);
      s2 = (t2 & done) | (s2 & ~done);
      s3 = (t3 & done) | (s3 & ~done);
      pending &= ~done;
      if (!simd::mask_any<W>(pending)) return;
    }
  }

  /// One accepted pair per lane, stored to u_out[0..W) / s_out[0..W).
  void stage_pair(double* u_out, double* s_out) {
    V u_acc = V::splat(0.0), s_acc = V::splat(0.0);
    draw_until([](U pending, V, V s) { return pending & polar_ok(s); },
               [&](U done, V u, V s) {
                 u_acc = V::select((M)done, u, u_acc);
                 s_acc = V::select((M)done, s, s_acc);
               });
    u_acc.store(u_out);
    s_acc.store(s_out);
  }

  /// The dropped truncated-normal draw: per lane, candidate normals until
  /// one falls inside the window.
  void skip_window(const PolarWindow& w) {
    const V s_safe = V::splat(w.s_safe);
    int rejected[W] = {};
    const auto finish = [&](U pending, V u, V s) {
      const U normal = pending & polar_ok(s);
      U done = normal & (U)(s_safe <= s);
      const U slow = normal & ~done;
      if (simd::mask_any<W>(slow)) {
        for (int i = 0; i < W; ++i) {
          if (slow[i] == 0) continue;
          if (w.accepts_exact(u[i], s[i])) {
            done[i] = ~0ULL;
          } else if (++rejected[i] == kTruncatedNormalMaxTries) {
            throw_truncated_normal_exhausted();
          }
        }
      }
      return done;
    };
    draw_until(finish, [](U, V, V) {});
  }

  /// The lanes' pairs (and window draw) in draw order; lane i's pair p
  /// goes to u_rows[p * stride + i].
  void stage(std::size_t pairs, const PolarWindow* window, double* u_rows,
             double* s_rows, std::size_t stride) {
    for (std::size_t p = 0; p < pairs; ++p) {
      if (window != nullptr && window->before_pair == p) skip_window(*window);
      stage_pair(u_rows + p * stride, s_rows + p * stride);
    }
  }
};

/// Strips of W lanes, forked kForkInterleave at a time: the splitmix
/// multiply chain of one fork is latency-bound, so independent strips
/// fill its gaps.  Tail lanes run as W = 1 strips.
template <int W>
void polar_stage_simd(const Xoshiro256& master, std::size_t first,
                      std::size_t count, std::size_t pairs,
                      const PolarWindow* window, double* u_rows,
                      double* s_rows, std::size_t stride) {
  constexpr std::size_t kForkInterleave = 4;
  constexpr std::size_t kGroup = kForkInterleave * W;
  std::size_t k = 0;
  for (; k + kGroup <= count; k += kGroup) {
    LaneStreams<W> lanes[kForkInterleave] = {};
    for (std::size_t g = 0; g < kForkInterleave; ++g) {
      lanes[g] = LaneStreams<W>::fork(master, first + k + g * W);
    }
    for (std::size_t g = 0; g < kForkInterleave; ++g) {
      lanes[g].stage(pairs, window, u_rows + k + g * W, s_rows + k + g * W,
                     stride);
    }
  }
  for (; k + W <= count; k += W) {
    LaneStreams<W>::fork(master, first + k)
        .stage(pairs, window, u_rows + k, s_rows + k, stride);
  }
  for (; k < count; ++k) {
    LaneStreams<1>::fork(master, first + k)
        .stage(pairs, window, u_rows + k, s_rows + k, stride);
  }
}

}  // namespace
}  // namespace simd_detail
}  // namespace sttram
