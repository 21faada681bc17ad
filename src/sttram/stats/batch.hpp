// Structure-of-arrays blocks for batched Monte-Carlo trial kernels.
//
// The scalar MC paths draw one trial's variation vector, solve it, and
// move on — every solve walks a fresh set of heap-allocated scheme
// objects and the compiler can't vectorize across trials.  These blocks
// re-stage the same work as: sample a block of trials into SoA arrays,
// run a closed-form kernel over all lanes (straight-line arithmetic on
// contiguous doubles), reduce.  A block of 64 trials keeps every array
// of this header inside L1, and every row starts on a 64-byte boundary
// so the SIMD kernels (common/simd.hpp) stream it with aligned loads.
//
// Bit-identity contract: a lane's samples come from exactly the stream
// the scalar path would fork for that trial index (`master.fork(first +
// lane)`), drawn in exactly the scalar draw order — so the SoA arrays
// hold the *same doubles* the scalar path consumed, and any batch
// split of [0, trials) produces identical values lane by lane.  The
// polar rejection runs on SIMD lanes too: W xoshiro256** streams advance
// in lock step, and a lane whose pair is accepted is masked off, so it
// consumes its stream draw for draw (batch_simd.hpp).  Only the libm
// log/exp calls stay scalar per lane.
//
// (Sampling *device* variation into a VariationBlock lives in
// device/variation.hpp — the distribution parameters are the device
// layer's, and stats must not depend on device.)
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sttram/common/simd.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {

/// Default trial-block size: 64 lanes x ~6 SoA arrays of doubles = 3 kB,
/// comfortably L1-resident alongside the kernel's per-column tables.
inline constexpr std::size_t kMcBlockSize = 64;

/// One block of sampled per-cell device variation, SoA across lanes.
/// Field order mirrors what the margin kernels consume: the four linear
/// R-I law parameters plus the access-device resistance.
struct VariationBlock {
  std::size_t size = 0;  ///< valid lanes (<= kMcBlockSize)
  alignas(64) std::array<double, kMcBlockSize> r_low0;
  alignas(64) std::array<double, kMcBlockSize> r_high0;
  alignas(64) std::array<double, kMcBlockSize> droop_low;
  alignas(64) std::array<double, kMcBlockSize> droop_high;
  alignas(64) std::array<double, kMcBlockSize> r_access;
};

/// One block of shifted standard-normal draws for importance sampling,
/// dimension-major (`z[d * capacity + lane]`) so a kernel sweeping one
/// coordinate across all lanes reads contiguously.  `dot[lane]` carries
/// the likelihood-ratio accumulator `shift . z` the weight needs.
struct GaussianBlock {
  std::size_t dim = 0;
  std::size_t size = 0;        ///< valid lanes
  std::size_t capacity = 0;    ///< lane stride of `z` (multiple of 8)
  aligned_vector<double> z;    ///< dim x capacity, dimension-major
  aligned_vector<double> dot;  ///< shift . z per lane

  /// Rounds the lane stride up to a multiple of 8 so every axis row
  /// starts 64-byte aligned.
  void reset(std::size_t new_dim, std::size_t new_capacity) {
    dim = new_dim;
    capacity = (new_capacity + 7) / 8 * 8;
    size = 0;
    z.assign(dim * capacity, 0.0);
    dot.assign(capacity, 0.0);
  }

  /// Pointer to coordinate `d` of lane 0.
  [[nodiscard]] const double* axis(std::size_t d) const {
    return z.data() + d * capacity;
  }
  [[nodiscard]] double* axis(std::size_t d) {
    return z.data() + d * capacity;
  }
};

/// A truncated-normal draw N(mean, stddev) restricted to [lo, hi] whose
/// value is consumed and dropped: it walks exactly the rng draws of
/// sample_truncated_normal, so every later draw of the lane stays
/// aligned with the scalar path, but nothing is stored.  Each candidate
/// normal is one accepted polar pair (u, s), n = u * sqrt(-2 log(s) / s).
/// Because u^2 <= s, |n| <= sqrt(-2 ln s): a pair with s >= s_safe lands
/// inside [lo, hi] whatever u is, and is accepted without evaluating
/// log (DESIGN.md §14.1).  Any other pair runs the scalar test.
struct PolarWindow {
  double mean = 0.0;
  double stddev = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double s_safe = 1.0;          ///< s >= s_safe accepts without a log
  std::size_t before_pair = 0;  ///< runs just before stored pair #before_pair

  /// Requires lo < hi and stddev > 0; derives s_safe conservatively.
  static PolarWindow make(double mean, double stddev, double lo, double hi,
                          std::size_t before_pair);

  /// sample_truncated_normal's test of the candidate sample_normal
  /// returns for this pair: lo <= mean + stddev * n <= hi, log included.
  /// The stager calls it only for pairs with s < s_safe.
  [[nodiscard]] bool accepts_exact(double u, double s) const;
};

/// Runs the Marsaglia polar rejection loop of sample_standard_normal for
/// lanes [first, first + count) of `master`'s fork streams, but stops
/// before the value tail.  Lane i walks master.fork(first + i) and stores
/// its `pairs` accepted pairs in draw order: pair p goes to
/// u_rows[p * stride + i] / s_rows[p * stride + i] instead of returning
/// u * sqrt(-2 log(s) / s).  A non-null `window` adds its dropped draw
/// before pair window->before_pair (< pairs).  The lanes run on the
/// active SIMD ISA, each consuming its stream draw for draw as the
/// scalar sampler does.  Throws NumericError where
/// sample_truncated_normal would.
void stage_polar_pairs(const Xoshiro256& master, std::size_t first,
                       std::size_t count, std::size_t pairs,
                       const PolarWindow* window, double* u_rows,
                       double* s_rows, std::size_t stride);

/// Value tail over staged rows: out[i] = u[i] * sqrt(-2 log(s[i]) / s[i]),
/// bit-identical per lane to sample_standard_normal's return.  The
/// caller supplies t[i] = std::log(s[i]) (scalar libm stays outside the
/// vector kernel).  Dispatches on active_simd_isa().
void polar_tail(const double* u, const double* s, const double* t,
                std::size_t n, double* out);

/// Fills lanes [first, first + count) of the shifted proposal
/// N(shift, I)^dim into `out`, replicating importance_sample's per-trial
/// draw order exactly (fork trial stream; per dimension: draw, shift,
/// accumulate the dot product).  `out` must have been reset() with
/// capacity >= count and matching dim.
void fill_shifted_gaussian_block(const Xoshiro256& master,
                                 const std::vector<double>& shift,
                                 std::size_t first, std::size_t count,
                                 GaussianBlock& out);

}  // namespace sttram
