#include "sttram/stats/batch.hpp"

#include <algorithm>
#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/stats/batch_simd.hpp"

namespace sttram {
namespace {

/// The widest Gaussian-tail table the active ISA can run; the `scalar`
/// ISA gets the W = 1 instantiation of the same templates.
const StatsSimdKernels& active_stats_kernels() {
  static const StatsSimdKernels kW1{&simd_detail::polar_tail_simd<1>,
                                    &simd_detail::gaussian_axis_simd<1>,
                                    &simd_detail::polar_stage_simd<1>};
  return simd_ladder(active_simd_isa(), stats_simd_kernels_w8(),
                     stats_simd_kernels_w4(), stats_simd_kernels_w2(), kW1);
}

}  // namespace

PolarWindow PolarWindow::make(double mean, double stddev, double lo,
                              double hi, std::size_t before_pair) {
  require(lo < hi && stddev > 0.0,
          "PolarWindow: need lo < hi and stddev > 0");
  PolarWindow w{mean, stddev, lo, hi, 1.0, before_pair};
  // Half-width, in standard deviations, of the widest window centred on
  // the mean that fits inside [lo, hi].  |n| <= sqrt(-2 ln s), so any
  // s >= exp(-k^2 / 2) keeps the candidate inside it; shrinking k by 1 %
  // absorbs the few-ulp rounding of log, sqrt and mean + stddev * n.
  // k <= 0 (mean outside the window) or NaN leaves s_safe = 1: no pair
  // has s >= 1, so every candidate takes the exact test.
  const double k = 0.99 * std::min(hi - mean, mean - lo) / stddev;
  if (k > 0.0) w.s_safe = std::exp(-0.5 * k * k);
  return w;
}

bool PolarWindow::accepts_exact(double u, double s) const {
  const double x = mean + stddev * (u * std::sqrt(-2.0 * std::log(s) / s));
  return x >= lo && x <= hi;
}

void stage_polar_pairs(const Xoshiro256& master, std::size_t first,
                       std::size_t count, std::size_t pairs,
                       const PolarWindow* window, double* u_rows,
                       double* s_rows, std::size_t stride) {
  require(count <= stride && (window == nullptr || window->before_pair < pairs),
          "stage_polar_pairs: count exceeds stride or window out of range");
  active_stats_kernels().polar_stage(master, first, count, pairs, window,
                                     u_rows, s_rows, stride);
}

void polar_tail(const double* u, const double* s, const double* t,
                std::size_t n, double* out) {
  active_stats_kernels().polar_tail(u, s, t, n, out);
}

void fill_shifted_gaussian_block(const Xoshiro256& master,
                                 const std::vector<double>& shift,
                                 std::size_t first, std::size_t count,
                                 GaussianBlock& out) {
  require(out.dim == shift.size() && out.capacity >= count,
          "fill_shifted_gaussian_block: block not sized for this fill");
  out.size = count;
  // Stage the rejection draws — each lane's stream is forked once and
  // walked through all dims in order, exactly the scalar sequence — into
  // dimension-major (u, s) rows the vector tail sweeps.
  thread_local aligned_vector<double> u_rows, s_rows, t_rows;
  u_rows.resize(out.dim * out.capacity);
  s_rows.resize(out.dim * out.capacity);
  t_rows.resize(out.capacity);
  stage_polar_pairs(master, first, count, out.dim, nullptr, u_rows.data(),
                    s_rows.data(), out.capacity);
  const GaussianAxisFn axis_fn = active_stats_kernels().gaussian_axis;
  for (std::size_t lane = 0; lane < count; ++lane) out.dot[lane] = 0.0;
  for (std::size_t d = 0; d < out.dim; ++d) {
    const double* s_row = &s_rows[d * out.capacity];
    for (std::size_t lane = 0; lane < count; ++lane) {
      t_rows[lane] = std::log(s_row[lane]);
    }
    axis_fn(&u_rows[d * out.capacity], s_row, t_rows.data(), shift[d],
            count, out.axis(d), out.dot.data());
  }
}

}  // namespace sttram
