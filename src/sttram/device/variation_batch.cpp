// Batched SoA variation sampling (declaration in variation.hpp).
//
// Per lane the draw sequence is exactly MtjVariationModel::sample
// followed by the access-device lognormal: common factor, TMR factor,
// (optional) truncated-normal critical-current factor, access factor.
// stage_polar_pairs (stats/batch.hpp) walks that sequence on SIMD lanes:
// the three lognormals' polar pairs are stored, and the truncated-normal
// draw (whose count is data-dependent) runs as a PolarWindow whose value
// is dropped, because the margin kernels don't read i_critical.  Each
// lognormal exp(mu + sigma * n) then takes its value tail
// n = u * sqrt(-2 log(s) / s) on the active SIMD ISA, with log and exp
// as scalar libm calls, so every lane's doubles are bit-identical to the
// scalar path's.
#include <algorithm>
#include <array>
#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/obs/profile.hpp"

namespace sttram {

void sample_variation_block(const Xoshiro256& master,
                            const MtjVariationModel& variation,
                            double r_access_nominal, double sigma_access,
                            std::size_t first, std::size_t count,
                            VariationBlock& out) {
  require(count <= kMcBlockSize,
          "sample_variation_block: count exceeds kMcBlockSize");
  require(r_access_nominal > 0.0 && sigma_access >= 0.0,
          "sample_variation_block: need r_access_nominal > 0, sigma >= 0");
  STTRAM_PROFILE_SCOPE("variation.sample");
  out.size = count;
  const VariationParams& vp = variation.variation();
  const MtjParams& nominal = variation.nominal();

  // Stage the three lognormals' polar pairs (each lane's stream walks
  // its draws in the scalar order, the i_critical draw included), rows
  // SoA for the tail.
  alignas(64) std::array<double, 3 * kMcBlockSize> u_rows, s_rows;
  alignas(64) std::array<double, kMcBlockSize> t_row, n_row;
  PolarWindow icrit;
  if (vp.sigma_icrit > 0.0) {
    icrit = PolarWindow::make(1.0, vp.sigma_icrit,
                              std::max(0.05, 1.0 - 4.0 * vp.sigma_icrit),
                              1.0 + 4.0 * vp.sigma_icrit, 2);
  }
  stage_polar_pairs(master, first, count, 3,
                    vp.sigma_icrit > 0.0 ? &icrit : nullptr, u_rows.data(),
                    s_rows.data(), kMcBlockSize);

  // Lognormal factor per staged slot: exp(mu + sigma * n), mu and exp
  // scalar, the normal's value tail vectorized.
  const auto lognormal_row = [&](std::size_t pair, double median,
                                 double sigma,
                                 std::array<double, kMcBlockSize>& val) {
    const double mu = std::log(median);
    const double* u = u_rows.data() + pair * kMcBlockSize;
    const double* s = s_rows.data() + pair * kMcBlockSize;
    for (std::size_t lane = 0; lane < count; ++lane) {
      t_row[lane] = std::log(s[lane]);
    }
    polar_tail(u, s, t_row.data(), count, n_row.data());
    for (std::size_t lane = 0; lane < count; ++lane) {
      val[lane] = std::exp(mu + sigma * n_row[lane]);
    }
  };

  alignas(64) std::array<double, kMcBlockSize> common, tmr;
  lognormal_row(0, 1.0, vp.sigma_common, common);
  lognormal_row(1, 1.0, vp.sigma_tmr, tmr);
  lognormal_row(2, r_access_nominal, sigma_access, out.r_access);

  for (std::size_t lane = 0; lane < count; ++lane) {
    const MtjParams p = nominal.scaled(common[lane], tmr[lane]);
    out.r_low0[lane] = p.r_low0.value();
    out.r_high0[lane] = p.r_high0.value();
    out.droop_low[lane] = p.droop_low.value();
    out.droop_high[lane] = p.droop_high.value();
  }
}

}  // namespace sttram
