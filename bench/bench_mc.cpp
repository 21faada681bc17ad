// Batched SoA Monte-Carlo kernel throughput on the Fig. 11 yield
// reproduction (16-kb array, four sensing schemes per cell).
//
// The headline metric is the margin-solve kernel itself: trials/sec of
// the batched SoA solve vs the scalar per-cell path (which rebuilds
// heap-allocated scheme objects per cell), measured in-process on the
// same pre-sampled 16-kb population so the ratio is machine-independent.
// End-to-end yield and tail throughput ride along, plus per-ISA sampler
// rates (variation blocks, shifted-Gaussian fills), the batched Simmons
// Newton and the operating-point cache hit rate.
//
// The batched kernels dispatch on active_simd_isa(); this bench times
// every ISA the host supports (forced via set_simd_isa_override, bitwise
// gated against the scalar oracle first) and claims >= 2x for the widest
// SIMD width over the scalar ISA — the W = 1 instantiation of the same
// kernel template — on AVX2-class hardware.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.hpp"
#include "sttram/cell/array.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/device/op_cache.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/distributions.hpp"

using namespace sttram;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Best-of-N wall time of `body()`.
template <typename Body>
double best_of(int reps, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

bool margins_equal(const std::array<SenseMargins, 4>& a,
                   const std::array<SenseMargins, 4>& b) {
  for (std::size_t s = 0; s < 4; ++s) {
    if (a[s].sm0.value() != b[s].sm0.value()) return false;
    if (a[s].sm1.value() != b[s].sm1.value()) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  argc = bench::apply_bench_dir_flag(argc, argv);
  (void)argc;
  (void)argv;
  bench::heading("MC kernels", "batched SoA margin kernels (16-kb Fig. 11)");
  // The op-cache hit rate below reads the registry, which the metrics
  // sidecar only arms when STTRAM_BENCH_METRICS is not 0.
  obs::set_metrics_enabled(true);

  // --- the Fig. 11 population (exactly what sim/yield samples) --------
  YieldConfig cfg;  // 128 x 128 = 16 kb
  const std::size_t cells = cfg.geometry.cell_count();
  const MtjParams nominal = MtjParams::paper_calibrated();
  const MtjVariationModel variation(nominal, cfg.variation);
  const MemoryArray array(cfg.geometry, variation, cfg.sigma_access,
                          cfg.seed);

  const double beta_d =
      cached_destructive_beta(nominal, Ohm(917.0), cfg.selfref);
  const double beta_n =
      cached_nondestructive_beta(nominal, Ohm(917.0), cfg.selfref);
  const Volt shared_v_ref =
      cached_shared_v_ref(nominal, Ohm(917.0), cfg.selfref.i_max);

  const Xoshiro256 column_master(cfg.seed ^ 0x5741524d5454536bULL);
  YieldKernelInputs inputs;
  inputs.selfref = cfg.selfref;
  inputs.i_droop_ref = nominal.i_droop_ref.value();
  inputs.beta_destructive = beta_d;
  inputs.beta_nondestructive = beta_n;
  inputs.shared_v_ref = shared_v_ref;
  inputs.col_vref_err.resize(cfg.geometry.cols);
  inputs.col_beta_dev.resize(cfg.geometry.cols);
  inputs.col_alpha_dev.resize(cfg.geometry.cols);
  inputs.col_ref_p.resize(cfg.geometry.cols);
  inputs.col_ref_ap.resize(cfg.geometry.cols);
  for (std::size_t c = 0; c < cfg.geometry.cols; ++c) {
    Xoshiro256 stream = column_master.fork(c);
    inputs.col_beta_dev[c] = sample_normal(stream, 0.0, cfg.sigma_beta);
    inputs.col_alpha_dev[c] = sample_normal(stream, 0.0, cfg.sigma_alpha);
    inputs.col_vref_err[c] =
        sample_normal(stream, 0.0, cfg.sigma_vref.value());
    inputs.col_ref_p[c] = variation.sample(stream);
    inputs.col_ref_ap[c] = variation.sample(stream);
  }
  // Scalar oracle: the per-cell solve sim/yield ran before batching
  // (fresh scheme objects per cell).
  const auto scalar_cell = [&](std::size_t idx,
                               std::array<SenseMargins, 4>& m) {
    const std::size_t col = idx % cfg.geometry.cols;
    const ArrayCell& cell = array.cell(idx / cfg.geometry.cols, col);
    const LinearRiModel model(cell.params);
    const FixedAccessResistor access(cell.r_access);
    const ConventionalSensing conv(model, access, cfg.selfref.i_max);
    m[0] = conv.margins(shared_v_ref + Volt(inputs.col_vref_err[col]));
    const LinearRiModel ref_p(inputs.col_ref_p[col]);
    const LinearRiModel ref_ap(inputs.col_ref_ap[col]);
    const ReferenceCellSensing ref_cell(model, access, ref_p, ref_ap,
                                        cfg.selfref.i_max);
    m[1] = ref_cell.margins();
    SchemeMismatch mm;
    mm.beta_deviation = inputs.col_beta_dev[col];
    m[2] = DestructiveSelfReference(model, access, cfg.selfref)
               .margins(beta_d, mm);
    mm.alpha_deviation = inputs.col_alpha_dev[col];
    m[3] = NondestructiveSelfReference(model, access, cfg.selfref)
               .margins(beta_n, mm);
  };

  // Pre-sampled SoA blocks: the kernel timing below measures the solve,
  // not the sampling (sampling throughput is part of the end-to-end
  // yield number).
  const Xoshiro256 cell_master(cfg.seed);
  const std::size_t n_blocks = (cells + kMcBlockSize - 1) / kMcBlockSize;
  std::vector<VariationBlock> blocks(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t first = b * kMcBlockSize;
    sample_variation_block(cell_master, variation, 917.0, cfg.sigma_access,
                           first, std::min(cells - first, kMcBlockSize),
                           blocks[b]);
  }

  // Correctness gate before any timing: batched == scalar per cell, for
  // every margin-kernel ISA this host supports (forced one at a time via
  // set_simd_isa_override; each is timed only after it passes bitwise).
  std::vector<std::array<SenseMargins, 4>> scalar_m(cells);
  YieldMarginsSoA batched_m;
  batched_m.resize(cells);
  for (std::size_t idx = 0; idx < cells; ++idx) {
    scalar_cell(idx, scalar_m[idx]);
  }
  volatile double sink = 0.0;  // keep the solves observable
  const auto solve_all = [&](const YieldBatchKernel& k) {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < n_blocks; ++b) {
      k.solve(blocks[b], b * kMcBlockSize, &batched_m, &lo, &hi);
    }
    sink = lo + hi;
  };

  const SimdIsa active_isa = active_simd_isa();
  bool identical = true;
  double batched_s = 0.0;     // active-ISA solve time
  double scalar_isa_s = 0.0;  // forced-kScalar (W = 1) solve time
  std::printf("margin solve (4 schemes/cell, %zu cells):\n", cells);
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kNeon,
                      SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (!simd_isa_supported(isa)) continue;
    set_simd_isa_override(isa);
    const YieldBatchKernel k = YieldBatchKernel::build(inputs);
    solve_all(k);
    bool isa_ok = true;
    for (std::size_t idx = 0; idx < cells; ++idx) {
      if (!margins_equal(scalar_m[idx], batched_m.cell(idx))) isa_ok = false;
    }
    identical = identical && isa_ok;
    const double s = best_of(20, [&] { solve_all(k); });
    if (isa == SimdIsa::kScalar) scalar_isa_s = s;
    if (isa == active_isa) batched_s = s;
    std::printf("  %-7s %8.2f ns/cell  (%.3g trials/sec)%s%s\n",
                simd_isa_name(isa), 1e9 * s / static_cast<double>(cells),
                static_cast<double>(cells) / s,
                isa == active_isa ? "  [active]" : "",
                isa_ok ? "" : "  MISMATCH vs oracle");
  }
  clear_simd_isa_override();

  // --- samplers: lane-parallel draw streams --------------------------
  // Each ISA's blocks are checked against the per-cell fork streams
  // first: variation blocks against MemoryArray's cells, Gaussian fills
  // against fork + sample_standard_normal + shift per trial.
  const std::vector<double> shift = {0.5, -1.25, 2.0, 0.0, -0.75};
  static_assert(kTailDimensions == 5);
  const std::size_t fill_trials = 16384;
  std::vector<double> fill_oracle(fill_trials * shift.size());
  for (std::size_t trial = 0; trial < fill_trials; ++trial) {
    Xoshiro256 stream = cell_master.fork(trial);
    for (std::size_t d = 0; d < shift.size(); ++d) {
      fill_oracle[trial * shift.size() + d] =
          shift[d] + sample_standard_normal(stream);
    }
  }
  VariationBlock sample_block;
  GaussianBlock fill_block;
  fill_block.reset(shift.size(), kMcBlockSize);
  const auto sample_all = [&](bool check) {
    bool ok = true;
    for (std::size_t first = 0; first < cells; first += kMcBlockSize) {
      const std::size_t count = std::min(cells - first, kMcBlockSize);
      sample_variation_block(cell_master, variation, 917.0,
                             cfg.sigma_access, first, count, sample_block);
      for (std::size_t lane = 0; check && lane < count; ++lane) {
        const std::size_t idx = first + lane;
        const ArrayCell& cell =
            array.cell(idx / cfg.geometry.cols, idx % cfg.geometry.cols);
        ok = ok && sample_block.r_low0[lane] == cell.params.r_low0.value() &&
             sample_block.r_high0[lane] == cell.params.r_high0.value() &&
             sample_block.droop_low[lane] == cell.params.droop_low.value() &&
             sample_block.droop_high[lane] ==
                 cell.params.droop_high.value() &&
             sample_block.r_access[lane] == cell.r_access.value();
      }
    }
    sink = sample_block.r_access[0];
    return ok;
  };
  const auto fill_all = [&](bool check) {
    bool ok = true;
    for (std::size_t first = 0; first < fill_trials; first += kMcBlockSize) {
      const std::size_t count = std::min(fill_trials - first, kMcBlockSize);
      fill_shifted_gaussian_block(cell_master, shift, first, count,
                                  fill_block);
      for (std::size_t lane = 0; check && lane < count; ++lane) {
        for (std::size_t d = 0; d < shift.size(); ++d) {
          ok = ok && fill_block.axis(d)[lane] ==
                         fill_oracle[(first + lane) * shift.size() + d];
        }
      }
    }
    sink = fill_block.dot[0];
    return ok;
  };
  bool draws_identical = true;
  std::printf("samplers (variation: %zu cells, gaussian fill: %zu trials x "
              "%zu dims):\n",
              cells, fill_trials, shift.size());
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kNeon,
                      SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (!simd_isa_supported(isa)) continue;
    set_simd_isa_override(isa);
    const bool isa_ok = sample_all(true) && fill_all(true);
    draws_identical = draws_identical && isa_ok;
    const double sample_s = best_of(10, [&] { sample_all(false); });
    const double fill_s = best_of(10, [&] { fill_all(false); });
    std::printf("  %-7s variation sample %7.2f ns/cell   gaussian fill "
                "%7.2f ns/trial%s%s\n",
                simd_isa_name(isa), 1e9 * sample_s / static_cast<double>(cells),
                1e9 * fill_s / static_cast<double>(fill_trials),
                isa == active_isa ? "  [active]" : "",
                isa_ok ? "" : "  MISMATCH vs fork streams");
  }
  clear_simd_isa_override();
  std::printf("\n");

  // Heap-object oracle timing (the pre-batching per-cell path).
  const double scalar_s = best_of(5, [&] {
    std::array<SenseMargins, 4> m;
    double acc = 0.0;
    for (std::size_t idx = 0; idx < cells; ++idx) {
      scalar_cell(idx, m);
      acc += m[3].sm0.value();
    }
    sink = acc;
  });
  (void)sink;
  const double scalar_rate = static_cast<double>(cells) / scalar_s;
  const double speedup = scalar_s / batched_s;
  const double simd_speedup =
      batched_s > 0.0 ? scalar_isa_s / batched_s : 1.0;
  std::printf("  oracle  %8.2f ns/cell  (%.3g trials/sec)  "
              "[per-cell scheme objects]\n",
              1e9 * scalar_s / static_cast<double>(cells), scalar_rate);
  std::printf("  speedup  %7.1fx vs oracle, %.2fx vs scalar-ISA batch\n\n",
              speedup, simd_speedup);

  // --- end-to-end yield + tail ---------------------------------------
  YieldConfig e2e = cfg;
  e2e.max_scatter_points = 1;
  const auto y0 = std::chrono::steady_clock::now();
  const YieldResult yr = run_yield_experiment(e2e, nullptr);
  const double yield_s = seconds_since(y0);
  YieldConfig other = e2e;
  other.use_batch = false;
  const YieldResult yr_other = run_yield_experiment(other, nullptr);
  const bool e2e_identical =
      yr.nondestructive.failures == yr_other.nondestructive.failures &&
      yr.conventional.failures == yr_other.conventional.failures &&
      yr.nondestructive.sm0_stats.mean() ==
          yr_other.nondestructive.sm0_stats.mean() &&
      yr.shared_reference_window.value() ==
          yr_other.shared_reference_window.value();
  std::printf("end-to-end yield (batched): %.3f s (%.3g cells/sec)\n",
              yield_s, static_cast<double>(cells) / yield_s);

  TailConfig tail;
  const std::size_t tail_trials = 20000;
  const auto t0 = std::chrono::steady_clock::now();
  const TailEstimate te = estimate_margin_tail(tail, 1, tail_trials);
  const double tail_s = seconds_since(t0);
  std::printf("tail sampling (batched): %zu trials in %.3f s (%.3g "
              "trials/sec), P(fail)/bit = %.3e\n\n",
              tail_trials, tail_s,
              static_cast<double>(tail_trials) / tail_s,
              te.estimate.probability);

  // --- batched Simmons Newton ----------------------------------------
  const SimmonsRiModel simmons = SimmonsRiModel::calibrated_to(nominal);
  std::vector<double> currents(4096);
  for (std::size_t k = 0; k < currents.size(); ++k) {
    currents[k] = 1e-7 + 1.5e-8 * static_cast<double>(k);
  }
  std::vector<double> v_out(currents.size());
  const double simmons_s = best_of(5, [&] {
    simmons.bias_voltage_batch(MtjState::kAntiParallel, currents.data(),
                               currents.size(), v_out.data());
  });
  std::printf("Simmons Newton (batched): %.3g solves/sec\n\n",
              static_cast<double>(currents.size()) / simmons_s);

  // --- claims ---------------------------------------------------------
  const bool avx2_class = simd_isa_supported(SimdIsa::kAvx2);
  bool simd_ok = true;
  std::printf("Claims:\n");
  bench::claim("batched margins bit-identical to the scalar oracle "
               "(every supported ISA x 4 schemes x 16 kb)",
               identical);
  bench::claim("end-to-end yield identical with batching on vs off",
               e2e_identical);
  bench::claim("lane draws bit-identical to per-cell fork streams "
               "(every supported ISA)",
               draws_identical);
  bench::claim("margin-solve kernel >= 10x the scalar path", speedup >= 10.0);
  if (avx2_class) {
    simd_ok = simd_speedup >= 2.0;
    bench::claim("SIMD margin kernel >= 2x the scalar-ISA batch loop "
                 "(AVX2-class host)",
                 simd_ok);
  }

  // --- operating-point cache ------------------------------------------
  const auto& registry = obs::Registry::instance();
  std::uint64_t op_hits = 0, op_misses = 0;
  for (const auto& c : registry.counters()) {
    if (c.name == "mc.opcache.hits") op_hits = c.value;
    if (c.name == "mc.opcache.misses") op_misses = c.value;
  }
  const double hit_rate =
      op_hits + op_misses > 0
          ? static_cast<double>(op_hits) /
                static_cast<double>(op_hits + op_misses)
          : 0.0;
  std::printf("\nop-cache: %llu hits / %llu misses (hit rate %.1f %%)\n",
              static_cast<unsigned long long>(op_hits),
              static_cast<unsigned long long>(op_misses), 100.0 * hit_rate);

  return bench::exit_status(
      identical && e2e_identical && draws_identical && simd_ok ? 0 : 1);
}
