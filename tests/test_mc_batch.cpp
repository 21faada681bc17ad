// Batched SoA Monte-Carlo kernels vs the scalar paths: the differential
// bit-identity proof behind YieldConfig::use_batch / TailConfig::use_batch
// (DESIGN.md §14), plus the operating-point cache's correctness contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sttram/cell/array.hpp"
#include "sttram/common/error.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/device/op_cache.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/importance.hpp"

namespace sttram {
namespace {

using engine::ThreadPool;

// ------------------------------------------------------- exact equality

void expect_scheme_equal(const SchemeYield& a, const SchemeYield& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.sm0_stats.count(), b.sm0_stats.count());
  EXPECT_EQ(a.sm0_stats.mean(), b.sm0_stats.mean());
  EXPECT_EQ(a.sm0_stats.variance(), b.sm0_stats.variance());
  EXPECT_EQ(a.sm0_stats.min(), b.sm0_stats.min());
  EXPECT_EQ(a.sm0_stats.max(), b.sm0_stats.max());
  EXPECT_EQ(a.sm1_stats.mean(), b.sm1_stats.mean());
  EXPECT_EQ(a.sm1_stats.variance(), b.sm1_stats.variance());
  EXPECT_EQ(a.sm1_stats.min(), b.sm1_stats.min());
  EXPECT_EQ(a.sm1_stats.max(), b.sm1_stats.max());
  ASSERT_EQ(a.scatter.size(), b.scatter.size());
  for (std::size_t i = 0; i < a.scatter.size(); ++i) {
    EXPECT_EQ(a.scatter[i].first, b.scatter[i].first);
    EXPECT_EQ(a.scatter[i].second, b.scatter[i].second);
  }
  ASSERT_EQ(a.per_bit_min_margin.size(), b.per_bit_min_margin.size());
  for (std::size_t i = 0; i < a.per_bit_min_margin.size(); ++i) {
    EXPECT_EQ(a.per_bit_min_margin[i], b.per_bit_min_margin[i]);
  }
}

void expect_yield_equal(const YieldResult& a, const YieldResult& b) {
  expect_scheme_equal(a.conventional, b.conventional);
  expect_scheme_equal(a.reference_cell, b.reference_cell);
  expect_scheme_equal(a.destructive, b.destructive);
  expect_scheme_equal(a.nondestructive, b.nondestructive);
  EXPECT_EQ(a.die_factor, b.die_factor);
  EXPECT_EQ(a.shared_reference_window.value(),
            b.shared_reference_window.value());
  EXPECT_EQ(a.shared_v_ref.value(), b.shared_v_ref.value());
  EXPECT_EQ(a.beta_destructive, b.beta_destructive);
  EXPECT_EQ(a.beta_nondestructive, b.beta_nondestructive);
}

void expect_estimate_equal(const ImportanceEstimate& a,
                           const ImportanceEstimate& b) {
  EXPECT_EQ(a.probability, b.probability);
  EXPECT_EQ(a.std_error, b.std_error);
  EXPECT_EQ(a.relative_error, b.relative_error);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.hits, b.hits);
}

void expect_tail_equal(const TailEstimate& a, const TailEstimate& b) {
  expect_estimate_equal(a.estimate, b.estimate);
  ASSERT_EQ(a.design_point.size(), b.design_point.size());
  for (std::size_t i = 0; i < a.design_point.size(); ++i) {
    EXPECT_EQ(a.design_point[i], b.design_point[i]);
  }
  EXPECT_EQ(a.design_radius, b.design_radius);
  EXPECT_EQ(a.expected_failures_16kb, b.expected_failures_16kb);
}

/// RAII ISA pin: a failing EXPECT inside a forced section must not leak
/// the override into the remaining tests.
class ScopedSimdIsa {
 public:
  explicit ScopedSimdIsa(SimdIsa isa) { set_simd_isa_override(isa); }
  ~ScopedSimdIsa() { clear_simd_isa_override(); }
  ScopedSimdIsa(const ScopedSimdIsa&) = delete;
  ScopedSimdIsa& operator=(const ScopedSimdIsa&) = delete;
};

// -------------------------------------------- yield: batched vs scalar

YieldResult run_with(const YieldConfig& base, bool batch,
                     ParallelExecutor* executor = nullptr) {
  YieldConfig cfg = base;
  cfg.use_batch = batch;
  return run_yield_experiment(cfg, executor);
}

/// Spans three tiles of the batched sweep (two full 2^15-cell tiles plus
/// a remainder), with a scatter stride (71857 / 13 = 5527) that does not
/// divide the tile size, so tile boundaries fall inside scatter strides.
YieldConfig multi_tile_corner() {
  YieldConfig cfg;
  cfg.geometry = {181, 397};  // 71 857 cells
  cfg.max_scatter_points = 13;
  cfg.keep_per_bit_margins = true;
  return cfg;
}

TEST(McBatchYield, BitIdenticalToScalarAcrossCorners) {
  // Default corner, hot corner, off-center die, scatter subsampling, and
  // the per-bit-margin overlay all take the same code paths the campaign
  // goldens gate — each must match the scalar oracle double for double.
  // The last corner crosses tile boundaries of the batched sweep.
  std::vector<YieldConfig> corners(5);
  corners[0].geometry = {24, 32};
  corners[1].geometry = {24, 32};
  corners[1].variation.sigma_common = 0.09;
  corners[2].geometry = {16, 48};
  corners[2].die_sigma = 0.05;
  corners[3].geometry = {32, 32};
  corners[3].max_scatter_points = 7;
  corners[4].geometry = {16, 16};
  corners[4].keep_per_bit_margins = true;
  corners[4].beta_destructive = 1.22;  // explicit override path
  corners.push_back(multi_tile_corner());
  for (const YieldConfig& cfg : corners) {
    expect_yield_equal(run_with(cfg, true), run_with(cfg, false));
  }
}

TEST(McBatchYield, ThreadCountBitIdentity) {
  YieldConfig single_tile;
  single_tile.geometry = {32, 48};
  single_tile.keep_per_bit_margins = true;
  for (const YieldConfig& cfg : {single_tile, multi_tile_corner()}) {
    const YieldResult serial = run_with(cfg, true);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      expect_yield_equal(serial, run_with(cfg, true, &pool));
      expect_yield_equal(serial, run_with(cfg, false, &pool));
    }
  }
}

// --------------------------------------------- tail: batched vs scalar

TEST(McBatchTail, BitIdenticalToScalarAcrossThresholdsAndThreads) {
  for (const double threshold_mv : {6.0, 8.0, 10.0}) {
    TailConfig cfg;
    cfg.threshold = Volt(threshold_mv * 1e-3);
    cfg.use_batch = true;
    TailConfig scalar = cfg;
    scalar.use_batch = false;
    const TailEstimate batched = estimate_margin_tail(cfg, 7, 4000);
    expect_tail_equal(batched, estimate_margin_tail(scalar, 7, 4000));
    for (const std::size_t threads : {2u, 8u}) {
      ThreadPool pool(threads);
      expect_tail_equal(batched, estimate_margin_tail(cfg, 7, 4000, &pool));
      expect_tail_equal(batched,
                        estimate_margin_tail(scalar, 7, 4000, &pool));
    }
  }
}

TEST(McBatchTail, EstimateInvariantUnderBlockSize) {
  TailConfig base;
  base.use_batch = true;
  base.block_size = 0;  // default kMcBlockSize
  const TailEstimate reference = estimate_margin_tail(base, 3, 3000);
  for (const std::size_t block : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}, std::size_t{3000}}) {
    TailConfig cfg = base;
    cfg.block_size = block;
    expect_tail_equal(reference, estimate_margin_tail(cfg, 3, 3000));
  }
}

// ------------------------------------- importance weights: block sizes

TEST(McBatchImportance, WeightsInvariantUnderBlockSizeAndThreads) {
  // Synthetic linear failure surface: fail when z0 + 0.5 z1 > 2.5.
  const std::vector<double> shift = {2.0, 1.0, 0.0};
  const auto scalar_fails = [](const std::vector<double>& z) {
    return z[0] + 0.5 * z[1] > 2.5;
  };
  const auto block_fails = [](const GaussianBlock& block, std::size_t,
                              std::uint8_t* fails) {
    const double* z0 = block.axis(0);
    const double* z1 = block.axis(1);
    for (std::size_t lane = 0; lane < block.size; ++lane) {
      if (z0[lane] + 0.5 * z1[lane] > 2.5) fails[lane] = 1;
    }
  };
  const std::size_t trials = 5000;
  const ImportanceEstimate reference =
      importance_sample(11, trials, shift, scalar_fails);
  EXPECT_GT(reference.hits, 0u);
  for (const std::size_t block : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}, std::size_t{0}}) {
    expect_estimate_equal(reference,
                          importance_sample_blocked(11, trials, shift,
                                                    block_fails, nullptr,
                                                    block));
  }
  ThreadPool pool(4);
  expect_estimate_equal(
      reference,
      importance_sample_blocked(11, trials, shift, block_fails, &pool, 64));
}

// ------------------------------------------------------------ op cache

TEST(OpCache, HitMissAndEvictionCorrectness) {
  OpCache cache;
  // The memoized value must be the pure function of the key no matter
  // how often entries are hit, missed, or evicted on the way.
  const auto value_of = [](std::uint64_t key) {
    OperatingPoint op;
    op.beta = static_cast<double>(key % 97) + 0.5;
    return op;
  };
  std::size_t solves = 0;
  const auto lookup = [&](std::uint64_t key) {
    return cache
        .get_or_compute(key,
                        [&] {
                          ++solves;
                          return value_of(key);
                        })
        .beta;
  };
  const std::uint64_t k1 = op_key_mix(op_key(OpKind::kDestructiveBeta), 1.0);
  EXPECT_EQ(lookup(k1), value_of(k1).beta);
  EXPECT_EQ(solves, 1u);
  EXPECT_EQ(lookup(k1), value_of(k1).beta);  // hit: no new solve
  EXPECT_EQ(solves, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Blow through the 64-slot table to force evictions, then re-query
  // everything: values stay correct whether served cached or recomputed.
  std::vector<std::uint64_t> keys;
  for (double v = 0.0; v < 300.0; v += 1.0) {
    keys.push_back(op_key_mix(op_key(OpKind::kSharedVRef), v));
  }
  for (const std::uint64_t k : keys) EXPECT_EQ(lookup(k), value_of(k).beta);
  for (const std::uint64_t k : keys) EXPECT_EQ(lookup(k), value_of(k).beta);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 2 * keys.size() + 2);

  cache.clear();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(lookup(k1), value_of(k1).beta);  // cold again
}

TEST(OpCache, CachedOperatingPointsMatchDirectConstruction) {
  const MtjParams nominal = MtjParams::paper_calibrated();
  const SelfRefConfig selfref;
  const Ohm r_t(917.0);
  EXPECT_EQ(cached_destructive_beta(nominal, r_t, selfref),
            DestructiveSelfReference(nominal, r_t, selfref).paper_beta());
  EXPECT_EQ(cached_nondestructive_beta(nominal, r_t, selfref),
            NondestructiveSelfReference(nominal, r_t, selfref).paper_beta());
  EXPECT_EQ(cached_shared_v_ref(nominal, r_t, selfref.i_max).value(),
            ConventionalSensing(nominal, r_t, selfref.i_max)
                .midpoint_reference()
                .value());
}

TEST(OpCache, ColdVsWarmCacheDeterminism) {
  YieldConfig cfg;
  cfg.geometry = {16, 24};
  OpCache::local_shard().clear();
  const YieldResult cold = run_with(cfg, true);  // serial: this thread's shard
  const OpCacheStats after_cold = OpCache::local_shard().stats();
  EXPECT_GT(after_cold.misses, 0u);
  const YieldResult warm = run_with(cfg, true);
  const OpCacheStats after_warm = OpCache::local_shard().stats();
  EXPECT_GT(after_warm.hits, after_cold.hits);
  expect_yield_equal(cold, warm);

  TailConfig tail;
  OpCache::local_shard().clear();
  const TailEstimate tail_cold = estimate_margin_tail(tail, 5, 2000);
  const TailEstimate tail_warm = estimate_margin_tail(tail, 5, 2000);
  expect_tail_equal(tail_cold, tail_warm);
}

// ---------------------------------------------- batched Newton (Simmons)

TEST(McBatchRiCurve, SimmonsBatchedNewtonBitIdentical) {
  const SimmonsRiModel model =
      SimmonsRiModel::calibrated_to(MtjParams::paper_calibrated());
  // Mixed-convergence grid: zero current, tiny, nominal, and far beyond
  // the calibration point (lanes retire at different iterations).  Its
  // 22 lanes leave a remainder at every width, so each ISA runs both its
  // W-wide strips and the W = 1 tail against the scalar bias_voltage().
  std::vector<double> grid = {0.0, 1e-9, 1e-7, 5e-6, 2e-5, 1e-4};
  for (double i = 1e-6; i < 6e-5; i += 3.7e-6) grid.push_back(i);
  ASSERT_EQ(grid.size(), 22u);
  std::vector<double> v_batch(grid.size()), r_batch(grid.size());
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kNeon,
                            SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (!simd_isa_supported(isa)) continue;
    SCOPED_TRACE(simd_isa_name(isa));
    ScopedSimdIsa forced(isa);
    for (const MtjState state :
         {MtjState::kParallel, MtjState::kAntiParallel}) {
      model.bias_voltage_batch(state, grid.data(), grid.size(),
                               v_batch.data());
      model.resistance_batch(state, grid.data(), grid.size(), r_batch.data());
      for (std::size_t k = 0; k < grid.size(); ++k) {
        EXPECT_EQ(v_batch[k],
                  model.bias_voltage(state, Ampere(grid[k])).value())
            << "lane " << k;
        EXPECT_EQ(r_batch[k],
                  model.resistance(state, Ampere(grid[k])).value())
            << "lane " << k;
      }
    }
  }
}

TEST(McBatchRiCurve, LinearBatchedBitIdentical) {
  const LinearRiModel model(MtjParams::paper_calibrated());
  const std::vector<double> grid = {0.0, 1e-6, 1e-5, 2e-5, 4e-5, 1e-4};
  std::vector<double> r_batch(grid.size());
  for (const MtjState state : {MtjState::kParallel, MtjState::kAntiParallel}) {
    model.resistance_batch(state, grid.data(), grid.size(), r_batch.data());
    for (std::size_t k = 0; k < grid.size(); ++k) {
      EXPECT_EQ(r_batch[k], model.resistance(state, Ampere(grid[k])).value());
    }
  }
}

// -------------------------------------------------------- observability

std::uint64_t counter_value(const char* name) {
  for (const auto& c : obs::Registry::instance().counters()) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::uint64_t histogram_count(const char* name) {
  for (const auto& h : obs::Registry::instance().histograms()) {
    if (h.name == name) return h.hist.summary().count;
  }
  return 0;
}

TEST(McBatchObs, MetricsOnVsOffBitIdentityAndCounters) {
  YieldConfig cfg;
  cfg.geometry = {16, 32};
  obs::set_metrics_enabled(false);
  const YieldResult off = run_with(cfg, true);
  obs::set_metrics_enabled(true);
  const YieldResult on = run_with(cfg, true);
  const TailEstimate tail_on = estimate_margin_tail(TailConfig{}, 5, 1000);
  obs::set_metrics_enabled(false);
  const TailEstimate tail_off = estimate_margin_tail(TailConfig{}, 5, 1000);
  expect_yield_equal(off, on);
  expect_tail_equal(tail_off, tail_on);

  // The instrumented run must have published the batching telemetry.
  const auto& registry = obs::Registry::instance();
  bool saw_hits = false, saw_misses = false, saw_gauge = false;
  std::uint64_t opcache_total = 0;
  for (const auto& c : registry.counters()) {
    if (c.name == "mc.opcache.hits") {
      saw_hits = true;
      opcache_total += c.value;
    }
    if (c.name == "mc.opcache.misses") {
      saw_misses = true;
      opcache_total += c.value;
    }
  }
  for (const auto& g : registry.gauges()) {
    if (g.name == "mc.batch_size") {
      saw_gauge = true;
      EXPECT_EQ(g.value, static_cast<double>(kMcBlockSize));
    }
  }
  EXPECT_TRUE(saw_hits);
  EXPECT_TRUE(saw_misses);
  EXPECT_TRUE(saw_gauge);
  EXPECT_GT(opcache_total, 0u);
  bool saw_hist = false;
  for (const auto& h : registry.histograms()) {
    if (h.name == "mc.block_seconds") {
      saw_hist = true;
      EXPECT_GT(h.hist.summary().count, 0u);
    }
  }
  EXPECT_TRUE(saw_hist);

  // Counter and histogram totals over a multi-tile array: the per-tile
  // counter adds must sum to the per-bit totals, and a serial sweep must
  // time exactly one block per kMcBlockSize cells.
  const YieldConfig multi = multi_tile_corner();
  const std::size_t cells = multi.geometry.cell_count();
  const std::uint64_t evals_before = counter_value("yield.margin_evaluations");
  const std::uint64_t fails_before = counter_value("yield.margin_failures");
  const std::uint64_t blocks_before = histogram_count("mc.block_seconds");
  obs::set_metrics_enabled(true);
  ThreadPool one(1);
  const YieldResult metered = run_with(multi, true, &one);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(counter_value("yield.margin_evaluations") - evals_before,
            4 * cells);
  EXPECT_EQ(counter_value("yield.margin_failures") - fails_before,
            metered.conventional.failures + metered.reference_cell.failures +
                metered.destructive.failures +
                metered.nondestructive.failures);
  EXPECT_EQ(histogram_count("mc.block_seconds") - blocks_before,
            (cells + kMcBlockSize - 1) / kMcBlockSize);
}

// ---------------------------------------------------- forced-ISA matrix

TEST(McSimd, ParseAndOverrideValidation) {
  SimdIsa isa = SimdIsa::kAvx512;
  bool is_auto = false;
  ASSERT_TRUE(parse_simd_isa("auto", &isa, &is_auto));
  EXPECT_TRUE(is_auto);
  EXPECT_EQ(isa, SimdIsa::kAvx512);  // "auto" leaves *out untouched
  const struct {
    const char* token;
    SimdIsa want;
  } cases[] = {{"scalar", SimdIsa::kScalar}, {"sse2", SimdIsa::kSse2},
               {"neon", SimdIsa::kNeon},     {"avx2", SimdIsa::kAvx2},
               {"avx512", SimdIsa::kAvx512}};
  for (const auto& c : cases) {
    ASSERT_TRUE(parse_simd_isa(c.token, &isa, &is_auto)) << c.token;
    EXPECT_FALSE(is_auto) << c.token;
    EXPECT_EQ(isa, c.want) << c.token;
  }
  for (const char* bad : {"bogus", "", "AVX2", "sse", "avx-512"}) {
    EXPECT_FALSE(parse_simd_isa(bad, &isa, &is_auto)) << bad;
  }

  // The scalar path exists everywhere; pinning an ISA the host/build
  // cannot execute must throw instead of silently dispatching garbage.
  EXPECT_TRUE(simd_isa_supported(SimdIsa::kScalar));
  EXPECT_TRUE(simd_isa_supported(detect_simd_isa()));
  for (const SimdIsa candidate : {SimdIsa::kSse2, SimdIsa::kNeon,
                                  SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (simd_isa_supported(candidate)) continue;
    EXPECT_THROW(set_simd_isa_override(candidate), InvalidArgument);
  }
  clear_simd_isa_override();
}

TEST(McSimd, ForcedIsaMatrixBitIdenticalToScalar) {
  // Root reference: the per-cell oracle (scheme objects per cell, scalar
  // per-trial sampling).  Forced-scalar — the W = 1 instantiation of the
  // kernel templates — must reproduce it double for double, and every
  // vector ISA the host can run must reproduce forced-scalar — yield,
  // tail, and importance weights — cold and warm op cache, serial and
  // on 1/2/8 worker threads.
  YieldConfig ycfg;
  ycfg.geometry = {16, 32};
  ycfg.keep_per_bit_margins = true;
  TailConfig tcfg;
  tcfg.use_batch = true;
  TailConfig tcfg_oracle = tcfg;
  tcfg_oracle.use_batch = false;
  const std::vector<double> shift = {2.0, 1.0, 0.0};
  const auto scalar_fails = [](const std::vector<double>& z) {
    return z[0] + 0.5 * z[1] > 2.5;
  };
  const auto block_fails = [](const GaussianBlock& block, std::size_t,
                              std::uint8_t* fails) {
    const double* z0 = block.axis(0);
    const double* z1 = block.axis(1);
    for (std::size_t lane = 0; lane < block.size; ++lane) {
      if (z0[lane] + 0.5 * z1[lane] > 2.5) fails[lane] = 1;
    }
  };
  const auto run_importance = [&] {
    return importance_sample_blocked(11, 4000, shift, block_fails, nullptr,
                                     64);
  };

  const YieldResult y_scalar = [&] {
    ScopedSimdIsa forced(SimdIsa::kScalar);
    return run_with(ycfg, true);
  }();
  const TailEstimate t_scalar = [&] {
    ScopedSimdIsa forced(SimdIsa::kScalar);
    return estimate_margin_tail(tcfg, 7, 3000);
  }();
  const ImportanceEstimate i_scalar = [&] {
    ScopedSimdIsa forced(SimdIsa::kScalar);
    return run_importance();
  }();
  {
    SCOPED_TRACE("scalar vs per-cell oracle");
    expect_yield_equal(run_with(ycfg, false), y_scalar);
    expect_tail_equal(estimate_margin_tail(tcfg_oracle, 7, 3000), t_scalar);
    expect_estimate_equal(importance_sample(11, 4000, shift, scalar_fails),
                          i_scalar);
  }

  for (const SimdIsa isa : {SimdIsa::kSse2, SimdIsa::kNeon, SimdIsa::kAvx2,
                            SimdIsa::kAvx512}) {
    if (!simd_isa_supported(isa)) continue;
    SCOPED_TRACE(simd_isa_name(isa));
    ScopedSimdIsa forced(isa);
    OpCache::local_shard().clear();
    expect_yield_equal(y_scalar, run_with(ycfg, true));  // cold op cache
    expect_yield_equal(y_scalar, run_with(ycfg, true));  // warm op cache
    expect_tail_equal(t_scalar, estimate_margin_tail(tcfg, 7, 3000));
    expect_estimate_equal(i_scalar, run_importance());
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      expect_yield_equal(y_scalar, run_with(ycfg, true, &pool));
      expect_tail_equal(t_scalar,
                        estimate_margin_tail(tcfg, 7, 3000, &pool));
      expect_estimate_equal(i_scalar,
                            importance_sample_blocked(11, 4000, shift,
                                                      block_fails, &pool,
                                                      64));
    }
  }
}

// --------------------------------------------------- sampling fidelity

/// Every ISA this host can run, narrowest first.
std::vector<SimdIsa> supported_isas() {
  std::vector<SimdIsa> out;
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kNeon,
                            SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (simd_isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// Block sizes that cover [0, total): a 3-lane block first, so every
/// later block starts off a multiple of the lane width, then `step`-lane
/// blocks and a remainder.
std::vector<std::size_t> offset_blocks(std::size_t total, std::size_t step) {
  std::vector<std::size_t> counts = {std::min<std::size_t>(3, total)};
  for (std::size_t first = counts[0]; first < total; first += step) {
    counts.push_back(std::min(step, total - first));
  }
  return counts;
}

TEST(McBatchSampling, VariationBlockMatchesMemoryArrayDraws) {
  // Every ISA, against MemoryArray's per-cell fork streams.  7 x 13 = 91
  // cells leaves remainder lanes at every width; the block grid starts
  // both on and off a multiple of the width.  sigma_icrit = 0 skips the
  // i_critical draw; at 0.05 the s_safe shortcut accepts nearly every
  // candidate; at 0.3 lo clamps to 0.05; at 3.0 most candidates take the
  // exact log test and about a third of them are rejected.
  const MtjParams nominal = MtjParams::paper_calibrated();
  const double sigma_access = 0.02;
  const std::uint64_t seed = 20100308;
  const Xoshiro256 master(seed);
  VariationBlock block;
  for (const double sigma_icrit : {0.0, 0.05, 0.3, 3.0}) {
    VariationParams vp;
    vp.sigma_icrit = sigma_icrit;
    const MtjVariationModel variation(nominal, vp);
    for (const ArrayGeometry geometry :
         {ArrayGeometry{8, 16}, ArrayGeometry{7, 13}}) {
      const MemoryArray array(geometry, variation, sigma_access, seed);
      const std::size_t cells = geometry.cell_count();
      const std::vector<std::size_t> aligned(
          (cells + kMcBlockSize - 1) / kMcBlockSize, kMcBlockSize);
      for (const SimdIsa isa : supported_isas()) {
        ScopedSimdIsa forced(isa);
        for (const std::vector<std::size_t>& counts :
             {aligned, offset_blocks(cells, kMcBlockSize)}) {
          std::size_t first = 0;
          for (std::size_t count : counts) {
            count = std::min(count, cells - first);
            SCOPED_TRACE(testing::Message()
                         << simd_isa_name(isa) << " sigma_icrit "
                         << sigma_icrit << " cells " << cells << " first "
                         << first);
            sample_variation_block(master, variation, 917.0, sigma_access,
                                   first, count, block);
            for (std::size_t lane = 0; lane < count; ++lane) {
              const std::size_t idx = first + lane;
              const ArrayCell& cell =
                  array.cell(idx / geometry.cols, idx % geometry.cols);
              EXPECT_EQ(block.r_low0[lane], cell.params.r_low0.value());
              EXPECT_EQ(block.r_high0[lane], cell.params.r_high0.value());
              EXPECT_EQ(block.droop_low[lane], cell.params.droop_low.value());
              EXPECT_EQ(block.droop_high[lane],
                        cell.params.droop_high.value());
              EXPECT_EQ(block.r_access[lane], cell.r_access.value());
            }
            first += count;
          }
          EXPECT_EQ(first, cells);
        }
      }
    }
  }
}

TEST(McBatchSampling, GaussianFillMatchesPerTrialForkStreams) {
  // Every ISA, against importance_sample's per-trial draws: fork the
  // trial's stream, then per dimension z = shift + sample_standard_normal,
  // dot += shift * z.  Blocks of 3, 75 (wider than kMcBlockSize) and a
  // remainder, so strips start off a multiple of the width and every
  // width runs whole strip groups, single strips and W = 1 tail lanes.
  const Xoshiro256 master(977);
  const std::size_t trials = 203;
  for (const std::vector<double>& shift :
       {std::vector<double>{0.5, -1.25, 2.0, 0.0, -0.75},
        std::vector<double>{3.0}}) {
    const std::size_t dim = shift.size();
    std::vector<double> z(trials * dim), dot(trials, 0.0);
    for (std::size_t trial = 0; trial < trials; ++trial) {
      Xoshiro256 stream = master.fork(trial);
      for (std::size_t d = 0; d < dim; ++d) {
        z[trial * dim + d] = shift[d] + sample_standard_normal(stream);
        dot[trial] += shift[d] * z[trial * dim + d];
      }
    }
    GaussianBlock block;
    block.reset(dim, 75);
    for (const SimdIsa isa : supported_isas()) {
      ScopedSimdIsa forced(isa);
      std::size_t first = 0;
      for (const std::size_t count : offset_blocks(trials, 75)) {
        SCOPED_TRACE(testing::Message() << simd_isa_name(isa) << " dim "
                                        << dim << " first " << first);
        fill_shifted_gaussian_block(master, shift, first, count, block);
        ASSERT_EQ(block.size, count);
        for (std::size_t lane = 0; lane < count; ++lane) {
          for (std::size_t d = 0; d < dim; ++d) {
            EXPECT_EQ(block.axis(d)[lane], z[(first + lane) * dim + d]);
          }
          EXPECT_EQ(block.dot[lane], dot[first + lane]);
        }
        first += count;
      }
      EXPECT_EQ(first, trials);
    }
  }
}

TEST(McBatchSampling, WindowShortcutMatchesExactDecision) {
  // The stager accepts a pair with s >= s_safe without the exact test,
  // so the exact test must accept every such pair.  |n| = |u|
  // sqrt(-2 ln s / s) <= sqrt(-2 ln s), with equality at |u| = sqrt(s):
  // the worst candidates.  Probe s on a fine grid bracketing s_safe (and
  // its neighbouring doubles) on both sides of the mean.
  struct Window {
    double mean, stddev, lo, hi;
  };
  for (const Window c : {Window{1.0, 0.05, 0.8, 1.2},
                         Window{1.0, 0.3, 0.05, 2.2},
                         Window{1.0, 3.0, 0.05, 13.0},
                         Window{0.0, 1.0, -0.5, 4.0}}) {
    SCOPED_TRACE(testing::Message() << "stddev " << c.stddev);
    const PolarWindow w = PolarWindow::make(c.mean, c.stddev, c.lo, c.hi, 0);
    ASSERT_GT(w.s_safe, 0.0);
    ASSERT_LT(w.s_safe, 1.0);
    std::vector<double> probes = {w.s_safe, std::nextafter(w.s_safe, 0.0),
                                  std::nextafter(w.s_safe, 1.0)};
    for (int j = -640; j <= 640; ++j) {
      const double s = w.s_safe * std::exp2(j / 64.0);
      if (s < 1.0) probes.push_back(s);
    }
    std::size_t shortcut = 0, rejected = 0;
    for (const double s : probes) {
      for (const double u : {std::sqrt(s), -std::sqrt(s)}) {
        const bool exact = w.accepts_exact(u, s);
        if (s >= w.s_safe) {
          EXPECT_TRUE(exact) << "s " << s << " u " << u;
          ++shortcut;
        }
        rejected += exact ? 0 : 1;
      }
    }
    EXPECT_GT(shortcut, 0u);
    EXPECT_GT(rejected, 0u);  // the grid reaches past the window's edge
  }
  // A window that excludes the mean never takes the shortcut.
  EXPECT_EQ(PolarWindow::make(0.0, 1.0, 40.0, 41.0, 0).s_safe, 1.0);
}

TEST(McBatchSampling, HopelessWindowThrowsLikeTheScalarSampler) {
  Xoshiro256 rng(3);
  EXPECT_THROW((void)sample_truncated_normal(rng, 0.0, 1.0, 40.0, 41.0),
               NumericError);
  const PolarWindow w = PolarWindow::make(0.0, 1.0, 40.0, 41.0, 0);
  std::vector<double> u(9), s(9);
  for (const SimdIsa isa : supported_isas()) {
    SCOPED_TRACE(simd_isa_name(isa));
    ScopedSimdIsa forced(isa);
    EXPECT_THROW(stage_polar_pairs(Xoshiro256(3), 0, u.size(), 1, &w,
                                   u.data(), s.data(), u.size()),
                 NumericError);
  }
}

}  // namespace
}  // namespace sttram
