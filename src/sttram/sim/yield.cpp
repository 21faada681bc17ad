#include "sttram/sim/yield.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>

#include "sttram/common/error.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"
#include "sttram/obs/trace.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {
namespace {

void record(SchemeYield& y, const SenseMargins& m, Volt required,
            std::size_t keep_every, bool keep_per_bit) {
  y.bits += 1;
  y.sm0_stats.add(m.sm0.value());
  y.sm1_stats.add(m.sm1.value());
  const bool failed = m.min() < required;
  if (failed) y.failures += 1;
  STTRAM_OBS_COUNT("yield.margin_evaluations");
  if (failed) STTRAM_OBS_COUNT("yield.margin_failures");
  if (keep_every == 0 || (y.bits % keep_every) == 1 || keep_every == 1) {
    y.scatter.emplace_back(m.sm0.value(), m.sm1.value());
  }
  if (keep_per_bit) {
    y.per_bit_min_margin.push_back(static_cast<float>(m.min().value()));
  }
}

void record_all(YieldResult& result,
                const std::vector<std::array<SenseMargins, 4>>& cell_margins,
                const YieldConfig& config, std::size_t keep_every) {
  // Serial accumulation in row-major order: RunningStats and the scatter
  // subsampling are order-sensitive, so this pass is what keeps the
  // result bit-identical for any thread count.
  for (const auto& margins : cell_margins) {
    record(result.conventional, margins[0], config.required_margin,
           keep_every, config.keep_per_bit_margins);
    record(result.reference_cell, margins[1], config.required_margin,
           keep_every, config.keep_per_bit_margins);
    record(result.destructive, margins[2], config.required_margin,
           keep_every, config.keep_per_bit_margins);
    record(result.nondestructive, margins[3], config.required_margin,
           keep_every, config.keep_per_bit_margins);
  }
}

/// Cells per sweep tile of the batched path: the tile's eight margin rows
/// take 2 MB whatever the array size.  A multiple of kMcBlockSize, so a
/// serial sweep cuts the same blocks as an untiled one.
constexpr std::size_t kYieldTileCells = std::size_t{1} << 15;
static_assert(kYieldTileCells % kMcBlockSize == 0,
              "yield tiles must hold whole blocks");

/// The batched path's record(): folds tile slots [0, n), global cells
/// [first, first + n), of the four schemes' margin rows into `result`.
/// Each accumulator sees record()'s values in record()'s order.  The
/// scatter keeps global cell g when g % keep_every == 0, which is
/// record()'s test on the 1-based bit count.  Returns the failures added.
std::size_t record_tile(YieldResult& result, const YieldMarginsSoA& tile,
                        std::size_t first, std::size_t n, double required,
                        std::size_t keep_every, bool keep_per_bit) {
  // Local accumulators and row pointers: the margin rows are doubles
  // too, so folding into the schemes' own RunningStats would force a
  // store and reload per add; eight independent Welford chains per cell
  // also keep the divider busy.
  const std::array<SchemeYield*, 4> schemes = {
      &result.conventional, &result.reference_cell, &result.destructive,
      &result.nondestructive};
  std::array<const double*, 8> rows;
  std::array<RunningStats, 8> stats;
  for (std::size_t r = 0; r < 8; ++r) rows[r] = tile.row(r);
  for (std::size_t s = 0; s < 4; ++s) {
    stats[2 * s] = schemes[s]->sm0_stats;
    stats[2 * s + 1] = schemes[s]->sm1_stats;
  }
  std::array<std::size_t, 4> failures{};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s < 4; ++s) {
      const double sm0 = rows[2 * s][i];
      const double sm1 = rows[2 * s + 1][i];
      stats[2 * s].add(sm0);
      stats[2 * s + 1].add(sm1);
      // SenseMargins::min(): `a < b ? a : b`, not std::min (they differ
      // on NaN).
      if ((sm0 < sm1 ? sm0 : sm1) < required) ++failures[s];
    }
  }
  std::size_t total_failures = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    SchemeYield& y = *schemes[s];
    const double* sm0 = rows[2 * s];
    const double* sm1 = rows[2 * s + 1];
    y.sm0_stats = stats[2 * s];
    y.sm1_stats = stats[2 * s + 1];
    y.bits += n;
    y.failures += failures[s];
    total_failures += failures[s];
    for (std::size_t g = (first + keep_every - 1) / keep_every * keep_every;
         g < first + n; g += keep_every) {
      y.scatter.emplace_back(sm0[g - first], sm1[g - first]);
    }
    if (keep_per_bit) {
      for (std::size_t i = 0; i < n; ++i) {
        y.per_bit_min_margin.push_back(
            static_cast<float>(sm0[i] < sm1[i] ? sm0[i] : sm1[i]));
      }
    }
  }
  return total_failures;
}

std::size_t scatter_keep_every(const YieldConfig& config, std::size_t cells) {
  return (config.max_scatter_points == 0 ||
          cells <= config.max_scatter_points)
             ? 1
             : cells / config.max_scatter_points;
}

void sample_die_factor(const YieldConfig& config, YieldResult& result) {
  // Die-level common factor: every MTJ on this chip (data and reference
  // cells) shares it; within-die variation samples around it.
  if (config.die_sigma > 0.0) {
    Xoshiro256 die_stream(config.seed ^ 0xd1ed1ed1ed1ed1eULL);
    result.die_factor =
        sample_lognormal_median(die_stream, 1.0, config.die_sigma);
  }
}

void name_schemes(YieldResult& result) {
  result.conventional.scheme = "conventional";
  result.reference_cell.scheme = "reference-cell";
  result.destructive.scheme = "destructive self-ref";
  result.nondestructive.scheme = "nondestructive self-ref";
}

/// The original per-cell scalar path, kept verbatim as the differential
/// oracle behind YieldConfig::use_batch = false (`--no-batch`).
YieldResult run_yield_scalar(const YieldConfig& config,
                             ParallelExecutor* executor) {
  const MtjParams nominal = MtjParams::paper_calibrated();

  YieldResult result;
  sample_die_factor(config, result);
  const MtjParams die_nominal = nominal.scaled(result.die_factor, 1.0);
  const MtjVariationModel variation(die_nominal, config.variation);
  const MemoryArray array(config.geometry, variation, config.sigma_access,
                          config.seed);

  name_schemes(result);

  // Designed betas come from the nominal device unless overridden.
  const FixedAccessResistor nominal_access(Ohm(917.0));
  const LinearRiModel nominal_model(nominal);
  const DestructiveSelfReference nominal_destructive(
      nominal_model, nominal_access, config.selfref);
  const NondestructiveSelfReference nominal_nondestructive(
      nominal_model, nominal_access, config.selfref);
  result.beta_destructive = config.beta_destructive > 0.0
                                ? config.beta_destructive
                                : nominal_destructive.paper_beta();
  result.beta_nondestructive = config.beta_nondestructive > 0.0
                                   ? config.beta_nondestructive
                                   : nominal_nondestructive.paper_beta();

  // Shared reference from the nominal device, as a real design would.
  const ConventionalSensing nominal_conventional(nominal_model,
                                                 nominal_access,
                                                 config.selfref.i_max);
  result.shared_v_ref = nominal_conventional.midpoint_reference();
  result.shared_reference_window =
      array.shared_reference_window(config.selfref.i_max);

  const std::size_t cells = config.geometry.cell_count();
  const std::size_t keep_every = scatter_keep_every(config, cells);

  // Per-column peripheral mismatch streams.
  const Xoshiro256 column_master(config.seed ^ 0x5741524d5454536bULL);
  std::vector<double> col_beta_dev(config.geometry.cols, 0.0);
  std::vector<double> col_alpha_dev(config.geometry.cols, 0.0);
  std::vector<double> col_vref_err(config.geometry.cols, 0.0);
  std::vector<MtjParams> col_ref_p(config.geometry.cols);
  std::vector<MtjParams> col_ref_ap(config.geometry.cols);
  for (std::size_t c = 0; c < config.geometry.cols; ++c) {
    Xoshiro256 stream = column_master.fork(c);
    col_beta_dev[c] = sample_normal(stream, 0.0, config.sigma_beta);
    col_alpha_dev[c] = sample_normal(stream, 0.0, config.sigma_alpha);
    col_vref_err[c] =
        sample_normal(stream, 0.0, config.sigma_vref.value());
    // The column's reference pair: two more devices from the same die.
    col_ref_p[c] = variation.sample(stream);
    col_ref_ap[c] = variation.sample(stream);
  }

  // Per-cell margin computation for all four schemes.  Pure function of
  // the pre-sampled array and column streams — no RNG, no shared writes —
  // so cells can be evaluated in any order (or concurrently).
  const auto compute_cell = [&](std::size_t idx) {
    const std::size_t row = idx / config.geometry.cols;
    const std::size_t col = idx % config.geometry.cols;
    const ArrayCell& cell = array.cell(row, col);
    const LinearRiModel model(cell.params);
    const FixedAccessResistor access(cell.r_access);

    std::array<SenseMargins, 4> margins;
    // Conventional sensing against the shared reference (with the
    // column's reference-distribution error).
    const ConventionalSensing conv(model, access, config.selfref.i_max);
    const Volt v_ref = result.shared_v_ref + Volt(col_vref_err[col]);
    margins[0] = conv.margins(v_ref);

    // Reference-cell sensing against the column's reference pair.
    const LinearRiModel ref_p_model(col_ref_p[col]);
    const LinearRiModel ref_ap_model(col_ref_ap[col]);
    const ReferenceCellSensing ref_cell(model, access, ref_p_model,
                                        ref_ap_model, config.selfref.i_max);
    margins[1] = ref_cell.margins();

    SchemeMismatch mm;
    mm.beta_deviation = col_beta_dev[col];
    const DestructiveSelfReference destructive(model, access,
                                               config.selfref);
    margins[2] = destructive.margins(result.beta_destructive, mm);

    mm.alpha_deviation = col_alpha_dev[col];
    const NondestructiveSelfReference nondestructive(model, access,
                                                     config.selfref);
    margins[3] = nondestructive.margins(result.beta_nondestructive, mm);
    return margins;
  };

  std::vector<std::array<SenseMargins, 4>> cell_margins(cells);
  if (executor != nullptr && executor->thread_count() > 1) {
    executor->for_chunks(
        cells, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t idx = begin; idx < end; ++idx) {
            cell_margins[idx] = compute_cell(idx);
          }
        });
  } else {
    for (std::size_t idx = 0; idx < cells; ++idx) {
      cell_margins[idx] = compute_cell(idx);
    }
  }

  record_all(result, cell_margins, config, keep_every);
  return result;
}

/// The batched SoA path (default): per-block variation sampling fused
/// with the four-scheme closed-form kernel, operating points memoized in
/// the op cache.  Bit-identical to run_yield_scalar (see DESIGN.md §14
/// for the argument; test_mc_batch.cpp for the proof).
YieldResult run_yield_batched(const YieldConfig& config,
                              ParallelExecutor* executor) {
  const MtjParams nominal = MtjParams::paper_calibrated();

  YieldResult result;
  sample_die_factor(config, result);
  const MtjParams die_nominal = nominal.scaled(result.die_factor, 1.0);
  const MtjVariationModel variation(die_nominal, config.variation);

  name_schemes(result);

  // Designed operating points from the thread-shard-local op cache —
  // pure functions of the nominal device and read setup, so a hit
  // returns exactly the value the scalar path derives inline.
  const Ohm r_access_nominal(917.0);
  result.beta_destructive =
      config.beta_destructive > 0.0
          ? config.beta_destructive
          : cached_destructive_beta(nominal, r_access_nominal,
                                    config.selfref);
  result.beta_nondestructive =
      config.beta_nondestructive > 0.0
          ? config.beta_nondestructive
          : cached_nondestructive_beta(nominal, r_access_nominal,
                                       config.selfref);
  result.shared_v_ref =
      cached_shared_v_ref(nominal, r_access_nominal, config.selfref.i_max);

  const std::size_t cells = config.geometry.cell_count();
  const std::size_t keep_every = scatter_keep_every(config, cells);

  // Per-column peripheral mismatch streams — identical draws to the
  // scalar path, staged directly into the kernel's input tables.
  const Xoshiro256 column_master(config.seed ^ 0x5741524d5454536bULL);
  YieldKernelInputs inputs;
  inputs.selfref = config.selfref;
  inputs.i_droop_ref = nominal.i_droop_ref.value();
  inputs.beta_destructive = result.beta_destructive;
  inputs.beta_nondestructive = result.beta_nondestructive;
  inputs.shared_v_ref = result.shared_v_ref;
  inputs.col_vref_err.resize(config.geometry.cols, 0.0);
  inputs.col_beta_dev.resize(config.geometry.cols, 0.0);
  inputs.col_alpha_dev.resize(config.geometry.cols, 0.0);
  inputs.col_ref_p.resize(config.geometry.cols);
  inputs.col_ref_ap.resize(config.geometry.cols);
  for (std::size_t c = 0; c < config.geometry.cols; ++c) {
    Xoshiro256 stream = column_master.fork(c);
    inputs.col_beta_dev[c] = sample_normal(stream, 0.0, config.sigma_beta);
    inputs.col_alpha_dev[c] = sample_normal(stream, 0.0, config.sigma_alpha);
    inputs.col_vref_err[c] =
        sample_normal(stream, 0.0, config.sigma_vref.value());
    inputs.col_ref_p[c] = variation.sample(stream);
    inputs.col_ref_ap[c] = variation.sample(stream);
  }
  const YieldBatchKernel kernel = YieldBatchKernel::build(inputs);

  // Tiled, cache-blocked sweep.  Each tile of kYieldTileCells cells is
  // sampled block by block into SoA arrays (the exact per-cell streams
  // MemoryArray forks) and solved while the samples are L1-resident, into
  // one reusable tile-sized margin frame.  Chunks write disjoint slots and
  // carry private window partials across tiles (min/max merges are exact
  // in any order); the record pass folds each tile serially in index
  // order, so any thread count is bit-identical.
  const Xoshiro256 cell_master(config.seed);
  YieldMarginsSoA tile;
  tile.resize(std::min(cells, kYieldTileCells));
  const bool parallel =
      executor != nullptr && executor->thread_count() > 1;
  const std::size_t chunks = parallel ? executor->thread_count() : 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> chunk_max_low(chunks, -kInf);
  std::vector<double> chunk_min_high(chunks, kInf);
  obs::HistogramMetric* block_hist =
      obs::metrics_enabled()
          ? &obs::Registry::instance().histogram("mc.block_seconds")
          : nullptr;
  STTRAM_OBS_SET_GAUGE("mc.batch_size", kMcBlockSize);
  std::size_t tile_first = 0;  // global index of the current tile's slot 0
  const auto run_range = [&](std::size_t chunk, std::size_t begin,
                             std::size_t end) {
    VariationBlock block;
    double max_low = chunk_max_low[chunk];
    double min_high = chunk_min_high[chunk];
    for (std::size_t b = begin; b < end; b += kMcBlockSize) {
      const std::size_t count = std::min(end - b, kMcBlockSize);
      const auto t0 = block_hist != nullptr
                          ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
      sample_variation_block(cell_master, variation,
                             r_access_nominal.value(), config.sigma_access,
                             tile_first + b, count, block);
      kernel.solve(block, tile_first + b, b, &tile, &max_low, &min_high);
      if (block_hist != nullptr) {
        block_hist->record(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
      }
    }
    chunk_max_low[chunk] = max_low;
    chunk_min_high[chunk] = min_high;
  };
  const double required = config.required_margin.value();
  for (; tile_first < cells; tile_first += kYieldTileCells) {
    const std::size_t n = std::min(cells - tile_first, kYieldTileCells);
    if (parallel) {
      executor->for_chunks(n, run_range);
    } else {
      run_range(0, 0, n);
    }
    const std::size_t failures =
        record_tile(result, tile, tile_first, n, required, keep_every,
                    config.keep_per_bit_margins);
    STTRAM_OBS_ADD("yield.margin_evaluations", 4 * n);
    if (failures > 0) STTRAM_OBS_ADD("yield.margin_failures", failures);
  }
  double max_low = -kInf;
  double min_high = kInf;
  for (std::size_t c = 0; c < chunks; ++c) {
    max_low = std::max(max_low, chunk_max_low[c]);
    min_high = std::min(min_high, chunk_min_high[c]);
  }
  result.shared_reference_window = Volt(min_high - max_low);

  return result;
}

}  // namespace

YieldResult run_yield_experiment(const YieldConfig& config,
                                 ParallelExecutor* executor) {
  STTRAM_OBS_COUNT("yield.experiments");
  obs::TraceSpan span("run_yield_experiment", "yield");
  STTRAM_PROFILE_SCOPE("yield.experiment");
  const bool metered = obs::metrics_enabled();
  const auto t_begin = std::chrono::steady_clock::now();
  YieldResult result = config.use_batch
                           ? run_yield_batched(config, executor)
                           : run_yield_scalar(config, executor);
  if (metered) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_begin)
            .count();
    auto& registry = obs::Registry::instance();
    registry.timer("yield.experiment_seconds").record(elapsed);
    if (elapsed > 0.0) {
      registry.gauge("yield.cells_per_second")
          .set(static_cast<double>(config.geometry.cell_count()) / elapsed);
    }
  }
  return result;
}

std::vector<YieldSweepPoint> sweep_variation(
    const YieldConfig& base, const std::vector<double>& sigmas,
    ParallelExecutor* executor) {
  std::vector<YieldSweepPoint> out;
  out.reserve(sigmas.size());
  for (const double sigma : sigmas) {
    YieldConfig cfg = base;
    cfg.variation.sigma_common = sigma;
    const YieldResult r = run_yield_experiment(cfg, executor);
    YieldSweepPoint p;
    p.sigma_common = sigma;
    p.conventional_failure_rate = r.conventional.failure_rate();
    p.destructive_failure_rate = r.destructive.failure_rate();
    p.nondestructive_failure_rate = r.nondestructive.failure_rate();
    out.push_back(p);
  }
  return out;
}

}  // namespace sttram
