// yield_array: repeated Fig. 11 array experiments (four sensing schemes
// per cell) on 1024 x 1024 arrays, two threads.  The 64 MB margin frame
// exceeds L2, so variation sampling and the serial reduce dominate; the
// SIMD margin kernel is a few percent.  Bypasses engine and spice.
#include <cmath>

#include "bench.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/sim/yield.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kRows = 1024;
constexpr std::size_t kCols = 1024;

// Calibrated references (40 arrays of this size).  The conventional
// scheme fails on ~1.05 % of cells; its failures cluster by column (the
// shared-reference error is per column), so the count spreads as a
// binomial with a design effect of ~62 rather than 1.
constexpr double kConventionalRate = 0.01046;
constexpr double kConventionalDesignEffect = 64.0;
constexpr double kConventionalSigmas = 6.0;
// Nondestructive failures per cell = tail_rare's 8 mV probability.
constexpr double kNondestructiveRate = 1.18804e-5;
constexpr double kPoissonAlpha = 1e-7;
// Op index of the set-up warm-up array (never a timed op).
constexpr std::size_t kWarmUpOp = std::size_t{1} << 40;

sttram::YieldConfig op_config(std::uint64_t seed, std::size_t index) {
  sttram::YieldConfig cfg;
  cfg.geometry = {kRows, kCols};
  cfg.max_scatter_points = 1;  // as the CLI and campaigns run it
  cfg.seed = derive_seed(seed, index);
  return cfg;
}

std::uint64_t digest(const sttram::YieldResult& r) {
  std::uint64_t h = 0;
  for (const sttram::SchemeYield* s :
       {&r.conventional, &r.reference_cell, &r.destructive,
        &r.nondestructive}) {
    h = fold(h, static_cast<double>(s->failures));
    h = fold(h, s->sm0_stats.mean());
    h = fold(h, s->sm1_stats.variance());
  }
  return fold(h, r.shared_reference_window.value());
}

class YieldWorkload final : public Workload {
 public:
  explicit YieldWorkload(const Options& opt) : opt_(opt) {}

  [[nodiscard]] std::size_t threads() const override { return 2; }
  [[nodiscard]] std::size_t cycle() const override { return 1; }
  [[nodiscard]] const char* rate_name(std::size_t) const override {
    return "yield_cells_per_s";
  }

  void setup(sttram::ParallelExecutor& executor) override {
    // Warm-up: one full-size array faults in the code, fills each pool
    // thread's op cache and lets the allocator settle on the 64 MB frame.
    (void)sttram::run_yield_experiment(op_config(opt_.seed, kWarmUpOp),
                                       &executor);
  }

  OpOutcome run_op(const OpContext& ctx) override {
    const sttram::YieldConfig cfg = op_config(opt_.seed, ctx.index);
    const auto run = [&] {
      return sttram::run_yield_experiment(cfg, ctx.executor);
    };
    const sttram::YieldResult r =
        ctx.tracer != nullptr
            ? ctx.tracer->span("sim.run_yield_experiment", "sim.yield", run)
            : run();
    OpOutcome out;
    const double cells = static_cast<double>(cfg.geometry.cell_count());
    out.items = cells;
    out.digest = digest(r);
    const double p = kConventionalRate * opt_.reference_scale;
    const double sd =
        std::sqrt(kConventionalDesignEffect * cells * p * (1.0 - p));
    const double conv = static_cast<double>(r.conventional.failures);
    if (std::fabs(conv - cells * p) > kConventionalSigmas * sd) {
      out.ok = false;
      out.error = "conventional failures " + std::to_string(conv) +
                  " vs expected " + std::to_string(cells * p);
    }
    const double nd_mean = cells * kNondestructiveRate * opt_.reference_scale;
    if (!poisson_plausible(nd_mean, r.nondestructive.failures,
                           kPoissonAlpha)) {
      out.ok = false;
      out.error += " nondestructive failures " +
                   std::to_string(r.nondestructive.failures) +
                   " vs Poisson mean " + std::to_string(nd_mean);
    }
    if (r.conventional.bits != cfg.geometry.cell_count() ||
        r.nondestructive.bits != cfg.geometry.cell_count()) {
      out.ok = false;
      out.error += " bit count mismatch";
    }
    return out;
  }

  void verify(CheckLog& log, sttram::ParallelExecutor& one,
              sttram::ParallelExecutor& many) override {
    sttram::YieldConfig cfg = op_config(opt_.seed, 1u << 20);
    cfg.geometry = {64, 64};
    const std::uint64_t batched_one =
        digest(sttram::run_yield_experiment(cfg, &one));
    const std::uint64_t batched_many =
        digest(sttram::run_yield_experiment(cfg, &many));
    cfg.use_batch = false;  // per-cell scalar oracle (MemoryArray path)
    const std::uint64_t oracle =
        digest(sttram::run_yield_experiment(cfg, &many));
    log.record(batched_one == oracle, "yield: batched == scalar oracle");
    log.record(batched_one == batched_many, "yield: 1 thread == N threads");
  }

  [[nodiscard]] std::string obs_metric(std::size_t, const std::string& name,
                                       const std::string& cat) const override {
    return cat == "profile" && name == "variation.sample" ? "device.sample"
                                                          : "";
  }

  void layer_metrics(const TraceRun& run, Metrics& out) override {
    const double ops = static_cast<double>(run.ops);
    const double cells = static_cast<double>(kRows * kCols);
    const Probe probe = measure_probe();
    out["common.yield_parallel_eff"] =
        parallel_efficiency(run, [](std::size_t) { return true; });
    const auto self = [&](const char* key) {
      const auto it = run.self_seconds.find(key);
      return it == run.self_seconds.end() ? 0.0 : it->second / ops;
    };
    out["device.sample_s"] = self("device.sample");
    out["device.sample_ns_per_cell"] = probe.sample_ns_per_cell;
    // The solve has no span of its own inside run_yield_experiment;
    // charge it at its directly measured single-thread cost and leave
    // the rest of the experiment's self time (setup, serial reduce) to
    // sim.
    out["sense.yield_solve_s"] = probe.solve_ns_per_cell * cells * 1e-9;
    out["sense.yield_solve_ns_per_cell"] = probe.solve_ns_per_cell;
    out["sim.yield_other_s"] = self("sim.yield") - out["sense.yield_solve_s"];
    const auto counter = [&](const char* key) {
      const auto it = run.first_cycle_counters.find(key);
      return it == run.first_cycle_counters.end() ? 0.0 : it->second;
    };
    const double hits = counter("mc.opcache.hits");
    const double lookups = hits + counter("mc.opcache.misses");
    out["device.opcache_hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
    out["device.opcache_lookups"] = lookups / ops;
    out["sim.yield_margin_evals"] = counter("yield.margin_evaluations") / ops;
  }

 private:
  struct Probe {
    double sample_ns_per_cell = 0.0;
    double solve_ns_per_cell = 0.0;
  };

  // Calls the device sampler and the sense kernel directly, single
  // thread, in L2-sized slabs of blocks (as run_yield_experiment
  // interleaves them), timing each layer separately.
  [[nodiscard]] Probe measure_probe() const {
    constexpr std::size_t kCells = 1u << 19;
    constexpr std::size_t kSlab = 256;  // blocks per timed slab
    const sttram::MtjParams nominal = sttram::MtjParams::paper_calibrated();
    const sttram::MtjVariationModel variation(nominal,
                                              sttram::VariationParams{});
    const sttram::YieldConfig cfg = op_config(opt_.seed, 0);
    const sttram::Ohm r_access(917.0);
    sttram::YieldKernelInputs in;
    in.selfref = cfg.selfref;
    in.i_droop_ref = nominal.i_droop_ref.value();
    in.beta_destructive =
        sttram::cached_destructive_beta(nominal, r_access, cfg.selfref);
    in.beta_nondestructive =
        sttram::cached_nondestructive_beta(nominal, r_access, cfg.selfref);
    in.shared_v_ref =
        sttram::cached_shared_v_ref(nominal, r_access, cfg.selfref.i_max);
    in.col_vref_err.assign(kCols, 0.0);
    in.col_beta_dev.assign(kCols, 0.0);
    in.col_alpha_dev.assign(kCols, 0.0);
    in.col_ref_p.assign(kCols, nominal);
    in.col_ref_ap.assign(kCols, nominal);
    const sttram::YieldBatchKernel kernel = sttram::YieldBatchKernel::build(in);
    sttram::YieldMarginsSoA frame;
    frame.resize(kCells);
    std::vector<sttram::VariationBlock> blocks(kSlab);
    const sttram::Xoshiro256 master(cfg.seed);
    double max_low = -1e300;
    double min_high = 1e300;
    double sample_s = 0.0;
    double solve_s = 0.0;
    for (std::size_t first = 0; first < kCells;
         first += kSlab * sttram::kMcBlockSize) {
      const double t0 = now_seconds();
      for (std::size_t b = 0; b < kSlab; ++b) {
        sttram::sample_variation_block(
            master, variation, r_access.value(), cfg.sigma_access,
            first + b * sttram::kMcBlockSize, sttram::kMcBlockSize, blocks[b]);
      }
      const double t1 = now_seconds();
      for (std::size_t b = 0; b < kSlab; ++b) {
        kernel.solve(blocks[b], first + b * sttram::kMcBlockSize, &frame,
                     &max_low, &min_high);
      }
      const double t2 = now_seconds();
      sample_s += t1 - t0;
      solve_s += t2 - t1;
    }
    return {sample_s / kCells * 1e9, solve_s / kCells * 1e9};
  }

  Options opt_;
};

}  // namespace

std::unique_ptr<Workload> make_yield_workload(const Options& opt) {
  return std::make_unique<YieldWorkload>(opt);
}

}  // namespace perfbench
