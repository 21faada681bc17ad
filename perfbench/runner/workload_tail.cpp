// tail_rare: importance-sampled margin-tail estimates at 8 / 10 / 12 mV
// sense-amp thresholds, 1e6 trials each, two threads.  The same MC
// stack as yield_array used differently: 5-D shifted Gaussian draws
// (stats) instead of lognormal device draws, the min-margin kernel and
// a weighted reduce.  Bypasses device sampling, engine and spice.
#include <array>
#include <cmath>

#include "bench.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/sim/tail.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kTrials = 1000000;
constexpr std::array<double, 3> kThresholds = {8e-3, 10e-3, 12e-3};
// Reference probabilities and their standard errors (2e7 trials each).
constexpr std::array<double, 3> kRefProbability = {1.18804e-5, 1.236858e-2,
                                                   3.631677e-1};
constexpr std::array<double, 3> kRefStdError = {1.904e-8, 6.264e-6, 8.064e-5};
// Five standard errors rather than four: twenty 20-s runs of this
// workload check a few thousand tail ops, and a 4-SE band would fail
// one of them by chance about every fourth such series.
constexpr double kStdErrors = 5.0;
constexpr double kMaxRelativeError = 0.02;

sttram::TailConfig op_config(std::size_t index) {
  sttram::TailConfig cfg;
  cfg.threshold = sttram::Volt(kThresholds[index % kThresholds.size()]);
  return cfg;
}

std::uint64_t digest(const sttram::TailEstimate& e) {
  std::uint64_t h = fold(0, e.estimate.probability);
  h = fold(h, e.estimate.std_error);
  h = fold(h, static_cast<double>(e.estimate.hits));
  return fold(h, e.design_radius);
}

class TailWorkload final : public Workload {
 public:
  explicit TailWorkload(const Options& opt) : opt_(opt) {}

  [[nodiscard]] std::size_t threads() const override { return 2; }
  [[nodiscard]] std::size_t cycle() const override {
    return kThresholds.size();
  }
  [[nodiscard]] const char* rate_name(std::size_t) const override {
    return "tail_trials_per_s";
  }

  void setup(sttram::ParallelExecutor& executor) override {
    // Warm-up: one full-size estimate at each threshold.
    for (std::size_t i = 0; i < kThresholds.size(); ++i) {
      (void)sttram::estimate_margin_tail(op_config(i), opt_.seed, kTrials,
                                         &executor);
    }
  }

  OpOutcome run_op(const OpContext& ctx) override {
    const std::size_t t = ctx.index % kThresholds.size();
    const sttram::TailConfig cfg = op_config(ctx.index);
    const std::uint64_t seed = derive_seed(opt_.seed, ctx.index);
    const auto run = [&] {
      return sttram::estimate_margin_tail(cfg, seed, kTrials, ctx.executor);
    };
    const sttram::TailEstimate e =
        ctx.tracer != nullptr
            ? ctx.tracer->span("sim.estimate_margin_tail", "sim.tail", run)
            : run();
    if (ctx.index < cycle()) relative_error_[t] = e.estimate.relative_error;
    OpOutcome out;
    out.items = static_cast<double>(e.estimate.trials);
    out.digest = digest(e);
    const double ref = kRefProbability[t] * opt_.reference_scale;
    const double band =
        kStdErrors * std::hypot(e.estimate.std_error, kRefStdError[t]);
    if (std::fabs(e.estimate.probability - ref) > band) {
      out.ok = false;
      out.error = "tail probability " + std::to_string(e.estimate.probability) +
                  " vs reference " + std::to_string(ref);
    }
    if (!(e.estimate.relative_error <= kMaxRelativeError) ||
        e.estimate.trials != kTrials) {
      out.ok = false;
      out.error += " relative error " +
                   std::to_string(e.estimate.relative_error);
    }
    return out;
  }

  void verify(CheckLog& log, sttram::ParallelExecutor& one,
              sttram::ParallelExecutor& many) override {
    sttram::TailConfig cfg = op_config(0);
    const std::uint64_t seed = derive_seed(opt_.seed, 1u << 20);
    const std::uint64_t batched_one =
        digest(sttram::estimate_margin_tail(cfg, seed, 20000, &one));
    const std::uint64_t batched_many =
        digest(sttram::estimate_margin_tail(cfg, seed, 20000, &many));
    cfg.use_batch = false;  // scalar per-trial predicate (the oracle)
    const std::uint64_t oracle =
        digest(sttram::estimate_margin_tail(cfg, seed, 20000, &many));
    log.record(batched_one == oracle, "tail: batched == scalar oracle");
    log.record(batched_one == batched_many, "tail: 1 thread == N threads");
  }

  [[nodiscard]] std::string obs_metric(std::size_t, const std::string& name,
                                       const std::string& cat) const override {
    return cat == "mc" && name == "importance_sample_blocked" ? "stats.is"
                                                              : "";
  }

  void layer_metrics(const TraceRun& run, Metrics& out) override {
    const double ops = static_cast<double>(run.ops);
    const double trials = static_cast<double>(kTrials);
    const auto self = [&](const char* key) {
      const auto it = run.self_seconds.find(key);
      return it == run.self_seconds.end() ? 0.0 : it->second / ops;
    };
    const Probe probe = measure_probe();
    out["common.tail_parallel_eff"] =
        parallel_efficiency(run, [](std::size_t) { return true; });
    // estimate_margin_tail's own time outside importance_sample_blocked:
    // the design-point search plus the kernel build.
    out["stats.design_point_s"] = self("sim.tail");
    // The Gaussian fill and the kernel run inside importance_sample's
    // block callback with no span of their own: charge them at their
    // directly measured single-thread cost; the rest of the IS span is
    // the serial weight reduce and orchestration.
    out["stats.gauss_fill_s"] = probe.gauss_ns_per_trial * trials * 1e-9;
    out["stats.gauss_fill_ns_per_trial"] = probe.gauss_ns_per_trial;
    out["sense.tail_kernel_s"] = probe.kernel_ns_per_trial * trials * 1e-9;
    out["sense.tail_kernel_ns_per_trial"] = probe.kernel_ns_per_trial;
    out["stats.is_other_s"] = self("stats.is") - out["stats.gauss_fill_s"] -
                              out["sense.tail_kernel_s"];
    const auto first = [&](const char* key) {
      const auto it = run.first_cycle_counters.find(key);
      return it == run.first_cycle_counters.end() ? 0.0 : it->second;
    };
    const double is_trials = first("is.trials");
    out["stats.is_hit_ratio"] = is_trials > 0.0 ? first("is.hits") / is_trials
                                                : 0.0;
    out["stats.is_trials"] = is_trials / static_cast<double>(cycle());
    double rel = 0.0;
    for (const double r : relative_error_) rel += r;
    out["stats.is_relative_error"] = rel / static_cast<double>(cycle());
  }

 private:
  struct Probe {
    double gauss_ns_per_trial = 0.0;
    double kernel_ns_per_trial = 0.0;
  };

  // Calls the stats Gaussian fill and the sense tail kernel directly on
  // the 8 mV design point, single thread, in L2-sized slabs of 64-lane
  // blocks, timing each layer separately.
  [[nodiscard]] Probe measure_probe() const {
    constexpr std::size_t kProbeTrials = 1u << 19;
    constexpr std::size_t kSlab = 256;
    const sttram::TailConfig cfg = op_config(0);
    const std::vector<double> shift =
        sttram::estimate_margin_tail(cfg, opt_.seed, 1000).design_point;
    sttram::TailKernelConfig kc;
    kc.nominal = sttram::MtjParams::paper_calibrated();
    kc.sigma_common = cfg.variation.sigma_common;
    kc.sigma_tmr = cfg.variation.sigma_tmr;
    kc.sigma_access = cfg.sigma_access;
    kc.sigma_beta = cfg.sigma_beta;
    kc.sigma_alpha = cfg.sigma_alpha;
    kc.selfref = cfg.selfref;
    kc.beta = sttram::cached_nondestructive_beta(kc.nominal,
                                                 sttram::Ohm(917.0),
                                                 cfg.selfref);
    const sttram::TailBatchKernel kernel = sttram::TailBatchKernel::build(kc);
    std::vector<sttram::GaussianBlock> blocks(kSlab);
    for (auto& b : blocks) b.reset(sttram::kTailDimensions, sttram::kMcBlockSize);
    std::vector<double> margin(sttram::kMcBlockSize);
    const sttram::Xoshiro256 master(opt_.seed);
    double fill_s = 0.0;
    double kernel_s = 0.0;
    double sink = 0.0;
    for (std::size_t first = 0; first < kProbeTrials;
         first += kSlab * sttram::kMcBlockSize) {
      const double t0 = now_seconds();
      for (std::size_t b = 0; b < kSlab; ++b) {
        sttram::fill_shifted_gaussian_block(
            master, shift, first + b * sttram::kMcBlockSize,
            sttram::kMcBlockSize, blocks[b]);
      }
      const double t1 = now_seconds();
      for (std::size_t b = 0; b < kSlab; ++b) {
        kernel.margins_min(blocks[b], margin.data());
        sink += margin[0];
      }
      const double t2 = now_seconds();
      fill_s += t1 - t0;
      kernel_s += t2 - t1;
    }
    if (!std::isfinite(sink)) return {};
    return {fill_s / kProbeTrials * 1e9, kernel_s / kProbeTrials * 1e9};
  }

  Options opt_;
  std::array<double, 3> relative_error_{};
};

}  // namespace

std::unique_ptr<Workload> make_tail_workload(const Options& opt) {
  return std::make_unique<TailWorkload>(opt);
}

}  // namespace perfbench
