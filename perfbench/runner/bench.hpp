// Shared types of the benchmark runner: the workload interface the main
// loop drives, the per-op outcome it checks, and the per-run record a
// workload turns into its per-layer metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sttram/common/parallel.hpp"

namespace perfbench {

class Tracer;

/// Metric name -> value; units live in the table in main.cpp.
using Metrics = std::map<std::string, double>;

/// Knobs every workload reads.  `reference_scale` multiplies each
/// workload's reference value; 1 is the calibrated reference, anything
/// else is the self-test's deliberately wrong reference.
struct Options {
  std::uint64_t seed = 1;
  double reference_scale = 1.0;
  std::string work_dir;  ///< scratch directory for generated input files
};

/// One checked operation.  `items` counts the work the op completed
/// (cells, trials, simulated requests, circuit reads); `digest` is a
/// fingerprint of its output, equal across thread counts and tracing.
struct OpOutcome {
  double items = 0.0;
  bool ok = true;
  std::string error;
  std::uint64_t digest = 0;
};

/// Op inputs are a pure function of (workload seed, op index), so every
/// phase of a run replays exactly the same ops.
struct OpContext {
  std::size_t index = 0;
  sttram::ParallelExecutor* executor = nullptr;
  Tracer* tracer = nullptr;  ///< null when tracing is off
};

/// Attempted/failed tally of the output checks.
class CheckLog {
 public:
  void record(bool ok, const std::string& what);
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// What a traced run measured, handed to Workload::layer_metrics.  The
/// wall vectors cover the same ops (index i in each), untraced: at the
/// workload's thread count and at one thread.
struct TraceRun {
  std::size_t ops = 0;
  std::size_t threads = 1;  ///< the workload's thread count in this run
  std::vector<double> wall_workload_threads;
  std::vector<double> wall_one_thread;
  /// Per-layer self seconds summed over the traced ops (tracer metric
  /// keys, e.g. "device.sample"; "unattributed" is the op root's self).
  std::map<std::string, double> self_seconds;
  /// obs counter totals over the traced ops of the first cycle (an op
  /// set that does not depend on timing, so counts repeat exactly).
  std::map<std::string, double> first_cycle_counters;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads the workload's parallel calls use (capped at nproc).
  [[nodiscard]] virtual std::size_t threads() const = 0;
  /// Ops per cycle; timed loops run whole cycles.
  [[nodiscard]] virtual std::size_t cycle() const = 0;
  /// Name of the per-path rate op `index` feeds (an info line, e.g.
  /// "flat_requests_per_s").
  [[nodiscard]] virtual const char* rate_name(std::size_t index) const = 0;
  /// Input generation, file writes and warm-up — everything before the
  /// first timed op except the thread pool.
  virtual void setup(sttram::ParallelExecutor& executor) = 0;
  /// Runs op `ctx.index` and checks its output.
  virtual OpOutcome run_op(const OpContext& ctx) = 0;
  /// Checks outside the timed region: batched path vs the scalar oracle
  /// and one thread vs several, on small inputs.
  virtual void verify(CheckLog& log, sttram::ParallelExecutor& one,
                      sttram::ParallelExecutor& many) = 0;
  /// Maps an obs trace event (profile scope or span) of op `index` to the
  /// tracer metric key its self time counts toward; "" drops it, so its
  /// time stays with the enclosing span.
  [[nodiscard]] virtual std::string obs_metric(std::size_t index,
                                               const std::string& name,
                                               const std::string& cat) const = 0;
  /// Per-layer metrics of a traced run.  May call layer functions
  /// directly (single thread, untraced) to split opaque spans.
  virtual void layer_metrics(const TraceRun& run, Metrics& out) = 0;
};

std::unique_ptr<Workload> make_yield_workload(const Options& opt);
std::unique_ptr<Workload> make_tail_workload(const Options& opt);
std::unique_ptr<Workload> make_traffic_workload(const Options& opt);
std::unique_ptr<Workload> make_transient_workload(const Options& opt);

/// T(1) / (threads * T(threads)) over the traced run's ops for which
/// `pick(index)` holds.
double parallel_efficiency(const TraceRun& run,
                           const std::function<bool(std::size_t)>& pick);

/// SplitMix64 of (seed, stream): per-op and per-input seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a fold of a double's bits (output fingerprints).
std::uint64_t fold(std::uint64_t h, double v);

/// Seconds since an arbitrary fixed origin (steady clock).
double now_seconds();

/// Two-sided Poisson acceptance: false when k lies in a tail of
/// Poisson(mean) with probability below `alpha`.
bool poisson_plausible(double mean, std::uint64_t k, double alpha);

}  // namespace perfbench
