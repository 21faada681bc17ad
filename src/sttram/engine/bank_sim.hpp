// Trace-driven discrete-event STT-RAM bank simulator.
//
// An N-bank memory services a request stream; every access occupies its
// bank for the sensing scheme's calibrated service time (from
// sim/timing_energy), so the scheme-level latency/energy differences the
// paper argues for become system-level bandwidth, loaded latency and
// energy numbers.  The event core is controller::ChannelSim in its flat
// configuration: every request on row 0, no row-management time or
// energy, no coalescing — so an access occupies its bank for exactly
// the scheme's read or write service.  Arrival and completion events,
// simultaneous completions retiring lowest bank first; fully
// deterministic for a given configuration — no wall-clock input,
// explicit seeds only.
//
// Cross-validation: a single-bank FCFS run under an open-loop Poisson
// read stream is exactly the M/D/1 queue of the analytic model in
// sim/throughput (tested to agree within a few percent).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sttram/common/units.hpp"
#include "sttram/engine/fault_hook.hpp"
#include "sttram/engine/request.hpp"
#include "sttram/obs/histogram.hpp"
#include "sttram/sim/timing_energy.hpp"

namespace sttram::engine {

/// The three read schemes a bank can be built around.
enum class SensingScheme : std::uint8_t {
  kConventional,          ///< externally referenced (fastest, variation-fragile)
  kDestructive,           ///< Jeong-2003 self-reference (two write pulses)
  kNondestructive,        ///< the paper's scheme (no writes)
};

[[nodiscard]] const char* to_string(SensingScheme scheme);
/// Parses "conventional" / "destructive" / "nondestructive"; returns
/// false on anything else.
bool parse_scheme(const std::string& name, SensingScheme& scheme);

/// Per-request bank occupancy and energy of one scheme, taken from the
/// calibrated executable read operations (worst case over the stored
/// value) plus the scheme-independent write path.
struct BankTiming {
  Second read_service{0.0};
  Second write_service{0.0};
  Joule read_energy{0.0};
  Joule write_energy{0.0};
};

BankTiming scheme_bank_timing(SensingScheme scheme,
                              const CostComparisonConfig& cost);

/// How the request stream is produced.
enum class WorkloadKind : std::uint8_t {
  kPoisson,     ///< open loop, exponential interarrivals
  kClosedLoop,  ///< fixed client population with think time
  kTrace,       ///< replay TrafficConfig::trace
};

/// Full description of one traffic experiment.
struct TrafficConfig {
  SensingScheme scheme = SensingScheme::kNondestructive;
  CostComparisonConfig cost{};
  std::size_t banks = 4;
  SchedulingPolicy policy = SchedulingPolicy::kFcfs;
  WorkloadKind workload = WorkloadKind::kPoisson;
  std::size_t requests = 100000;
  double read_fraction = 0.7;
  std::size_t word_bits = 32;
  std::uint64_t seed = 1;
  /// Poisson: offered load per bank as a fraction of its service
  /// capacity (the rho of the M/D/1 cross-check).
  double utilization = 0.6;
  /// Closed loop: client population and mean (exponential) think time.
  std::size_t clients = 8;
  Second think_time{50e-9};
  /// Trace replay (workload == kTrace); see load_trace_csv().
  std::vector<Request> trace;
  /// Optional fault hook (not owned).  Null keeps the exact fault-free
  /// code path — reports are bit-identical to a run without the field.
  ReadFaultModel* faults = nullptr;
};

/// Measured figures of merit of one traffic run.
struct TrafficReport {
  std::string scheme;
  std::size_t requests = 0;
  std::size_t reads = 0;
  std::size_t writes = 0;
  Second makespan{0.0};           ///< last completion time
  Second mean_latency{0.0};       ///< arrival -> completion
  /// Percentiles come from `latency_hist` (log-bucketed, <= ~1.6 %
  /// relative bucketing error); mean/max are exact.
  Second p50_latency{0.0};
  Second p90_latency{0.0};
  Second p99_latency{0.0};
  Second p999_latency{0.0};
  Second max_latency{0.0};
  Second mean_read_latency{0.0};
  Second mean_write_latency{0.0};
  Second mean_queue_wait{0.0};
  double sustained_bandwidth_mbps = 0.0;  ///< word_bits * requests / makespan
  std::vector<double> bank_utilization;   ///< busy fraction per bank
  double avg_bank_utilization = 0.0;
  std::size_t peak_queue_depth = 0;
  Joule total_energy{0.0};
  double energy_per_bit_pj = 0.0;
  Second read_service{0.0};   ///< the scheme occupancy used
  Second write_service{0.0};
  /// Full latency distributions (seconds): overall and split by op.
  /// Always populated — they are how the percentile fields above are
  /// computed, not telemetry — so they carry the tail shape the scalar
  /// summary cannot.
  obs::Histogram latency_hist;
  obs::Histogram read_latency_hist;
  obs::Histogram write_latency_hist;
  bool faults_enabled = false;  ///< whether a fault hook was attached
  TrafficFaultStats faults;     ///< fault/recovery totals (zeros if off)
};

/// Runs the experiment.  Deterministic for a given config.
TrafficReport run_traffic(const TrafficConfig& config);

}  // namespace sttram::engine
