// Chip-scale memory controller: channels × ranks × banks driven by a
// per-scheme command-timing table, with per-channel sharded simulation.
//
// Channels are independent (separate command/data paths), so the chip
// runner shards the request stream by channel and simulates each
// channel's event loop on its own worker thread through the standard
// ParallelExecutor contract: channel c draws its workload from
// Xoshiro256(seed).fork(c), writes only its own pre-allocated result
// slot, and every cross-channel reduction (histogram merge, sums,
// maxima) runs serially in channel order after the chunks join.  The
// report is therefore bit-identical for any thread count — the same
// repo-wide determinism contract the Monte-Carlo drivers follow
// (DESIGN.md §9.2), regression-tested for 1/2/8 threads.
//
// The per-channel workload is an open-loop Poisson stream with a
// row-locality knob: with probability `row_locality` an access reuses
// its bank's previously addressed row (making FR-FCFS row hits
// meaningful), otherwise it draws a fresh uniform row.  Request ids are
// globally unique and deterministic (channel-contiguous), so the fault
// hook — keyed by id — composes with sharding unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sttram/common/parallel.hpp"
#include "sttram/engine/controller/channel.hpp"
#include "sttram/engine/controller/command.hpp"

namespace sttram::engine::controller {

/// Full description of one chip-scale traffic experiment.
struct ControllerConfig {
  SensingScheme scheme = SensingScheme::kNondestructive;
  CostComparisonConfig cost{};
  std::size_t channels = 4;
  std::size_t ranks = 2;
  std::size_t banks = 8;   ///< banks per rank
  std::size_t rows = 64;   ///< rows per bank (the row-buffer namespace)
  SchedulingPolicy scheduler = SchedulingPolicy::kFrFcfs;
  std::size_t starvation_cap = 8;
  bool coalescing = true;
  std::size_t requests = 1000000;  ///< total across all channels
  double read_fraction = 0.7;
  /// Offered load per bank as a fraction of its (row-overhead-adjusted)
  /// service capacity.
  double utilization = 0.6;
  /// P(an access reuses its bank's last row); 0 = uniform rows.
  double row_locality = 0.6;
  std::size_t word_bits = 32;
  std::uint64_t seed = 1;
  /// Optional fault hook (not owned, shared by all channels — it must
  /// be a pure function of the request id, which the engine's hook
  /// contract already demands).  Null is the exact fault-free path.
  ReadFaultModel* faults = nullptr;
};

/// Per-channel figures of merit (percentiles from the channel's own
/// log-bucketed histogram).
struct ChannelReport {
  std::size_t requests = 0;
  std::size_t reads = 0;
  std::size_t writes = 0;
  std::size_t row_hits = 0;
  std::size_t row_misses = 0;
  std::size_t row_conflicts = 0;
  std::size_t coalesced_reads = 0;
  std::size_t starvation_promotions = 0;
  std::size_t peak_queue_depth = 0;
  Second makespan{0.0};
  Second mean_latency{0.0};
  Second p99_latency{0.0};
  double bandwidth_mbps = 0.0;
  double avg_bank_utilization = 0.0;
  Joule energy{0.0};
  obs::Histogram latency_hist;
};

/// Chip-level report: serial in-order reduction of the channel shards.
struct ControllerReport {
  std::string scheme;
  std::string scheduler;
  std::size_t channels = 0;
  std::size_t ranks = 0;
  std::size_t banks = 0;  ///< per rank
  std::size_t rows = 0;
  std::size_t requests = 0;
  std::size_t reads = 0;
  std::size_t writes = 0;
  std::size_t row_hits = 0;
  std::size_t row_misses = 0;
  std::size_t row_conflicts = 0;
  double row_hit_rate = 0.0;
  std::size_t coalesced_reads = 0;
  std::size_t starvation_promotions = 0;
  std::size_t peak_queue_depth = 0;
  Second makespan{0.0};  ///< max over channels
  Second mean_latency{0.0};
  Second p50_latency{0.0};
  Second p90_latency{0.0};
  Second p99_latency{0.0};
  Second p999_latency{0.0};
  Second max_latency{0.0};
  Second mean_queue_wait{0.0};
  /// Channel bandwidths add: independent data paths.
  double total_bandwidth_mbps = 0.0;
  Joule total_energy{0.0};
  double energy_per_bit_pj = 0.0;
  CommandTiming timing;  ///< the per-scheme table the run used
  std::vector<ChannelReport> channel;
  obs::Histogram latency_hist;  ///< exact merge of the channel shards
  bool faults_enabled = false;
  TrafficFaultStats faults;
};

/// Runs the experiment; `executor` fans channels over worker threads
/// (null = serial).  Deterministic: the report is a pure function of
/// the config, bit-identical for any executor / thread count.
ControllerReport run_controller_traffic(const ControllerConfig& config,
                                        ParallelExecutor* executor = nullptr);

}  // namespace sttram::engine::controller
