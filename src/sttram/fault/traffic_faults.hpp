// Per-access fault model for the traffic engine: draws transient read
// bit errors, applies SECDED correction and bounded read-retry, and
// reports the recovery cost the bank simulator must charge.
//
// Implements engine::ReadFaultModel.  Determinism contract: the outcome
// of a request depends only on (config, request id) — each request
// forks its own RNG stream — so traffic runs are bit-identical across
// scheduling policies, workload generators and thread counts.
#pragma once

#include <cstdint>
#include <memory>

#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/fault_hook.hpp"
#include "sttram/fault/ecc.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram::fault {

/// Error rates and recovery costs of one traffic experiment.
struct TrafficFaultConfig {
  /// Per-bit probability that a read senses a bit wrong (transient: a
  /// retry redraws it).  Derive it from the yield overlay's raw BER or
  /// set it directly for what-if sweeps.
  double raw_ber = 0.0;
  /// SECDED(72,64) over each word: single-bit errors are corrected,
  /// double-bit errors detected (and retried).  Without ECC errors go
  /// undetected — silent corruption, and retries never trigger.
  bool ecc = true;
  /// Total read attempts allowed (1 = no retry).  A retry is issued
  /// only when ECC detects an uncorrectable word.
  std::uint32_t max_attempts = 3;
  /// Cost of one retry: normally the scheme's read service time/energy
  /// (the bank re-runs the whole read).
  Second retry_latency{0.0};
  Joule retry_energy{0.0};
  /// Cost of the SECDED decode, charged once per attempt when ECC is on.
  Second ecc_latency{1e-9};
  Joule ecc_energy{1e-13};
  /// Data bits per access when ECC is off (with ECC the codeword is the
  /// full 72 bits of SECDED(72,64)).
  std::size_t word_bits = kEccDataBits;
  std::uint64_t seed = 1;
};

/// The engine hook.  Stateless across requests apart from the master
/// stream, which is forked per request id.
class TrafficFaultModel final : public engine::ReadFaultModel {
 public:
  explicit TrafficFaultModel(const TrafficFaultConfig& config);

  [[nodiscard]] engine::ReadFaultOutcome read_outcome(
      std::uint64_t request_id) override;

  [[nodiscard]] const TrafficFaultConfig& config() const { return config_; }

 private:
  TrafficFaultConfig config_;
  Xoshiro256 master_;
  std::size_t codeword_bits_;
};

/// The model the traffic front ends attach (flat and chip-scale, CLI and
/// campaigns alike): a retry re-runs the whole read, so it costs the
/// scheme's read service time and energy, and the model's stream seed
/// derives from the run seed.
std::unique_ptr<TrafficFaultModel> make_traffic_fault_model(
    engine::SensingScheme scheme, const CostComparisonConfig& cost,
    double raw_ber, bool ecc, std::uint32_t max_attempts,
    std::uint64_t run_seed);

}  // namespace sttram::fault
