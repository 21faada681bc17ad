#include "sttram/fault/traffic_faults.hpp"

#include "sttram/common/error.hpp"
#include "sttram/obs/profile.hpp"

namespace sttram::fault {

TrafficFaultModel::TrafficFaultModel(const TrafficFaultConfig& config)
    : config_(config),
      master_(config.seed),
      codeword_bits_(config.ecc ? static_cast<std::size_t>(kEccCodewordBits)
                                : config.word_bits) {
  require(config.raw_ber >= 0.0 && config.raw_ber <= 1.0,
          "TrafficFaultModel: raw_ber must be in [0, 1]");
  require(config.max_attempts >= 1,
          "TrafficFaultModel: need at least one read attempt");
  require(config.word_bits > 0,
          "TrafficFaultModel: word_bits must be > 0");
}

std::unique_ptr<TrafficFaultModel> make_traffic_fault_model(
    engine::SensingScheme scheme, const CostComparisonConfig& cost,
    double raw_ber, bool ecc, std::uint32_t max_attempts,
    std::uint64_t run_seed) {
  const engine::BankTiming timing = engine::scheme_bank_timing(scheme, cost);
  TrafficFaultConfig fc;
  fc.raw_ber = raw_ber;
  fc.ecc = ecc;
  fc.max_attempts = max_attempts;
  fc.retry_latency = timing.read_service;
  fc.retry_energy = timing.read_energy;
  fc.seed = run_seed ^ 0x5717fa7ee1dULL;
  return std::make_unique<TrafficFaultModel>(fc);
}

engine::ReadFaultOutcome TrafficFaultModel::read_outcome(
    std::uint64_t request_id) {
  STTRAM_PROFILE_SCOPE("fault.ecc_retry");
  engine::ReadFaultOutcome outcome;
  if (config_.raw_ber <= 0.0) {
    if (config_.ecc) {
      outcome.extra_latency += config_.ecc_latency;
      outcome.extra_energy += config_.ecc_energy;
    }
    return outcome;
  }

  Xoshiro256 rng = master_.fork(request_id);
  const std::uint32_t attempts =
      config_.ecc ? config_.max_attempts : 1;  // no detection, no retry
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++outcome.attempts;
      outcome.extra_latency += config_.retry_latency;
      outcome.extra_energy += config_.retry_energy;
    }
    if (config_.ecc) {
      outcome.extra_latency += config_.ecc_latency;
      outcome.extra_energy += config_.ecc_energy;
    }
    // Transient errors: every attempt redraws each codeword bit.
    std::uint32_t errors = 0;
    for (std::size_t b = 0; b < codeword_bits_; ++b) {
      if (rng.next_double() < config_.raw_ber) ++errors;
    }
    outcome.raw_bit_errors += errors;
    if (errors == 0) {
      outcome.uncorrectable = false;
      return outcome;
    }
    if (!config_.ecc) {
      // No detection path: the corrupted word is consumed as-is.
      outcome.silent = true;
      return outcome;
    }
    if (errors == 1) {
      outcome.corrected = true;
      outcome.uncorrectable = false;
      return outcome;
    }
    // >= 2 errors: SECDED detects but cannot correct — retry if allowed.
    outcome.uncorrectable = true;
  }
  return outcome;
}

}  // namespace sttram::fault
