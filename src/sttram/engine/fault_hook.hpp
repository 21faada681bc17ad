// Fault hook of the traffic engine.
//
// The engine itself knows nothing about fault physics: a read request
// may optionally be routed through a ReadFaultModel, which answers with
// the per-access outcome (retries taken, ECC action, extra bank
// occupancy and energy).  The concrete model lives in the fault layer
// above (src/sttram/fault/traffic_faults) — this header is the seam
// that keeps the dependency pointing upward (engine never links fault).
//
// Contract: the event core (controller::ChannelSim, flat and chip-scale
// alike) calls read_outcome() exactly once per read bank access, when
// it starts service, keyed by the request id.  Implementations must depend only
// on that id (derive per-request RNG streams from it), never on call
// order, so simulations stay bit-identical across scheduling policies
// and workload generators.  A null hook is the fault-free fast path and
// must leave results bit-identical to a build without the hook.
#pragma once

#include <cstdint>

#include "sttram/common/units.hpp"

namespace sttram::engine {

/// What one (possibly retried) read access amounted to.
struct ReadFaultOutcome {
  std::uint32_t attempts = 1;        ///< reads issued (1 = no retry)
  std::uint32_t raw_bit_errors = 0;  ///< bit flips drawn across attempts
  bool corrected = false;            ///< ECC fixed a single-bit error
  bool uncorrectable = false;        ///< detected but not correctable
  bool silent = false;               ///< undetected corruption (no ECC)
  Second extra_latency{0.0};         ///< added bank occupancy
  Joule extra_energy{0.0};           ///< added access energy
};

/// Interface the engine drives; implemented by fault/traffic_faults.
class ReadFaultModel {
 public:
  virtual ~ReadFaultModel() = default;

  /// Outcome of the read with this id.  Must be a pure function of the
  /// id and the model's configuration (see the determinism contract in
  /// the header comment).
  [[nodiscard]] virtual ReadFaultOutcome read_outcome(
      std::uint64_t request_id) = 0;
};

/// Aggregate fault/recovery activity of one traffic run.
struct TrafficFaultStats {
  std::uint64_t faulty_reads = 0;     ///< reads with >= 1 raw bit error
  std::uint64_t retries = 0;          ///< extra read attempts issued
  std::uint64_t raw_bit_errors = 0;   ///< bit flips before any recovery
  std::uint64_t corrected_words = 0;  ///< reads fixed by ECC
  std::uint64_t uncorrectable_words = 0;  ///< retries exhausted, detected
  std::uint64_t silent_corruptions = 0;   ///< undetected wrong data
  Second extra_latency{0.0};  ///< total retry + ECC bank occupancy
  Joule extra_energy{0.0};    ///< total retry + ECC energy
};

}  // namespace sttram::engine
