// Memory-access requests and the bank scheduling policies of the
// traffic engine.
#pragma once

#include <cstdint>

#include "sttram/common/units.hpp"

namespace sttram::engine {

enum class Op : std::uint8_t { kRead, kWrite };

/// One bank access offered to the traffic engine.
struct Request {
  std::uint64_t id = 0;     ///< issue order (unique, monotonic)
  Second arrival{0.0};      ///< when the request enters the controller
  Op op = Op::kRead;
  std::uint32_t bank = 0;
};

/// Arrival order; stable sorts by it keep equal arrivals in issue order.
inline bool arrives_before(const Request& a, const Request& b) {
  return a.arrival < b.arrival;
}

/// How a bank picks the next pending request when it frees up.  One
/// policy type serves both front ends: the flat bank simulator accepts
/// kFcfs / kReadPriority, the chip-scale controller kFcfs / kFrFcfs.
enum class SchedulingPolicy : std::uint8_t {
  kFcfs,          ///< strict arrival order
  /// Oldest pending read first; writes only drain when no read waits.
  /// Models a read-priority controller exploiting that STT-RAM writes
  /// are latency-insensitive (posted) while reads stall the consumer.
  kReadPriority,
  /// Row-hit-first with an aging cap (see controller/channel.hpp).
  kFrFcfs,
};

/// "fcfs" / "read-priority" / "frfcfs".
[[nodiscard]] const char* to_string(SchedulingPolicy policy);

}  // namespace sttram::engine
