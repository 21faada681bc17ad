// Workload generation for the traffic engine: synthetic open-loop
// Poisson streams and CSV access traces.  (Closed-loop traffic is
// generated on the fly inside the simulator, since its arrivals depend
// on completions.)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sttram/engine/request.hpp"

namespace sttram::engine {

/// Open-loop Poisson stream: exponential interarrivals, Bernoulli
/// read/write mix, uniformly random bank.  Deterministic per seed.
struct PoissonWorkloadConfig {
  std::size_t requests = 0;
  Second mean_interarrival{0.0};  ///< across all banks
  double read_fraction = 0.7;
  std::size_t banks = 1;
  std::uint64_t seed = 1;
};

std::vector<Request> generate_poisson_workload(
    const PoissonWorkloadConfig& config);

/// Loads an access trace.  Format: a CSV with columns
///   arrival_s,op,bank
/// where `op` is read/r/R or write/w/W; row 1 is a header, and skipped,
/// when its first field is a label.  Quoted fields, CRLF line ends,
/// blank lines and extra columns are accepted (DESIGN.md §9.1).  Rows
/// are numbered in arrival order, stably sorted first when out of order.
/// Throws InvalidArgument naming the row and column of a malformed
/// record, and on a stream read error.
std::vector<Request> load_trace_csv(std::istream& in);

/// Writes `requests` in the load_trace_csv format (with header).
void write_trace_csv(std::ostream& out,
                     const std::vector<Request>& requests);

}  // namespace sttram::engine
