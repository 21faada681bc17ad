// One memory channel: ranks × banks with open-row state, an FR-FCFS
// command scheduler and an MSHR-style coalescing front end.
//
// The channel is driven by an external event loop (submit requests in
// arrival order, interleaved with step() in global-time order; see
// run_open_loop below), and accesses are scheduled at command
// granularity: each access pays its row-buffer outcome — hit (RD/WR
// only), miss (ACT + RD/WR) or conflict (PRE + ACT + RD/WR) — from the
// scheme's CommandTiming table.  The hot path is pure arithmetic over
// the collapsed table; no per-command event objects are allocated, so a
// channel sustains tens of millions of simulated requests per second.
//
// It is the traffic engine's only event core: the flat bank simulator
// (bank_sim.hpp) runs it with every request on row 0, zero ACT/PRE time
// and energy and no coalescing, so each access occupies its bank for
// exactly the read or write service.
//
// Scheduling (SchedulingPolicy::kFrFcfs): when a bank frees, the oldest
// pending access to the currently open row is served first (a row hit
// saves ACT/PRE); the oldest entry overall can be bypassed at most
// `starvation_cap` times before it is forced, which bounds starvation
// (tested in test_controller.cpp).  kFcfs is strict arrival order;
// kReadPriority serves the oldest pending read, else the oldest entry.
//
// Coalescing: a read arriving for a (bank, row) that already has a
// *queued* read is merged into it (one data access serves both); the
// merged request's latency is still measured from its own arrival.
// In-flight accesses are never merged, so service timing of started
// work is unaffected.
//
// Determinism: ties between simultaneous completions break by lowest
// bank index, and the scheduler depends only on queue contents — never
// on wall-clock or thread timing — so a channel run is a pure function
// of its request stream.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/engine/controller/command.hpp"
#include "sttram/engine/fault_hook.hpp"
#include "sttram/engine/request.hpp"
#include "sttram/obs/histogram.hpp"

namespace sttram::engine::controller {

/// Parses the controller's scheduler names "fcfs" / "frfcfs"; returns
/// false on anything else.
bool parse_scheduler(const std::string& name, SchedulingPolicy& policy);

/// One access offered to a channel.  `bank` is the flat bank index
/// within the channel (rank * banks_per_rank + bank).
struct MemRequest {
  std::uint64_t id = 0;   ///< globally unique, monotonic per channel
  double arrival = 0.0;   ///< seconds
  Op op = Op::kRead;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
};

struct ChannelConfig {
  std::size_t banks = 16;  ///< flat bank count (ranks * banks_per_rank)
  CommandTiming timing{};
  SchedulingPolicy scheduler = SchedulingPolicy::kFrFcfs;
  /// FR-FCFS aging cap: row hits may bypass the oldest pending access
  /// at most this many times before it is forced to the front.
  std::size_t starvation_cap = 8;
  bool coalescing = true;
  /// Optional per-read fault hook (not owned); null is the exact
  /// fault-free path.  Coalesced reads share the host access's data and
  /// draw no separate outcome.
  ReadFaultModel* faults = nullptr;
};

/// Aggregated figures of one channel's run, accumulated online so the
/// driving loop never materializes completion records.
struct ChannelStats {
  std::size_t reads = 0;   ///< includes coalesced reads
  std::size_t writes = 0;
  std::size_t coalesced_reads = 0;
  std::size_t row_hits = 0;
  std::size_t row_misses = 0;
  std::size_t row_conflicts = 0;
  std::size_t starvation_promotions = 0;  ///< aging cap fired
  std::size_t peak_queue_depth = 0;
  double makespan = 0.0;       ///< last completion (seconds)
  double latency_sum = 0.0;    ///< arrival -> completion, summed
  double queue_wait_sum = 0.0; ///< arrival -> service start, summed
  double max_latency = 0.0;
  double busy_time = 0.0;      ///< bank occupancy, summed over banks
  double energy_j = 0.0;
  obs::Histogram latency_hist;
  TrafficFaultStats faults;

  [[nodiscard]] std::size_t requests() const { return reads + writes; }
};

class ChannelSim {
 public:
  explicit ChannelSim(const ChannelConfig& config);

  /// Admits one access.  The caller must keep global time order: only
  /// submit a request whose arrival precedes next_completion_time().
  /// The request either starts service, queues, or coalesces into a
  /// pending read.  Defined inline below: the driving event loops call
  /// this once per request, and inlining the whole submit/step path
  /// into the caller's translation unit is worth ~10 % chip-scale
  /// throughput.
  void submit(const MemRequest& request);

  [[nodiscard]] bool idle() const { return in_flight_ == 0; }
  /// Earliest outstanding completion (call only when !idle()).
  [[nodiscard]] double next_completion_time() const {
    return std::bit_cast<double>(key_[earliest_busy_bank()]);
  }
  /// Retires the earliest completion (host access plus any coalesced
  /// reads), accumulates it into stats() and schedules the bank's next
  /// pending access.  `on_retire(request, start, finish)` sees the host
  /// access (coalesced reads share its start and finish).  Returns how
  /// many requests retired.
  template <typename OnRetire>
  std::size_t step(OnRetire&& on_retire);
  std::size_t step() {
    return step([](const MemRequest&, double, double) {});
  }

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t banks() const { return banks_.size(); }
  /// Service time bank `b` has accumulated (seconds).
  [[nodiscard]] double busy_time(std::size_t b) const {
    require(b < banks_.size(), "ChannelSim::busy_time: bad bank");
    return banks_[b].busy_time;
  }

 private:
  struct Entry {
    MemRequest request;
    /// Arrival times of reads coalesced into this access (empty on the
    /// common path — no allocation until a merge happens).
    std::vector<double> coalesced;
  };

  /// Per-bank pending queue: a power-of-two ring over a flat vector.
  /// A deque here costs ~2x on the submit/pop hot paths (chunked
  /// iterators in the coalescing and FR-FCFS scans); the ring keeps
  /// both scans over contiguous memory.
  struct Ring {
    std::vector<Entry> slots;
    std::size_t head = 0;   ///< index of the oldest entry
    std::size_t count = 0;

    [[nodiscard]] bool empty() const { return count == 0; }
    [[nodiscard]] std::size_t size() const { return count; }
    [[nodiscard]] Entry& at(std::size_t i) {
      return slots[(head + i) & (slots.size() - 1)];
    }
    void push_back(Entry&& entry);
    [[nodiscard]] Entry pop_front() {
      Entry entry = std::move(slots[head]);
      head = (head + 1) & (slots.size() - 1);
      --count;
      return entry;
    }
    /// Removes the i-th oldest entry, shifting younger ones down
    /// (the FR-FCFS mid-queue bypass; rare relative to push/pop).
    [[nodiscard]] Entry take(std::size_t i);
  };

  struct Bank {
    Ring queue;
    bool busy = false;
    std::int64_t open_row = -1;  ///< -1 = closed (no row activated yet)
    Entry current{};
    double current_start = 0.0;
    double current_finish = 0.0;
    double busy_time = 0.0;
    /// Times the oldest queued entry has been bypassed by a row hit.
    std::size_t bypass_count = 0;
  };

  void start_service(std::size_t b, Entry&& entry, double at);
  /// Applies the scheduling policy to a freed bank's queue.
  Entry pop_next(Bank& bank);
  /// Argmin over key_ — a branchless unsigned scan (ties resolve to the
  /// lowest bank index), cached between events: submissions update the
  /// cache incrementally, retirements invalidate it, so the scan runs
  /// about once per completion.
  [[nodiscard]] std::size_t earliest_busy_bank() const {
    if (earliest_valid_) return earliest_;
    // Two independent min-chains halve the cmov dependency depth; the
    // final merge prefers the even lane on a tie, which is the lower
    // bank index.
    const std::size_t n = key_.size();
    std::size_t best0 = 0, best1 = n > 1 ? 1 : 0;
    std::uint64_t key0 = key_[best0], key1 = key_[best1];
    for (std::size_t b = 2; b + 1 < n; b += 2) {
      const std::uint64_t a = key_[b], c = key_[b + 1];
      const bool la = a < key0, lc = c < key1;
      best0 = la ? b : best0;
      key0 = la ? a : key0;
      best1 = lc ? b + 1 : best1;
      key1 = lc ? c : key1;
    }
    if (n > 2 && (n & 1)) {
      const std::uint64_t a = key_[n - 1];
      const bool la = a < key0;
      best0 = la ? n - 1 : best0;
      key0 = la ? a : key0;
    }
    // Even-lane indices are all even, odd-lane all odd, EXCEPT when a
    // trailing odd element joined lane 0 — then a key tie must still
    // resolve to the smaller index.
    std::size_t best;
    if (key0 < key1) best = best0;
    else if (key1 < key0) best = best1;
    else best = best0 < best1 ? best0 : best1;
    earliest_ = best;
    earliest_valid_ = true;
    return best;
  }
  void record(const Entry& entry, double start, double finish);

  ChannelConfig config_;
  std::vector<Bank> banks_;
  /// Hot-path mirror of each bank's current_finish as raw IEEE-754 bits
  /// (+inf when idle).  Non-negative doubles order identically to their
  /// bit patterns as unsigned integers, so the completion scan is a
  /// pure integer argmin over a compact array — branchless, and never
  /// touching the fat Bank structs.
  std::vector<std::uint64_t> key_;
  mutable std::size_t earliest_ = 0;
  mutable bool earliest_valid_ = false;
  ChannelStats stats_;
  std::size_t in_flight_ = 0;
};

// ---- inline hot path ------------------------------------------------
// One submit and ~one step per simulated request; everything below is
// defined here so the driving loop's translation unit can inline it.

inline void ChannelSim::start_service(std::size_t b, Entry&& entry,
                                      double at) {
  Bank& bank = banks_[b];
  const MemRequest& r = entry.request;
  const bool is_read = r.op == Op::kRead;
  const bool row_open = bank.open_row >= 0;
  const bool row_hit =
      row_open && bank.open_row == static_cast<std::int64_t>(r.row);
  // Branchless hit/miss/conflict accounting: the outcome mix is
  // data-dependent (~40 % mispredict under moderate locality), so
  // arithmetic selects beat a three-way branch here.
  stats_.row_hits += row_hit ? 1 : 0;
  stats_.row_conflicts += (!row_hit && row_open) ? 1 : 0;
  stats_.row_misses += (!row_hit && !row_open) ? 1 : 0;
  const double row_energy =
      row_hit ? 0.0
              : config_.timing.e_act.value() +
                    (row_open ? config_.timing.e_pre.value() : 0.0);
  double service =
      config_.timing.occupancy(is_read, row_hit, row_open).value();
  stats_.energy_j += row_energy + (is_read ? config_.timing.e_read.value()
                                           : config_.timing.e_write.value());
  if (config_.faults != nullptr && is_read) {
    // One outcome per host read; the result depends only on the request
    // id, so schedules reproduce regardless of bank interleaving.
    const ReadFaultOutcome outcome = config_.faults->read_outcome(r.id);
    service += outcome.extra_latency.value();
    if (outcome.raw_bit_errors > 0) ++stats_.faults.faulty_reads;
    stats_.faults.retries += outcome.attempts - 1;
    stats_.faults.raw_bit_errors += outcome.raw_bit_errors;
    if (outcome.corrected) ++stats_.faults.corrected_words;
    if (outcome.uncorrectable) ++stats_.faults.uncorrectable_words;
    if (outcome.silent) ++stats_.faults.silent_corruptions;
    stats_.faults.extra_latency += outcome.extra_latency;
    stats_.faults.extra_energy += outcome.extra_energy;
    stats_.energy_j += outcome.extra_energy.value();
  }
  bank.open_row = static_cast<std::int64_t>(r.row);
  bank.busy = true;
  bank.current = std::move(entry);
  bank.current_start = std::max(at, r.arrival);
  bank.current_finish = bank.current_start + service;
  const std::uint64_t key = std::bit_cast<std::uint64_t>(bank.current_finish);
  key_[b] = key;
  // The cached argmin stays valid: adding one in-flight access can only
  // displace it if the new completion is strictly earlier (ties resolve
  // to the lowest bank index).  An invalid cache stays invalid; the
  // next scan sees this bank through key_.
  if (in_flight_ == 0) {
    earliest_ = b;
    earliest_valid_ = true;
  } else if (earliest_valid_) {
    const std::uint64_t best = key_[earliest_];
    if (key < best || (key == best && b < earliest_)) earliest_ = b;
  }
  bank.busy_time += service;
  stats_.busy_time += service;
  ++in_flight_;
}

inline void ChannelSim::submit(const MemRequest& request) {
  require(request.bank < banks_.size(),
          "ChannelSim::submit: bank index out of range");
  Bank& bank = banks_[request.bank];
  if (!bank.busy) {
    start_service(request.bank, Entry{request, {}}, request.arrival);
    return;
  }
  if (config_.coalescing && request.op == Op::kRead) {
    // MSHR-style merge: a queued (not yet started) read to the same row
    // serves this one with its data access.
    for (std::size_t i = 0; i < bank.queue.size(); ++i) {
      Entry& pending = bank.queue.at(i);
      if (pending.request.op == Op::kRead &&
          pending.request.row == request.row) {
        pending.coalesced.push_back(request.arrival);
        ++stats_.coalesced_reads;
        return;
      }
    }
  }
  bank.queue.push_back(Entry{request, {}});
  stats_.peak_queue_depth =
      std::max(stats_.peak_queue_depth, bank.queue.size());
}

inline ChannelSim::Entry ChannelSim::pop_next(Bank& bank) {
  if (config_.scheduler == SchedulingPolicy::kReadPriority) {
    // Oldest pending read first; the head when no read waits.
    std::size_t read = 0;
    while (read < bank.queue.size() &&
           bank.queue.at(read).request.op != Op::kRead) {
      ++read;
    }
    return read == 0 || read == bank.queue.size() ? bank.queue.pop_front()
                                                  : bank.queue.take(read);
  }
  if (config_.scheduler == SchedulingPolicy::kFrFcfs &&
      bank.queue.size() > 1 && bank.open_row >= 0) {
    std::size_t hit = bank.queue.size();
    for (std::size_t i = 0; i < bank.queue.size(); ++i) {
      if (static_cast<std::int64_t>(bank.queue.at(i).request.row) ==
          bank.open_row) {
        hit = i;
        break;
      }
    }
    if (hit != bank.queue.size() && hit > 0) {
      if (bank.bypass_count < config_.starvation_cap) {
        // Row-hit-first: serve the oldest hit, aging the queue head.
        ++bank.bypass_count;
        return bank.queue.take(hit);
      }
      // Aging cap reached: force the oldest entry even though a deeper
      // row hit exists.  This bounds any entry's wait to
      // starvation_cap bypasses.
      ++stats_.starvation_promotions;
    }
  }
  bank.bypass_count = 0;
  return bank.queue.pop_front();
}

inline void ChannelSim::record(const Entry& entry, double start,
                               double finish) {
  const bool is_read = entry.request.op == Op::kRead;
  const auto record_one = [&](double arrival) {
    const double latency = finish - arrival;
    stats_.latency_sum += latency;
    stats_.queue_wait_sum += start - arrival;
    stats_.max_latency = std::max(stats_.max_latency, latency);
    stats_.latency_hist.record(latency);
    stats_.reads += is_read ? 1 : 0;
    stats_.writes += is_read ? 0 : 1;
  };
  record_one(entry.request.arrival);
  for (const double arrival : entry.coalesced) record_one(arrival);
  stats_.makespan = std::max(stats_.makespan, finish);
}

template <typename OnRetire>
inline std::size_t ChannelSim::step(OnRetire&& on_retire) {
  const std::size_t b = earliest_busy_bank();
  Bank& bank = banks_[b];
  const double finish = bank.current_finish;
  // Record the retiring access in place — stats and service state are
  // independent, and this avoids moving the Entry out of the bank just
  // to read it.  A back-to-back start below overwrites bank.current;
  // otherwise the stale entry is harmless (the next start overwrites
  // it too).
  record(bank.current, bank.current_start, finish);
  on_retire(bank.current.request, bank.current_start, finish);
  const std::size_t retired = 1 + bank.current.coalesced.size();
  bank.busy = false;
  key_[b] = std::bit_cast<std::uint64_t>(
      std::numeric_limits<double>::infinity());
  // Retiring the cached minimum invalidates it; a back-to-back start on
  // this bank may revalidate through start_service.
  earliest_valid_ = false;
  --in_flight_;
  if (!bank.queue.empty()) {
    // Every queued access arrived while the bank was busy, so service
    // starts back-to-back at the completion instant.
    start_service(b, pop_next(bank), finish);
  }
  return retired;
}

/// Drives `sim` through an arrival-ordered stream of `n` requests,
/// `next(i)` producing the i-th, and hands every retirement to
/// `on_retire` (see ChannelSim::step).  Completions at the same instant
/// run before arrivals, so a same-time arrival sees the freed bank and
/// the order stays independent of how the stream was produced.
template <typename Source, typename OnRetire>
void run_open_loop(ChannelSim& sim, std::size_t n, Source&& next,
                   OnRetire&& on_retire) {
  std::size_t issued = 0;
  std::size_t completed = 0;
  MemRequest pending;
  if (n > 0) pending = next(0);
  while (completed < n) {
    if (!sim.idle() &&
        (issued == n || sim.next_completion_time() <= pending.arrival)) {
      completed += sim.step(on_retire);
    } else {
      sim.submit(pending);
      ++issued;
      if (issued < n) pending = next(issued);
    }
  }
}

}  // namespace sttram::engine::controller
