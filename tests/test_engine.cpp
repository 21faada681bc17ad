// Tests of the traffic engine: chunked executor determinism, the
// deterministic thread pool, the discrete-event bank simulator, and the
// cross-validation against the analytic M/D/1 model in sim/throughput.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <sstream>
#include <streambuf>
#include <stdexcept>
#include <string>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/common/parallel.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/request.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/engine/workload.hpp"
#include "sttram/fault/traffic_faults.hpp"
#include "sttram/obs/histogram.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/throughput.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/stats/importance.hpp"
#include "sttram/stats/monte_carlo.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {
namespace {

using engine::BankTiming;
using engine::Op;
using engine::Request;
using engine::SchedulingPolicy;
using engine::SensingScheme;
using engine::ThreadPool;
using engine::TrafficConfig;
using engine::TrafficReport;
using engine::WorkloadKind;

// ---------------------------------------------------------------------
// chunk_range partition
// ---------------------------------------------------------------------

TEST(ChunkRange, PartitionCoversRangeDisjointly) {
  for (const std::size_t total : {0u, 1u, 7u, 8u, 9u, 100u, 1000u}) {
    for (const std::size_t chunks : {1u, 2u, 3u, 8u, 16u}) {
      std::size_t expected_begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const ChunkRange r = chunk_range(total, chunks, c);
        EXPECT_EQ(r.begin, expected_begin);
        expected_begin = r.end;
      }
      EXPECT_EQ(expected_begin, total);
    }
  }
}

TEST(ChunkRange, EarlyChunksTakeTheRemainder) {
  // 10 items over 4 chunks: 3, 3, 2, 2.
  EXPECT_EQ(chunk_range(10, 4, 0).size(), 3u);
  EXPECT_EQ(chunk_range(10, 4, 1).size(), 3u);
  EXPECT_EQ(chunk_range(10, 4, 2).size(), 2u);
  EXPECT_EQ(chunk_range(10, 4, 3).size(), 2u);
}

TEST(ChunkRange, MoreChunksThanItemsLeavesEmptyTail) {
  EXPECT_EQ(chunk_range(2, 4, 0).size(), 1u);
  EXPECT_EQ(chunk_range(2, 4, 1).size(), 1u);
  EXPECT_TRUE(chunk_range(2, 4, 2).empty());
  EXPECT_TRUE(chunk_range(2, 4, 3).empty());
}

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  const std::size_t total = 1000;
  std::vector<std::atomic<int>> touched(total);
  pool.for_chunks(total,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      touched[i].fetch_add(1);
                    }
                  });
  for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ThreadPoolTest, ChunkIndexMatchesStaticPartition) {
  ThreadPool pool(3);
  std::vector<ChunkRange> seen(3);
  pool.for_chunks(100,
                  [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                    seen[chunk] = ChunkRange{begin, end};
                  });
  for (std::size_t c = 0; c < 3; ++c) {
    const ChunkRange expected = chunk_range(100, 3, c);
    EXPECT_EQ(seen[c].begin, expected.begin);
    EXPECT_EQ(seen[c].end, expected.end);
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id body_thread;
  pool.for_chunks(10, [&](std::size_t chunk, std::size_t begin,
                          std::size_t end) {
    EXPECT_EQ(chunk, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    body_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(body_thread, caller);
}

TEST(ThreadPoolTest, ZeroTotalInvokesNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.for_chunks(0, [&](std::size_t, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, PropagatesExceptionsFromWorkers) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.for_chunks(100,
                      [&](std::size_t chunk, std::size_t, std::size_t) {
                        if (chunk == 2) {
                          throw std::runtime_error("worker boom");
                        }
                      }),
      std::runtime_error);
  // The pool must survive the failed job.
  std::atomic<int> calls{0};
  pool.for_chunks(4, [&](std::size_t, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 4);
}

TEST(ThreadPoolTest, PropagatesExceptionsFromCallerChunk) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.for_chunks(10,
                      [&](std::size_t chunk, std::size_t, std::size_t) {
                        if (chunk == 0) throw std::runtime_error("boom");
                      }),
      std::runtime_error);
}

// ---------------------------------------------------------------------
// Bit-identical parallel Monte-Carlo drivers
// ---------------------------------------------------------------------

TEST(ParallelMonteCarlo, RunMonteCarloBitIdenticalAcrossThreadCounts) {
  const std::function<double(Xoshiro256&)> trial = [](Xoshiro256& rng) {
    double acc = 0.0;
    for (int k = 0; k < 16; ++k) acc += rng.next_double();
    return acc;
  };
  const std::vector<double> serial = run_monte_carlo(42, 1000, trial);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    MonteCarloOptions options;
    options.executor = &pool;
    const std::vector<double> parallel =
        run_monte_carlo(42, 1000, trial, options);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "trial " << i << " with "
                                        << threads << " threads";
    }
  }
}

TEST(ParallelMonteCarlo, StatsBitIdenticalAcrossThreadCounts) {
  const std::function<double(Xoshiro256&)> trial = [](Xoshiro256& rng) {
    return rng.next_double() - rng.next_double();
  };
  const RunningStats serial = monte_carlo_stats(7, 2000, trial);
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    MonteCarloOptions options;
    options.executor = &pool;
    const RunningStats parallel = monte_carlo_stats(7, 2000, trial, options);
    EXPECT_EQ(parallel.count(), serial.count());
    EXPECT_EQ(parallel.mean(), serial.mean());
    EXPECT_EQ(parallel.variance(), serial.variance());
    EXPECT_EQ(parallel.min(), serial.min());
    EXPECT_EQ(parallel.max(), serial.max());
  }
}

TEST(ParallelMonteCarlo, ProbabilityBitIdenticalAcrossThreadCounts) {
  const std::function<bool(Xoshiro256&)> predicate = [](Xoshiro256& rng) {
    return rng.next_double() < 0.1;
  };
  const ProbabilityEstimate serial = estimate_probability(11, 5000, predicate);
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    MonteCarloOptions options;
    options.executor = &pool;
    const ProbabilityEstimate parallel =
        estimate_probability(11, 5000, predicate, options);
    EXPECT_EQ(parallel.hits, serial.hits);
    EXPECT_EQ(parallel.p, serial.p);
    EXPECT_EQ(parallel.ci_lo, serial.ci_lo);
    EXPECT_EQ(parallel.ci_hi, serial.ci_hi);
  }
}

TEST(ParallelMonteCarlo, ImportanceSampleBitIdenticalAcrossThreadCounts) {
  const std::vector<double> shift{2.5, -1.0};
  const auto fails = [](const std::vector<double>& z) {
    return z[0] - 0.5 * z[1] > 3.0;
  };
  const ImportanceEstimate serial = importance_sample(5, 4000, shift, fails);
  ASSERT_GT(serial.hits, 0u);
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const ImportanceEstimate parallel =
        importance_sample(5, 4000, shift, fails, &pool);
    EXPECT_EQ(parallel.hits, serial.hits);
    EXPECT_EQ(parallel.probability, serial.probability);
    EXPECT_EQ(parallel.std_error, serial.std_error);
  }
}

TEST(ParallelMonteCarlo, ProgressFiresOnceUnderExecutor) {
  ThreadPool pool(2);
  MonteCarloOptions options;
  options.executor = &pool;
  std::size_t calls = 0;
  std::size_t last_done = 0;
  options.progress = [&](std::size_t done, std::size_t) {
    ++calls;
    last_done = done;
  };
  monte_carlo_stats(
      1, 100, [](Xoshiro256& rng) { return rng.next_double(); }, options);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(last_done, 100u);
}

TEST(ParallelDrivers, YieldExperimentBitIdenticalAcrossThreadCounts) {
  YieldConfig cfg;
  cfg.geometry = {16, 16};
  cfg.max_scatter_points = 7;  // exercise the subsampling path too
  const YieldResult serial = run_yield_experiment(cfg);
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const YieldResult parallel = run_yield_experiment(cfg, &pool);
    const SchemeYield* lhs[] = {&serial.conventional, &serial.reference_cell,
                                &serial.destructive, &serial.nondestructive};
    const SchemeYield* rhs[] = {&parallel.conventional,
                                &parallel.reference_cell,
                                &parallel.destructive,
                                &parallel.nondestructive};
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(rhs[s]->bits, lhs[s]->bits);
      EXPECT_EQ(rhs[s]->failures, lhs[s]->failures);
      EXPECT_EQ(rhs[s]->sm0_stats.mean(), lhs[s]->sm0_stats.mean());
      EXPECT_EQ(rhs[s]->sm1_stats.variance(), lhs[s]->sm1_stats.variance());
      ASSERT_EQ(rhs[s]->scatter.size(), lhs[s]->scatter.size());
      for (std::size_t i = 0; i < lhs[s]->scatter.size(); ++i) {
        EXPECT_EQ(rhs[s]->scatter[i], lhs[s]->scatter[i]);
      }
    }
  }
}

TEST(ParallelDrivers, MarginTailBitIdenticalAcrossThreadCounts) {
  TailConfig cfg;
  const TailEstimate serial = estimate_margin_tail(cfg, 1, 3000);
  ThreadPool pool(8);
  const TailEstimate parallel = estimate_margin_tail(cfg, 1, 3000, &pool);
  EXPECT_EQ(parallel.design_point, serial.design_point);
  EXPECT_EQ(parallel.estimate.hits, serial.estimate.hits);
  EXPECT_EQ(parallel.estimate.probability, serial.estimate.probability);
  EXPECT_EQ(parallel.estimate.std_error, serial.estimate.std_error);
}

// ---------------------------------------------------------------------
// Scheme timing
// ---------------------------------------------------------------------

TEST(SchemeTiming, NondestructiveReadsFasterThanDestructive) {
  const CostComparisonConfig cost;
  const BankTiming conv =
      engine::scheme_bank_timing(SensingScheme::kConventional, cost);
  const BankTiming des =
      engine::scheme_bank_timing(SensingScheme::kDestructive, cost);
  const BankTiming nondes =
      engine::scheme_bank_timing(SensingScheme::kNondestructive, cost);
  // The paper's ordering: conventional fastest, destructive slowest
  // (its two restore writes are on the read critical path).
  EXPECT_LT(conv.read_service.value(), nondes.read_service.value());
  EXPECT_LT(nondes.read_service.value(), des.read_service.value());
  EXPECT_LT(nondes.read_energy.value(), des.read_energy.value());
  // The write path is scheme-independent.
  EXPECT_EQ(conv.write_service.value(), des.write_service.value());
  EXPECT_EQ(des.write_service.value(), nondes.write_service.value());
  EXPECT_EQ(conv.write_energy.value(), nondes.write_energy.value());
  EXPECT_EQ(nondes.write_service, write_service_time(cost.timing));
}

TEST(SchemeTiming, ParseSchemeRoundTrips) {
  SensingScheme s = SensingScheme::kConventional;
  EXPECT_TRUE(engine::parse_scheme("nondestructive", s));
  EXPECT_EQ(s, SensingScheme::kNondestructive);
  EXPECT_TRUE(engine::parse_scheme("destructive", s));
  EXPECT_EQ(s, SensingScheme::kDestructive);
  EXPECT_TRUE(engine::parse_scheme("conventional", s));
  EXPECT_EQ(s, SensingScheme::kConventional);
  EXPECT_FALSE(engine::parse_scheme("quantum", s));
  EXPECT_FALSE(engine::parse_scheme("", s));
}

// ---------------------------------------------------------------------
// run_traffic
// ---------------------------------------------------------------------

TEST(RunTrafficTest, RetiresEveryRequestDeterministically) {
  TrafficConfig cfg;
  cfg.requests = 20000;
  cfg.banks = 4;
  cfg.seed = 9;
  const TrafficReport a = engine::run_traffic(cfg);
  const TrafficReport b = engine::run_traffic(cfg);
  EXPECT_EQ(a.requests, cfg.requests);
  EXPECT_EQ(a.reads + a.writes, a.requests);
  EXPECT_GT(a.reads, 0u);
  EXPECT_GT(a.writes, 0u);
  // Bit-identical replay.
  EXPECT_EQ(a.mean_latency.value(), b.mean_latency.value());
  EXPECT_EQ(a.p99_latency.value(), b.p99_latency.value());
  EXPECT_EQ(a.makespan.value(), b.makespan.value());
  EXPECT_EQ(a.sustained_bandwidth_mbps, b.sustained_bandwidth_mbps);
  EXPECT_EQ(a.total_energy.value(), b.total_energy.value());
  // Sanity of the shape: p50 <= p90 <= p99 <= max, wait >= 0.
  EXPECT_LE(a.p50_latency.value(), a.p90_latency.value());
  EXPECT_LE(a.p90_latency.value(), a.p99_latency.value());
  EXPECT_LE(a.p99_latency.value(), a.max_latency.value());
  EXPECT_GE(a.mean_queue_wait.value(), 0.0);
  EXPECT_GE(a.mean_latency.value(), a.read_service.value());
}

TEST(RunTrafficTest, MatchesAnalyticMD1AtRho06) {
  // Pure-read stream on one bank: deterministic service, Poisson
  // arrivals — exactly the M/D/1 queue of analyze_bank_performance.
  const CostComparisonConfig cost;
  WorkloadParams workload;
  workload.read_fraction = 1.0;
  workload.utilization = 0.6;
  const auto analytic = analyze_bank_performance(cost, workload);
  ASSERT_EQ(analytic.size(), 3u);
  const BankPerformance& nondes = analytic[2];
  ASSERT_EQ(nondes.scheme, "nondestructive self-ref");

  TrafficConfig cfg;
  cfg.scheme = SensingScheme::kNondestructive;
  cfg.cost = cost;
  cfg.banks = 1;
  cfg.requests = 150000;
  cfg.read_fraction = 1.0;
  cfg.utilization = 0.6;
  cfg.seed = 20100308;
  const TrafficReport r = engine::run_traffic(cfg);
  EXPECT_EQ(r.reads, cfg.requests);
  EXPECT_EQ(r.read_service.value(), nondes.read_service.value());
  const double measured = r.mean_latency.value();
  const double predicted = nondes.avg_queue_latency.value();
  EXPECT_NEAR(measured / predicted, 1.0, 0.05)
      << "DES " << measured << " s vs M/D/1 " << predicted << " s";
}

TEST(RunTrafficTest, BankUtilizationTracksOfferedLoad) {
  TrafficConfig cfg;
  cfg.banks = 4;
  cfg.requests = 100000;
  cfg.utilization = 0.6;
  const TrafficReport r = engine::run_traffic(cfg);
  ASSERT_EQ(r.bank_utilization.size(), 4u);
  EXPECT_NEAR(r.avg_bank_utilization, 0.6, 0.06);
  for (const double u : r.bank_utilization) {
    EXPECT_GT(u, 0.4);
    EXPECT_LT(u, 0.8);
  }
}

TEST(RunTrafficTest, ReadPriorityCutsReadLatencyUnderLoad) {
  TrafficConfig cfg;
  cfg.banks = 1;
  cfg.requests = 50000;
  cfg.read_fraction = 0.5;
  cfg.utilization = 0.85;
  cfg.policy = SchedulingPolicy::kFcfs;
  const TrafficReport fcfs = engine::run_traffic(cfg);
  cfg.policy = SchedulingPolicy::kReadPriority;
  const TrafficReport prio = engine::run_traffic(cfg);
  // Same stream, same totals; reads jump the queue.
  EXPECT_EQ(prio.reads, fcfs.reads);
  EXPECT_EQ(prio.writes, fcfs.writes);
  EXPECT_LT(prio.mean_read_latency.value(), fcfs.mean_read_latency.value());
  EXPECT_GE(prio.mean_write_latency.value(),
            fcfs.mean_write_latency.value());
}

TEST(RunTrafficTest, FasterSchemeDeliversMoreBandwidth) {
  TrafficConfig cfg;
  cfg.banks = 2;
  cfg.requests = 40000;
  cfg.workload = WorkloadKind::kClosedLoop;
  cfg.clients = 8;
  cfg.think_time = Second(10e-9);
  cfg.scheme = SensingScheme::kNondestructive;
  const TrafficReport nondes = engine::run_traffic(cfg);
  cfg.scheme = SensingScheme::kDestructive;
  const TrafficReport des = engine::run_traffic(cfg);
  // Closed loop saturates the banks; the faster read path must win on
  // both bandwidth and loaded latency.
  EXPECT_GT(nondes.sustained_bandwidth_mbps, des.sustained_bandwidth_mbps);
  EXPECT_LT(nondes.mean_latency.value(), des.mean_latency.value());
}

TEST(RunTrafficTest, ClosedLoopBoundsOutstandingRequests) {
  TrafficConfig cfg;
  cfg.banks = 2;
  cfg.requests = 20000;
  cfg.workload = WorkloadKind::kClosedLoop;
  cfg.clients = 4;
  const TrafficReport r = engine::run_traffic(cfg);
  EXPECT_EQ(r.requests, cfg.requests);
  // At most `clients` requests exist at once, so no bank queue can ever
  // hold more than clients - 1 waiting requests.
  EXPECT_LT(r.peak_queue_depth, cfg.clients);
  EXPECT_GT(r.makespan.value(), 0.0);
}

/// FNV-1a fold of a double's bit pattern.
std::uint64_t fold(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fold_hist(std::uint64_t h, const obs::Histogram& hist) {
  h = fold(h, static_cast<double>(hist.count()));
  h = fold(h, hist.sum());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    h = fold(h, hist.quantile(q));
  }
  return h;
}

/// Every scalar of a report, per-bank utilization and the quantiles of
/// the three latency histograms.
std::uint64_t report_digest(const TrafficReport& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v :
       {static_cast<double>(r.requests), static_cast<double>(r.reads),
        static_cast<double>(r.writes), r.makespan.value(),
        r.mean_latency.value(), r.p50_latency.value(), r.p90_latency.value(),
        r.p99_latency.value(), r.p999_latency.value(), r.max_latency.value(),
        r.mean_read_latency.value(), r.mean_write_latency.value(),
        r.mean_queue_wait.value(), r.sustained_bandwidth_mbps,
        r.avg_bank_utilization, static_cast<double>(r.peak_queue_depth),
        r.total_energy.value(), r.energy_per_bit_pj, r.read_service.value(),
        r.write_service.value(), r.faults_enabled ? 1.0 : 0.0,
        static_cast<double>(r.faults.faulty_reads),
        static_cast<double>(r.faults.retries),
        static_cast<double>(r.faults.raw_bit_errors),
        static_cast<double>(r.faults.corrected_words),
        static_cast<double>(r.faults.uncorrectable_words),
        static_cast<double>(r.faults.silent_corruptions),
        r.faults.extra_latency.value(), r.faults.extra_energy.value()}) {
    h = fold(h, v);
  }
  for (const double u : r.bank_utilization) h = fold(h, u);
  h = fold_hist(h, r.latency_hist);
  h = fold_hist(h, r.read_latency_hist);
  return fold_hist(h, r.write_latency_hist);
}

// Bit-exact pin of the flat traffic engine across its request sources,
// both policies and the fault hook (as the front ends build it).  A
// change to the event core that reorders a retirement or a
// floating-point sum moves a digest; regenerating one is a reviewed
// change, not a fix.
TEST(RunTrafficTest, FlatTrafficPin) {
  TrafficConfig base;
  base.banks = 8;
  base.requests = 20000;
  base.seed = 17;

  TrafficConfig fcfs = base;
  TrafficConfig prio = base;
  prio.policy = SchedulingPolicy::kReadPriority;
  prio.read_fraction = 0.5;
  prio.utilization = 0.85;
  TrafficConfig closed = base;
  closed.workload = WorkloadKind::kClosedLoop;

  // The Poisson stream run_traffic generates for `base`, through CSV.
  const BankTiming timing =
      engine::scheme_bank_timing(base.scheme, base.cost);
  engine::PoissonWorkloadConfig gen;
  gen.requests = base.requests;
  gen.mean_interarrival =
      (base.read_fraction * timing.read_service +
       (1.0 - base.read_fraction) * timing.write_service) /
      (base.utilization * static_cast<double>(base.banks));
  gen.read_fraction = base.read_fraction;
  gen.banks = base.banks;
  gen.seed = base.seed;
  std::stringstream csv;
  engine::write_trace_csv(csv, engine::generate_poisson_workload(gen));
  TrafficConfig replay = base;
  replay.workload = WorkloadKind::kTrace;
  replay.trace = engine::load_trace_csv(csv);

  const auto model = fault::make_traffic_fault_model(
      base.scheme, base.cost, 2e-3, /*ecc=*/true, /*max_attempts=*/3,
      base.seed);
  TrafficConfig faulty = base;
  faulty.faults = model.get();

  const std::uint64_t direct = report_digest(engine::run_traffic(fcfs));
  EXPECT_EQ(direct, 0x27361fa1c76e147bULL) << std::hex << direct;
  EXPECT_EQ(report_digest(engine::run_traffic(replay)), direct);
  const std::uint64_t read_priority =
      report_digest(engine::run_traffic(prio));
  EXPECT_EQ(read_priority, 0x07d7e21beaa7814dULL)
      << std::hex << read_priority;
  const std::uint64_t closed_loop =
      report_digest(engine::run_traffic(closed));
  EXPECT_EQ(closed_loop, 0xf87722e15a9b15b5ULL) << std::hex << closed_loop;
  const TrafficReport faulted = engine::run_traffic(faulty);
  EXPECT_GT(faulted.faults.retries, 0u);
  const std::uint64_t with_faults = report_digest(faulted);
  EXPECT_EQ(with_faults, 0x42c2ee563178402aULL) << std::hex << with_faults;
}

// ---------------------------------------------------------------------
// Trace workload
// ---------------------------------------------------------------------

TEST(TraceWorkload, CsvRoundTripReplaysExactly) {
  engine::PoissonWorkloadConfig gen;
  gen.requests = 200;
  gen.mean_interarrival = Second(5e-9);
  gen.banks = 3;
  gen.seed = 4;
  const std::vector<Request> original =
      engine::generate_poisson_workload(gen);

  std::stringstream csv;
  engine::write_trace_csv(csv, original);
  const std::vector<Request> loaded = engine::load_trace_csv(csv);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].arrival.value(), original[i].arrival.value());
    EXPECT_EQ(loaded[i].op, original[i].op);
    EXPECT_EQ(loaded[i].bank, original[i].bank);
  }

  TrafficConfig cfg;
  cfg.banks = 3;
  cfg.workload = WorkloadKind::kTrace;
  cfg.trace = loaded;
  const TrafficReport replayed = engine::run_traffic(cfg);
  EXPECT_EQ(replayed.requests, original.size());
}

TEST(TraceWorkload, LoaderSkipsHeaderAndSortsByArrival) {
  std::stringstream csv(
      "arrival_s,op,bank\n"
      "3e-9,write,1\n"
      "1e-9,read,0\n"
      "2e-9,r,2\n");
  const std::vector<Request> loaded = engine::load_trace_csv(csv);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].arrival.value(), 1e-9);
  EXPECT_EQ(loaded[0].op, Op::kRead);
  EXPECT_EQ(loaded[1].bank, 2u);
  EXPECT_EQ(loaded[2].op, Op::kWrite);
  // Ids renumbered in arrival order.
  EXPECT_EQ(loaded[0].id, 0u);
  EXPECT_EQ(loaded[2].id, 2u);
}

TEST(TraceWorkload, LoaderRejectsMalformedRows) {
  {
    std::stringstream csv("1e-9,read\n");
    EXPECT_THROW(engine::load_trace_csv(csv), InvalidArgument);
  }
  {
    std::stringstream csv("1e-9,erase,0\n");
    EXPECT_THROW(engine::load_trace_csv(csv), InvalidArgument);
  }
  {
    std::stringstream csv("-1e-9,read,0\n");
    EXPECT_THROW(engine::load_trace_csv(csv), InvalidArgument);
  }
  {
    std::stringstream csv("1e-9,read,1.5\n");
    EXPECT_THROW(engine::load_trace_csv(csv), InvalidArgument);
  }
  {
    // A non-numeric first column is only a header in row 1.
    std::stringstream csv("1e-9,read,0\nxyz,read,0\n");
    EXPECT_THROW(engine::load_trace_csv(csv), InvalidArgument);
  }
  // Numbers parse strictly: whole field, decimal, finite; a bank must
  // also fit the 32-bit bank index.  A malformed number is an error in
  // the first row too: only a label there is taken as the header.
  const struct {
    const char* name;
    const char* row;
  } kBadNumbers[] = {
      {"inf arrival", "inf,read,1"},
      {"nan arrival", "nan,read,1"},
      {"hex arrival", "0x1p-30,read,1"},
      {"signed arrival", "+1e-9,read,1"},
      {"inf bank", "1e-9,read,inf"},
      {"1e20 bank", "1e-9,read,1e20"},
      {"bank past UINT32_MAX", "1e-9,read,4294967297"},
  };
  for (const auto& bad : kBadNumbers) {
    SCOPED_TRACE(bad.name);
    std::stringstream after_header(std::string("arrival_s,op,bank\n") +
                                   bad.row + "\n");
    EXPECT_THROW(engine::load_trace_csv(after_header), InvalidArgument);
    std::stringstream first_row(std::string(bad.row) + "\n");
    EXPECT_THROW(engine::load_trace_csv(first_row), InvalidArgument);
  }
  // The largest bank index still loads.
  std::stringstream max_bank("1e-9,read,4294967295\n");
  EXPECT_EQ(engine::load_trace_csv(max_bank)[0].bank, UINT32_MAX);
}

/// One small trace from the loader corpus: optional header rows, blank
/// lines, LF/CRLF/mixed line ends, an optional missing final newline,
/// quoted fields (whole-field, mid-field, doubled quotes, commas and
/// newlines inside quotes), extra columns, and every malformed class of
/// LoaderRejectsMalformedRows, all drawn from `rng`.
std::string loader_corpus_trace(Xoshiro256& rng) {
  const auto pick = [&rng](const auto& options) {
    return std::string(options[rng.next_u64() % std::size(options)]);
  };
  const auto chance = [&rng](double p) { return rng.next_double() < p; };
  static const char* const kArrivals[] = {
      "0", "1e-9", "3.5e-8", "2e-9", "1e-9", "12", "0.000001", "7e-10",
      "-0", "5E-9"};
  static const char* const kBadArrivals[] = {
      "inf", "nan", "0x1p-30", "+1e-9", "-1e-9", "xyz", "", "1e-9x",
      " 1e-9", "arrival_s", "1e400"};
  static const char* const kOps[] = {"read", "r", "R", "write", "w", "W"};
  static const char* const kBadOps[] = {"erase", "", "READ", "rd", "read ",
                                        "re\rad"};
  static const char* const kBanks[] = {"0", "1", "3", "2.0", "1e3",
                                       "4294967295", "007", "7", "-0",
                                       "4.0e0"};
  static const char* const kBadBanks[] = {
      "1.5", "inf", "1e20", "4294967296", "4294967297", "-1", "", "0x10",
      " 1", "nan", "+2", "1,5"};
  static const char* const kExtras[] = {
      "x", "", "\"a,b\"", "\"multi\nline\"", "\"say \"\"hi\"\"\"",
      "\"crlf\r\ninside\"", "\"\n\n\""};
  static const char* const kHeaders[] = {
      "arrival_s,op,bank", "\"arrival_s\",op,bank", "time,op,bank,extra",
      "arrival_s,op", "a\"rrival\"_s,op,bank"};
  // Quoting that decodes to `v` or (doubled quote) to a changed value.
  const auto quote = [&](const std::string& v) {
    const std::size_t at = v.empty() ? 0 : rng.next_u64() % (v.size() + 1);
    switch (rng.next_u64() % 4) {
      case 0: return "\"" + v + "\"";
      case 1: return v.substr(0, at) + "\"" + v.substr(at) + "\"";
      case 2: return "\"" + v.substr(0, at) + "\"\"" + v.substr(at) + "\"";
      default: return "\"" + v.substr(0, at) + "\"" + v.substr(at);
    }
  };
  const int line_ends = static_cast<int>(rng.next_u64() % 3);  // LF/CRLF/mix
  const auto eol = [&]() -> std::string {
    if (line_ends == 0) return "\n";
    if (line_ends == 1) return "\r\n";
    return chance(0.5) ? "\n" : "\r\n";
  };
  std::string text;
  // Draws are sequenced statement by statement: the operands of one `+`
  // may be evaluated in either order.
  if (chance(0.3)) {
    text += pick(kHeaders);
    text += eol();
  }
  const std::size_t rows = rng.next_u64() % 8;
  for (std::size_t k = 0; k < rows; ++k) {
    if (chance(0.08)) text += chance(0.5) ? eol() : std::string("\r\n");
    if (chance(0.02)) {
      text += pick(kHeaders);  // a header past row 1
      text += eol();
      continue;
    }
    std::vector<std::string> fields = {
        chance(0.03) ? pick(kBadArrivals) : pick(kArrivals),
        chance(0.03) ? pick(kBadOps) : pick(kOps),
        chance(0.03) ? pick(kBadBanks) : pick(kBanks)};
    for (std::string& f : fields) {
      if (chance(0.1)) f = quote(f);
    }
    if (chance(0.02)) fields.pop_back();
    if (chance(0.1)) fields.push_back(pick(kExtras));
    if (chance(0.05)) fields.push_back(pick(kExtras));
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) text += ',';
      text += fields[i];
    }
    if (k + 1 < rows || chance(0.8)) text += eol();
  }
  if (chance(0.03)) {
    text += "1e-9,\"read,0";  // unterminated quote
    text += eol();
  }
  return text;
}

// Bit-exact pin of the trace loader's accepted set over a seeded corpus:
// each trace folds either every loaded row (arrival bits, op, bank, id)
// or a rejection marker into one digest.  A loader change that accepts,
// rejects or decodes any corpus trace differently moves it.
TEST(TraceWorkload, LoaderPin) {
  Xoshiro256 rng(20101);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t rows = 0;
  for (int t = 0; t < 2000; ++t) {
    std::stringstream csv(loader_corpus_trace(rng));
    std::vector<Request> loaded;
    try {
      loaded = engine::load_trace_csv(csv);
    } catch (const InvalidArgument&) {
      h = fold(h, -1.0);
      ++rejected;
      continue;
    }
    ++accepted;
    rows += loaded.size();
    h = fold(h, static_cast<double>(loaded.size()));
    for (const Request& r : loaded) {
      h = fold(h, r.arrival.value());
      h = fold(h, r.op == Op::kRead ? 0.0 : 1.0);
      h = fold(h, static_cast<double>(r.bank));
      h = fold(h, static_cast<double>(r.id));
    }
  }
  EXPECT_EQ(accepted, 974u);
  EXPECT_EQ(rejected, 1026u);
  EXPECT_EQ(rows, 2428u);
  EXPECT_EQ(h, 0x34b7daacccb314e4ULL) << std::hex << h;
}

// Byte pin of write_trace_csv on a 20 000-row Poisson stream: the FNV-1a
// fold of every written byte, plus its length.
TEST(TraceWorkload, WriterPin) {
  engine::PoissonWorkloadConfig gen;
  gen.requests = 20000;
  gen.mean_interarrival = Second(3e-9);
  gen.banks = 16;
  gen.seed = 99;
  std::stringstream csv;
  engine::write_trace_csv(csv, engine::generate_poisson_workload(gen));
  const std::string text = csv.str();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  EXPECT_EQ(text.size(), 611355u);
  EXPECT_EQ(h, 0xfd954d628d36979fULL) << std::hex << h;
}

TEST(TraceWorkload, LoaderAcceptsEmptyAndHeaderOnlyInput) {
  for (const char* text :
       {"", "\n", "\r\n\n", "arrival_s,op,bank\n", "arrival_s,op,bank",
        "\n\"arrival_s\",op,bank\r\n\r\n"}) {
    SCOPED_TRACE(text);
    std::stringstream csv(text);
    EXPECT_TRUE(engine::load_trace_csv(csv).empty());
  }
}

// The loader reads in 64 KiB chunks: a record that straddles a chunk
// boundary at any byte, or is longer than a whole chunk, loads intact.
TEST(TraceWorkload, LoaderJoinsRecordsAcrossChunks) {
  constexpr std::size_t kChunk = 64 * 1024;
  const std::string records[] = {
      "1.25e-9,write,3\r\n",
      "\"1.25e-9\",w\"rit\"e,\"3\",\"ext\r\nra \"\"q\"\"\"\r\n"};
  for (const std::string& record : records) {
    for (std::size_t back = 0; back <= record.size() + 1; ++back) {
      SCOPED_TRACE(record + " at chunk end - " + std::to_string(back));
      // The padding row ends so that `record` starts `back` bytes before
      // the first chunk boundary.
      const std::string head = "0,read,0,";
      std::string text =
          head + std::string(kChunk - back - head.size() - 1, 'x') + "\n";
      text += record;
      text += "2e-9,read,1";
      std::stringstream csv(text);
      const std::vector<Request> loaded = engine::load_trace_csv(csv);
      ASSERT_EQ(loaded.size(), 3u);
      EXPECT_EQ(loaded[1].arrival.value(), 1.25e-9);
      EXPECT_EQ(loaded[1].op, Op::kWrite);
      EXPECT_EQ(loaded[1].bank, 3u);
      EXPECT_EQ(loaded[2].bank, 1u);
    }
  }
  // Records longer than several chunks, unquoted and quoted.
  const std::string wide(3 * kChunk + 17, 'y');
  std::string multiline = "\"";
  for (int k = 0; k < 5000; ++k) {
    multiline += "line " + std::to_string(k) + "\r\n";
  }
  multiline += "\"";
  std::stringstream csv("1e-9,read,4," + wide + "\n2e-9,write,5," +
                        multiline + "\n3e-9,read,6\n");
  const std::vector<Request> loaded = engine::load_trace_csv(csv);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].bank, 4u);
  EXPECT_EQ(loaded[1].bank, 5u);
  EXPECT_EQ(loaded[2].bank, 6u);
}

TEST(TraceWorkload, LoaderSortsUnsortedTraceStably) {
  std::stringstream csv(
      "2e-9,read,5\n1e-9,write,1\n2e-9,write,6\n1e-9,read,2\n");
  const std::vector<Request> loaded = engine::load_trace_csv(csv);
  ASSERT_EQ(loaded.size(), 4u);
  const std::uint32_t banks[] = {1, 2, 5, 6};
  for (std::size_t k = 0; k < loaded.size(); ++k) {
    EXPECT_EQ(loaded[k].bank, banks[k]);
    EXPECT_EQ(loaded[k].id, k);
  }
  EXPECT_EQ(loaded[0].op, Op::kWrite);
  EXPECT_EQ(loaded[1].op, Op::kRead);
}

std::string trace_load_error(const std::string& text) {
  std::stringstream csv(text);
  try {
    (void)engine::load_trace_csv(csv);
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "(loaded)";
}

TEST(TraceWorkload, LoaderErrorsNameRowAndColumn) {
  // Rows count records (the header included, blank lines not).
  const struct {
    const char* text;
    const char* where;
  } kCases[] = {
      {"arrival_s,op,bank\n1e-9,read,0\nbad,read,0\n", "row 3, column 1"},
      {"1e-9,read,0\n-2e-9,read,0\n", "row 2, column 1"},
      {"1e-9,read,0\r\n2e-9,erase,1\r\n", "row 2, column 2"},
      {"1e-9,read,0\n\n\n2e-9,read,1.5\n", "row 2, column 3"},
      {"1e-9,\"read\",0\n2e-9,\"read\",\"1\"\"\"\n", "row 2, column 3"},
      {"1e-9,read\n", "row 1, column 3"},
      {"1e-9,read,0\n2e-9,\"read,0\n", "row 2, column 2"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.text);
    EXPECT_NE(trace_load_error(c.text).find(c.where), std::string::npos)
        << trace_load_error(c.text);
  }
}

/// Serves `head`, then fails the next read the way a file buffer does
/// on an I/O error: by throwing from underflow().
class FailingStreambuf : public std::streambuf {
 public:
  explicit FailingStreambuf(std::string head) : head_(std::move(head)) {}

 protected:
  int_type underflow() override {
    if (served_) throw std::runtime_error("device read failed");
    served_ = true;
    setg(head_.data(), head_.data(), head_.data() + head_.size());
    return traits_type::to_int_type(head_[0]);
  }

 private:
  std::string head_;
  bool served_ = false;
};

TEST(TraceWorkload, LoaderReportsReadErrors) {
  FailingStreambuf buf("1e-9,read,0\n2e-9,write,1\n");
  std::istream in(&buf);
  try {
    (void)engine::load_trace_csv(in);
    ADD_FAILURE() << "a failed read ended the trace silently";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("read error"), std::string::npos)
        << e.what();
  }
}

TEST(TraceWorkload, GeneratorIsDeterministicAndSorted) {
  engine::PoissonWorkloadConfig gen;
  gen.requests = 1000;
  gen.mean_interarrival = Second(2e-9);
  gen.banks = 4;
  gen.seed = 77;
  const std::vector<Request> a = engine::generate_poisson_workload(gen);
  const std::vector<Request> b = engine::generate_poisson_workload(gen);
  ASSERT_EQ(a.size(), 1000u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival.value(), b[i].arrival.value());
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].bank, b[i].bank);
    if (i > 0) {
      EXPECT_GE(a[i].arrival.value(), a[i - 1].arrival.value());
    }
    EXPECT_LT(a[i].bank, 4u);
  }
}

}  // namespace
}  // namespace sttram
