// Tests of the traffic engine: chunked executor determinism, the
// deterministic thread pool, the discrete-event bank simulator, and the
// cross-validation against the analytic M/D/1 model in sim/throughput.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/common/parallel.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/request.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/engine/workload.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/throughput.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/stats/importance.hpp"
#include "sttram/stats/monte_carlo.hpp"

namespace sttram {
namespace {

using engine::BankController;
using engine::BankTiming;
using engine::CompletedRequest;
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
// RequestQueue scheduling
// ---------------------------------------------------------------------

Request make_request(std::uint64_t id, double arrival, Op op,
                     std::uint32_t bank = 0) {
  Request r;
  r.id = id;
  r.arrival = Second(arrival);
  r.op = op;
  r.bank = bank;
  return r;
}

TEST(RequestQueueTest, FcfsPopsInArrivalOrder) {
  engine::RequestQueue q(SchedulingPolicy::kFcfs);
  q.push(make_request(0, 1e-9, Op::kWrite));
  q.push(make_request(1, 2e-9, Op::kRead));
  q.push(make_request(2, 3e-9, Op::kWrite));
  EXPECT_EQ(q.pop().id, 0u);
  EXPECT_EQ(q.pop().id, 1u);
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(RequestQueueTest, ReadPriorityDrainsOldestReadFirst) {
  engine::RequestQueue q(SchedulingPolicy::kReadPriority);
  q.push(make_request(0, 1e-9, Op::kWrite));
  q.push(make_request(1, 2e-9, Op::kRead));
  q.push(make_request(2, 3e-9, Op::kRead));
  q.push(make_request(3, 4e-9, Op::kWrite));
  EXPECT_EQ(q.pop().id, 1u);  // oldest read
  EXPECT_EQ(q.pop().id, 2u);  // next read
  EXPECT_EQ(q.pop().id, 0u);  // then writes in order
  EXPECT_EQ(q.pop().id, 3u);
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
// BankController event mechanics
// ---------------------------------------------------------------------

BankTiming simple_timing() {
  BankTiming t;
  t.read_service = Second(1e-9);
  t.write_service = Second(2e-9);
  t.read_energy = Joule(1e-12);
  t.write_energy = Joule(2e-12);
  return t;
}

TEST(BankControllerTest, ServicesBackToBackOnOneBank) {
  BankController ctrl(1, SchedulingPolicy::kFcfs, simple_timing());
  ctrl.submit(make_request(0, 0.0, Op::kRead));
  ctrl.submit(make_request(1, 0.1e-9, Op::kRead));
  ASSERT_FALSE(ctrl.idle());
  const CompletedRequest first = ctrl.step();
  EXPECT_EQ(first.request.id, 0u);
  EXPECT_DOUBLE_EQ(first.finish.value(), 1e-9);
  const CompletedRequest second = ctrl.step();
  EXPECT_EQ(second.request.id, 1u);
  // Queued behind the first: starts at its completion, not at arrival.
  EXPECT_DOUBLE_EQ(second.start.value(), 1e-9);
  EXPECT_DOUBLE_EQ(second.finish.value(), 2e-9);
  EXPECT_TRUE(ctrl.idle());
}

TEST(BankControllerTest, CompletionTiesBreakByRequestId) {
  BankController ctrl(2, SchedulingPolicy::kFcfs, simple_timing());
  // Same arrival, same service, different banks: finishes tie exactly.
  ctrl.submit(make_request(7, 0.0, Op::kRead, 1));
  ctrl.submit(make_request(3, 0.0, Op::kRead, 0));
  EXPECT_EQ(ctrl.step().request.id, 3u);
  EXPECT_EQ(ctrl.step().request.id, 7u);
}

TEST(BankControllerTest, TracksBusyTimeAndServed) {
  BankController ctrl(2, SchedulingPolicy::kFcfs, simple_timing());
  ctrl.submit(make_request(0, 0.0, Op::kRead, 0));
  ctrl.submit(make_request(1, 0.0, Op::kWrite, 1));
  ctrl.step();
  ctrl.step();
  EXPECT_DOUBLE_EQ(ctrl.busy_time(0).value(), 1e-9);
  EXPECT_DOUBLE_EQ(ctrl.busy_time(1).value(), 2e-9);
  EXPECT_EQ(ctrl.served(0), 1u);
  EXPECT_EQ(ctrl.served(1), 1u);
  EXPECT_EQ(ctrl.pending(), 0u);
}

TEST(BankControllerTest, RejectsOutOfRangeBank) {
  BankController ctrl(2, SchedulingPolicy::kFcfs, simple_timing());
  EXPECT_THROW(ctrl.submit(make_request(0, 0.0, Op::kRead, 2)),
               InvalidArgument);
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

TEST(RunTrafficTest, KeepCompletionsRecordsFullSchedule) {
  TrafficConfig cfg;
  cfg.requests = 500;
  cfg.keep_completions = true;
  const TrafficReport r = engine::run_traffic(cfg);
  ASSERT_EQ(r.completions.size(), 500u);
  for (const CompletedRequest& done : r.completions) {
    EXPECT_GE(done.start.value(), done.request.arrival.value());
    EXPECT_GT(done.finish.value(), done.start.value());
  }
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
