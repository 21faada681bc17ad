#include "sttram/engine/bank_sim.hpp"

#include <algorithm>
#include <chrono>

#include "sttram/common/error.hpp"
#include "sttram/engine/controller/channel.hpp"
#include "sttram/engine/workload.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"
#include "sttram/obs/trace.hpp"
#include "sttram/sim/throughput.hpp"
#include "sttram/stats/rng.hpp"
#include "sttram/stats/summary.hpp"

namespace sttram::engine {

const char* to_string(SensingScheme scheme) {
  switch (scheme) {
    case SensingScheme::kConventional:
      return "conventional";
    case SensingScheme::kDestructive:
      return "destructive self-ref";
    case SensingScheme::kNondestructive:
      return "nondestructive self-ref";
  }
  return "?";
}

bool parse_scheme(const std::string& name, SensingScheme& scheme) {
  if (name == "conventional") {
    scheme = SensingScheme::kConventional;
    return true;
  }
  if (name == "destructive") {
    scheme = SensingScheme::kDestructive;
    return true;
  }
  if (name == "nondestructive") {
    scheme = SensingScheme::kNondestructive;
    return true;
  }
  return false;
}

BankTiming scheme_bank_timing(SensingScheme scheme,
                              const CostComparisonConfig& cost) {
  const auto costs = compare_scheme_costs(cost);
  // compare_scheme_costs rows: conventional, destructive, nondestructive.
  const std::size_t row = scheme == SensingScheme::kConventional ? 0
                          : scheme == SensingScheme::kDestructive ? 1
                                                                  : 2;
  require(row < costs.size(), "scheme_bank_timing: missing scheme row");
  BankTiming t;
  t.read_service = costs[row].worst_latency();
  t.read_energy = costs[row].worst_energy();
  t.write_service = write_service_time(cost.timing);
  t.write_energy = write_access_energy(cost);
  return t;
}

namespace {

double sample_exponential(Xoshiro256& rng, double mean) {
  return -mean * std::log1p(-rng.next_double());
}

/// The flat configuration of the event core: every access a row hit
/// after its bank's first (all requests sit on row 0) and ACT/PRE free,
/// so occupancy() is exactly the scheme's read or write service.
controller::ChannelConfig flat_channel(const TrafficConfig& config,
                                       const BankTiming& timing) {
  controller::ChannelConfig cc;
  cc.banks = config.banks;
  cc.timing.t_read = timing.read_service;
  cc.timing.t_write = timing.write_service;
  cc.timing.e_read = timing.read_energy;
  cc.timing.e_write = timing.write_energy;
  cc.scheduler = config.policy;
  cc.coalescing = false;
  cc.faults = config.faults;
  return cc;
}

controller::MemRequest flat_request(const Request& r) {
  controller::MemRequest m;
  m.id = r.id;
  m.arrival = r.arrival.value();
  m.op = r.op;
  m.bank = r.bank;
  return m;
}

/// What the report needs beyond ChannelStats: Welford means and the
/// per-op latency histograms, in retirement order.
struct RunAccumulator {
  obs::Histogram read_latency_hist;
  obs::Histogram write_latency_hist;
  RunningStats latency;
  RunningStats read_latency;
  RunningStats write_latency;
  RunningStats queue_wait;

  void record(const controller::MemRequest& r, double start, double finish) {
    const double l = finish - r.arrival;
    latency.add(l);
    queue_wait.add(start - r.arrival);
    if (r.op == Op::kRead) {
      read_latency.add(l);
      read_latency_hist.record(l);
    } else {
      write_latency.add(l);
      write_latency_hist.record(l);
    }
  }
};

/// Fixed client population: every client issues, blocks until its
/// request completes, thinks (exponential), then issues again.
void simulate_closed_loop(const TrafficConfig& config,
                          controller::ChannelSim& sim, RunAccumulator& acc) {
  require(config.clients > 0, "run_traffic: closed loop needs clients > 0");
  const Xoshiro256 master(config.seed);
  struct Client {
    Xoshiro256 rng;
    double next_issue = 0.0;
    bool blocked = false;
  };
  std::vector<Client> clients;
  clients.reserve(config.clients);
  for (std::size_t c = 0; c < config.clients; ++c) {
    Client client{master.fork(c), 0.0, false};
    client.next_issue =
        sample_exponential(client.rng, config.think_time.value());
    clients.push_back(std::move(client));
  }
  std::vector<std::uint32_t> client_of(config.requests, 0);
  const auto retire = [&](const controller::MemRequest& r, double start,
                          double finish) {
    acc.record(r, start, finish);
    Client& owner = clients[client_of[r.id]];
    owner.blocked = false;
    owner.next_issue =
        finish + sample_exponential(owner.rng, config.think_time.value());
  };

  std::size_t issued = 0;
  std::size_t completed = 0;
  while (completed < config.requests) {
    // The next issue: earliest ready client (ties to the lowest index).
    std::size_t ready = clients.size();
    if (issued < config.requests) {
      for (std::size_t c = 0; c < clients.size(); ++c) {
        if (clients[c].blocked) continue;
        if (ready == clients.size() ||
            clients[c].next_issue < clients[ready].next_issue) {
          ready = c;
        }
      }
    }
    const bool can_issue = ready < clients.size();
    if (!sim.idle() &&
        (!can_issue || sim.next_completion_time() <=
                           clients[ready].next_issue)) {
      completed += sim.step(retire);
    } else {
      require(can_issue, "run_traffic: closed loop stalled");
      Client& client = clients[ready];
      controller::MemRequest r;
      r.id = issued;
      r.arrival = client.next_issue;
      r.op = client.rng.next_double() < config.read_fraction ? Op::kRead
                                                             : Op::kWrite;
      r.bank =
          static_cast<std::uint32_t>(client.rng.next_u64() % config.banks);
      client_of[issued] = static_cast<std::uint32_t>(ready);
      client.blocked = true;
      sim.submit(r);
      ++issued;
    }
  }
}

}  // namespace

TrafficReport run_traffic(const TrafficConfig& config) {
  obs::TraceSpan span("run_traffic", "engine");
  require(config.requests > 0, "run_traffic: need at least one request");
  require(config.banks > 0, "run_traffic: need at least one bank");
  require(config.word_bits > 0, "run_traffic: word_bits must be > 0");
  require(config.read_fraction >= 0.0 && config.read_fraction <= 1.0,
          "run_traffic: read_fraction must be in [0, 1]");

  BankTiming timing;
  std::vector<Request> requests;
  const std::vector<Request>* workload = &requests;
  {
    obs::TraceSpan phase("traffic.workload", "engine");
    STTRAM_PROFILE_SCOPE("traffic.workload");
    timing = scheme_bank_timing(config.scheme, config.cost);
    if (config.workload == WorkloadKind::kPoisson) {
      require(config.utilization > 0.0 && config.utilization < 1.0,
              "run_traffic: utilization must be in (0, 1)");
      const Second avg_service =
          config.read_fraction * timing.read_service +
          (1.0 - config.read_fraction) * timing.write_service;
      PoissonWorkloadConfig poisson;
      poisson.requests = config.requests;
      // Per-bank offered load rho: the aggregate arrival rate is
      // banks * rho / avg_service (banks are picked uniformly).
      poisson.mean_interarrival =
          avg_service / (config.utilization *
                         static_cast<double>(config.banks));
      poisson.read_fraction = config.read_fraction;
      poisson.banks = config.banks;
      poisson.seed = config.seed;
      requests = generate_poisson_workload(poisson);
    } else if (config.workload == WorkloadKind::kTrace) {
      require(!config.trace.empty(), "run_traffic: trace workload is empty");
      // A trace already in arrival order (load_trace_csv's output) is
      // replayed in place.
      if (std::is_sorted(config.trace.begin(), config.trace.end(),
                         arrives_before)) {
        workload = &config.trace;
      } else {
        requests = config.trace;
        std::stable_sort(requests.begin(), requests.end(), arrives_before);
      }
      for (const Request& r : *workload) {
        require(r.bank < config.banks,
                "run_traffic: trace bank index out of range");
      }
    }
  }

  controller::ChannelSim sim(flat_channel(config, timing));
  RunAccumulator acc;

  const bool metered = obs::metrics_enabled();
  const auto t_begin = std::chrono::steady_clock::now();
  {
    obs::TraceSpan phase("traffic.simulate", "engine");
    STTRAM_PROFILE_SCOPE("traffic.simulate");
    if (config.workload == WorkloadKind::kClosedLoop) {
      simulate_closed_loop(config, sim, acc);
    } else {
      controller::run_open_loop(
          sim, workload->size(),
          [&](std::size_t i) { return flat_request((*workload)[i]); },
          [&](const controller::MemRequest& r, double start, double finish) {
            acc.record(r, start, finish);
          });
    }
  }
  if (metered) {
    obs::Registry::instance().timer("engine.sim_seconds")
        .record(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t_begin)
                    .count());
  }

  obs::TraceSpan reduce_phase("traffic.reduce", "engine");
  STTRAM_PROFILE_SCOPE("traffic.reduce");
  const controller::ChannelStats& stats = sim.stats();
  TrafficReport report;
  report.scheme = to_string(config.scheme);
  report.requests = stats.requests();
  report.reads = stats.reads;
  report.writes = stats.writes;
  report.makespan = Second(stats.makespan);
  report.mean_latency = Second(acc.latency.mean());
  report.max_latency = Second(stats.max_latency);
  report.p50_latency = Second(stats.latency_hist.quantile(0.50));
  report.p90_latency = Second(stats.latency_hist.quantile(0.90));
  report.p99_latency = Second(stats.latency_hist.quantile(0.99));
  report.p999_latency = Second(stats.latency_hist.quantile(0.999));
  report.mean_read_latency =
      Second(stats.reads > 0 ? acc.read_latency.mean() : 0.0);
  report.mean_write_latency =
      Second(stats.writes > 0 ? acc.write_latency.mean() : 0.0);
  report.mean_queue_wait = Second(acc.queue_wait.mean());
  const double bits = static_cast<double>(report.requests) *
                      static_cast<double>(config.word_bits);
  if (report.makespan.value() > 0.0) {
    report.sustained_bandwidth_mbps =
        bits / report.makespan.value() / 1e6;
  }
  report.bank_utilization.reserve(config.banks);
  double utilization_sum = 0.0;
  for (std::size_t b = 0; b < config.banks; ++b) {
    const double u = report.makespan.value() > 0.0
                         ? sim.busy_time(b) / stats.makespan
                         : 0.0;
    report.bank_utilization.push_back(u);
    utilization_sum += u;
  }
  report.avg_bank_utilization =
      utilization_sum / static_cast<double>(config.banks);
  report.peak_queue_depth = stats.peak_queue_depth;
  // Not stats.energy_j, a per-access running sum that rounds
  // differently: the report's energy is the per-op product sum, with
  // the fault hook's extra energy added once at the end.
  report.total_energy =
      static_cast<double>(stats.reads) * timing.read_energy +
      static_cast<double>(stats.writes) * timing.write_energy;
  if (config.faults != nullptr) {
    report.faults_enabled = true;
    report.faults = stats.faults;
    report.total_energy += report.faults.extra_energy;
  }
  report.energy_per_bit_pj = report.total_energy.value() * 1e12 / bits;
  report.read_service = timing.read_service;
  report.write_service = timing.write_service;
  report.latency_hist = stats.latency_hist;
  report.read_latency_hist = std::move(acc.read_latency_hist);
  report.write_latency_hist = std::move(acc.write_latency_hist);

  if (metered) {
    obs::Registry& reg = obs::Registry::instance();
    reg.histogram("engine.latency_seconds").merge(report.latency_hist);
    reg.histogram("engine.read_latency_seconds")
        .merge(report.read_latency_hist);
    reg.histogram("engine.write_latency_seconds")
        .merge(report.write_latency_hist);
  }
  STTRAM_OBS_ADD("engine.requests", report.requests);
  STTRAM_OBS_ADD("engine.reads", report.reads);
  STTRAM_OBS_ADD("engine.writes", report.writes);
  STTRAM_OBS_SET_GAUGE("engine.queue_depth", report.peak_queue_depth);
  STTRAM_OBS_SET_GAUGE("engine.bank_utilization",
                       report.avg_bank_utilization);
  if (report.faults_enabled) {
    STTRAM_OBS_ADD("fault.retries", report.faults.retries);
    STTRAM_OBS_ADD("fault.raw_bit_errors", report.faults.raw_bit_errors);
    STTRAM_OBS_ADD("fault.ecc_corrected", report.faults.corrected_words);
    STTRAM_OBS_ADD("fault.ecc_uncorrectable",
                   report.faults.uncorrectable_words);
    STTRAM_OBS_ADD("fault.silent_corruptions",
                   report.faults.silent_corruptions);
  }
  return report;
}

}  // namespace sttram::engine
