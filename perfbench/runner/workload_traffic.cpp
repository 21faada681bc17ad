// traffic_mix: chip-scale and flat traffic, cycling per (scheme, read
// fraction) through a controller run (4 ch x 2 ranks x 8 banks, FR-FCFS,
// two threads), a flat bank_sim Poisson run, a flat closed-loop run and
// a replay of a CSV trace (parse the file, then simulate).  Three
// schemes x read fractions 0.7 / 0.3, so writes sit beside reads and
// destructive reads carry their write pulses.  No Monte-Carlo or spice
// code runs; this is the workload a controller / bank_sim merge must
// not slow.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/controller/controller.hpp"
#include "sttram/engine/workload.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

namespace eng = sttram::engine;
namespace ctl = sttram::engine::controller;

constexpr std::size_t kControllerRequests = 500000;
constexpr std::size_t kFlatRequests = 100000;
constexpr std::size_t kFlatBanks = 8;
constexpr std::array<eng::SensingScheme, 3> kSchemes = {
    eng::SensingScheme::kConventional, eng::SensingScheme::kDestructive,
    eng::SensingScheme::kNondestructive};
constexpr std::array<double, 2> kReadFractions = {0.7, 0.3};
constexpr std::size_t kCombos = kSchemes.size() * kReadFractions.size();

enum Kind : std::size_t { kController, kPoisson, kClosed, kReplay, kKinds };

Kind kind_of(std::size_t index) { return static_cast<Kind>(index % kKinds); }
std::size_t combo_of(std::size_t index) { return index / kKinds % kCombos; }

eng::TrafficConfig flat_config(std::uint64_t seed, std::size_t combo,
                               Kind kind) {
  eng::TrafficConfig cfg;
  cfg.scheme = kSchemes[combo / kReadFractions.size()];
  cfg.read_fraction = kReadFractions[combo % kReadFractions.size()];
  cfg.banks = kFlatBanks;
  cfg.requests = kFlatRequests;
  // Read-heavy mixes run FCFS, write-heavy ones read-priority, so both
  // bank_sim policies stay on the measured path.
  cfg.policy = cfg.read_fraction > 0.5 ? eng::SchedulingPolicy::kFcfs
                                       : eng::SchedulingPolicy::kReadPriority;
  cfg.workload = kind == kClosed ? eng::WorkloadKind::kClosedLoop
                                 : eng::WorkloadKind::kPoisson;
  cfg.seed = derive_seed(seed, 100 * (kind == kClosed ? 2 : 1) + combo);
  return cfg;
}

ctl::ControllerConfig controller_config(std::uint64_t seed,
                                        std::size_t combo) {
  ctl::ControllerConfig cfg;  // 4 channels x 2 ranks x 8 banks, FR-FCFS
  cfg.scheme = kSchemes[combo / kReadFractions.size()];
  cfg.read_fraction = kReadFractions[combo % kReadFractions.size()];
  cfg.requests = kControllerRequests;
  cfg.seed = derive_seed(seed, 300 + combo);
  return cfg;
}

// The exact request stream run_traffic generates for a Poisson config
// (same interarrival derivation as engine/bank_sim.cpp).
std::vector<eng::Request> poisson_stream(const eng::TrafficConfig& cfg) {
  const eng::BankTiming timing = eng::scheme_bank_timing(cfg.scheme, cfg.cost);
  eng::PoissonWorkloadConfig p;
  p.requests = cfg.requests;
  p.mean_interarrival =
      (cfg.read_fraction * timing.read_service +
       (1.0 - cfg.read_fraction) * timing.write_service) /
      (cfg.utilization * static_cast<double>(cfg.banks));
  p.read_fraction = cfg.read_fraction;
  p.banks = cfg.banks;
  p.seed = cfg.seed;
  return eng::generate_poisson_workload(p);
}

std::uint64_t digest(const eng::TrafficReport& r) {
  std::uint64_t h = fold(0, static_cast<double>(r.requests));
  h = fold(h, static_cast<double>(r.reads));
  h = fold(h, r.makespan.value());
  h = fold(h, r.mean_latency.value());
  h = fold(h, r.p99_latency.value());
  h = fold(h, r.max_latency.value());
  h = fold(h, static_cast<double>(r.peak_queue_depth));
  return fold(h, r.total_energy.value());
}

std::uint64_t digest(const ctl::ControllerReport& r) {
  std::uint64_t h = fold(0, static_cast<double>(r.requests));
  h = fold(h, static_cast<double>(r.reads));
  h = fold(h, static_cast<double>(r.row_hits));
  h = fold(h, static_cast<double>(r.coalesced_reads));
  h = fold(h, static_cast<double>(r.starvation_promotions));
  h = fold(h, r.makespan.value());
  h = fold(h, r.mean_latency.value());
  h = fold(h, r.p99_latency.value());
  return fold(h, r.total_energy.value());
}

class TrafficWorkload final : public Workload {
 public:
  explicit TrafficWorkload(const Options& opt) : opt_(opt) {}
  ~TrafficWorkload() override {
    for (const std::string& path : trace_paths_) std::remove(path.c_str());
  }
  TrafficWorkload(const TrafficWorkload&) = delete;
  TrafficWorkload& operator=(const TrafficWorkload&) = delete;

  [[nodiscard]] std::size_t threads() const override { return 2; }
  [[nodiscard]] std::size_t cycle() const override {
    return kKinds * kCombos;
  }
  [[nodiscard]] const char* rate_name(std::size_t index) const override {
    switch (kind_of(index)) {
      case kController: return "controller_requests_per_s";
      case kReplay: return "trace_replay_requests_per_s";
      default: return "flat_requests_per_s";
    }
  }

  void setup(sttram::ParallelExecutor& executor) override {
    trace_paths_.clear();
    trace_bytes_.clear();
    for (std::size_t combo = 0; combo < kCombos; ++combo) {
      const std::string path =
          opt_.work_dir + "/trace_" + std::to_string(combo) + ".csv";
      {
        std::ofstream out(path);
        eng::write_trace_csv(out,
                             poisson_stream(flat_config(opt_.seed, combo,
                                                        kPoisson)));
      }
      trace_paths_.push_back(path);
      std::ifstream in(path, std::ios::binary | std::ios::ate);
      trace_bytes_.push_back(static_cast<double>(in.tellg()));
    }
    ctl::ControllerConfig warm = controller_config(opt_.seed, 0);
    warm.requests = 10000;
    (void)ctl::run_controller_traffic(warm, &executor);
    eng::TrafficConfig flat = flat_config(opt_.seed, 0, kPoisson);
    flat.requests = 10000;
    (void)eng::run_traffic(flat);
  }

  OpOutcome run_op(const OpContext& ctx) override {
    const Kind kind = kind_of(ctx.index);
    const std::size_t combo = combo_of(ctx.index);
    const bool first_cycle = ctx.index < cycle();
    OpOutcome out;
    const auto expect = [&](std::size_t requests, std::size_t reads,
                            std::size_t writes, std::size_t configured) {
      const auto want = static_cast<std::size_t>(
          static_cast<double>(configured) * opt_.reference_scale + 0.5);
      if (requests != want || reads + writes != requests) {
        out.ok = false;
        out.error = "request accounting: " + std::to_string(reads) + " + " +
                    std::to_string(writes) + " vs " + std::to_string(want);
      }
    };
    if (kind == kController) {
      const ctl::ControllerConfig cfg = controller_config(opt_.seed, combo);
      const auto run = [&] {
        return ctl::run_controller_traffic(cfg, ctx.executor);
      };
      const ctl::ControllerReport r =
          ctx.tracer != nullptr
              ? ctx.tracer->span("engine.run_controller_traffic",
                                 "engine.controller", run)
              : run();
      expect(r.requests, r.reads, r.writes, cfg.requests);
      out.items = static_cast<double>(r.requests);
      out.digest = digest(r);
      if (first_cycle) {
        model_.row_hit_rate[combo] = r.row_hit_rate;
        model_.coalesced[combo] = static_cast<double>(r.coalesced_reads);
        model_.controller_reads[combo] = static_cast<double>(r.reads);
        model_.promotions[combo] =
            static_cast<double>(r.starvation_promotions);
        model_.controller_peak[combo] =
            static_cast<double>(r.peak_queue_depth);
      }
      return out;
    }

    eng::TrafficConfig cfg = flat_config(opt_.seed, combo, kind);
    const char* metric = "engine.bank_sim";
    if (kind == kReplay) {
      const auto parse = [&] {
        std::ifstream in(trace_paths_[combo]);
        return eng::load_trace_csv(in);
      };
      cfg.trace = ctx.tracer != nullptr
                      ? ctx.tracer->span("engine.load_trace_csv",
                                         "engine.trace_parse", parse)
                      : parse();
      cfg.workload = eng::WorkloadKind::kTrace;
      metric = "engine.trace_sim";
    }
    const auto run = [&] { return eng::run_traffic(cfg); };
    const eng::TrafficReport r =
        ctx.tracer != nullptr
            ? ctx.tracer->span("engine.run_traffic", metric, run)
            : run();
    expect(r.requests, r.reads, r.writes, kFlatRequests);
    out.items = static_cast<double>(r.requests);
    out.digest = digest(r);
    if (kind == kPoisson) {
      poisson_digest_[combo] = out.digest;
      if (first_cycle) {
        model_.p99_read[combo] = r.read_latency_hist.quantile(0.99);
        model_.flat_peak[combo] = static_cast<double>(r.peak_queue_depth);
      }
    }
    if (kind == kReplay && out.digest != poisson_digest_[combo]) {
      out.ok = false;
      out.error += " trace replay report differs from the direct run";
    }
    return out;
  }

  void verify(CheckLog& log, sttram::ParallelExecutor& one,
              sttram::ParallelExecutor& many) override {
    ctl::ControllerConfig cfg = controller_config(opt_.seed, 1);
    cfg.requests = 50000;
    log.record(digest(ctl::run_controller_traffic(cfg, &one)) ==
                   digest(ctl::run_controller_traffic(cfg, &many)),
               "controller: 1 thread == N threads");
  }

  [[nodiscard]] std::string obs_metric(std::size_t index,
                                       const std::string& name,
                                       const std::string& cat) const override {
    if (cat != "profile") return "";
    const Kind kind = kind_of(index);
    if (kind == kController && name == "controller.simulate") {
      return "engine.controller_simulate";
    }
    if (kind == kController && name == "controller.reduce") {
      return "engine.controller_reduce";
    }
    if (kind == kPoisson && name == "traffic.workload") {
      return "engine.poisson_gen";
    }
    return "";
  }

  void layer_metrics(const TraceRun& run, Metrics& out) override {
    const double ops = static_cast<double>(run.ops);
    const auto total = [&](const char* key) {
      const auto it = run.self_seconds.find(key);
      return it == run.self_seconds.end() ? 0.0 : it->second;
    };
    std::array<double, kKinds> count{};
    double parsed_bytes = 0.0;
    for (std::size_t i = 0; i < run.ops; ++i) {
      count[kind_of(i)] += 1.0;
      if (kind_of(i) == kReplay) parsed_bytes += trace_bytes_[combo_of(i)];
    }
    const double controller_s = total("engine.controller") +
                                total("engine.controller_simulate") +
                                total("engine.controller_reduce");
    out["engine.controller_s"] = controller_s / ops;
    out["engine.controller_ns_per_request"] =
        controller_s /
        (count[kController] * static_cast<double>(kControllerRequests)) * 1e9;
    out["engine.controller_simulate_s"] =
        total("engine.controller_simulate") / ops;
    out["engine.controller_reduce_s"] = total("engine.controller_reduce") / ops;
    out["common.controller_parallel_eff"] = parallel_efficiency(
        run, [](std::size_t i) { return kind_of(i) == kController; });
    out["engine.poisson_gen_s"] = total("engine.poisson_gen") / ops;
    out["engine.bank_sim_s"] = total("engine.bank_sim") / ops;
    out["engine.bank_sim_ns_per_request"] =
        total("engine.bank_sim") /
        ((count[kPoisson] + count[kClosed]) *
         static_cast<double>(kFlatRequests)) *
        1e9;
    out["engine.trace_parse_s"] = total("engine.trace_parse") / ops;
    out["engine.trace_parse_mb_per_s"] =
        parsed_bytes / total("engine.trace_parse") * 1e-6;
    out["engine.trace_sim_s"] = total("engine.trace_sim") / ops;

    double hit_rate = 0.0;
    double coalesced = 0.0;
    double reads = 0.0;
    double promotions = 0.0;
    double peak = 0.0;
    double p99 = 0.0;
    for (std::size_t c = 0; c < kCombos; ++c) {
      hit_rate += model_.row_hit_rate[c];
      coalesced += model_.coalesced[c];
      reads += model_.controller_reads[c];
      promotions += model_.promotions[c];
      peak = std::max({peak, model_.controller_peak[c], model_.flat_peak[c]});
      p99 += model_.p99_read[c];
    }
    const double combos = static_cast<double>(kCombos);
    out["engine.row_hit_rate"] = hit_rate / combos;
    out["engine.coalesced_read_ratio"] = coalesced / reads;
    out["engine.starvation_promotions"] = promotions / combos;
    out["engine.peak_queue_depth"] = peak;
    out["engine.sim_p99_read_ns"] = p99 / combos * 1e9;
  }

 private:
  /// Simulated-model figures of the first cycle (timing-independent).
  struct Model {
    std::array<double, kCombos> row_hit_rate{};
    std::array<double, kCombos> coalesced{};
    std::array<double, kCombos> controller_reads{};
    std::array<double, kCombos> promotions{};
    std::array<double, kCombos> controller_peak{};
    std::array<double, kCombos> flat_peak{};
    std::array<double, kCombos> p99_read{};
  };

  Options opt_;
  std::vector<std::string> trace_paths_;
  std::vector<double> trace_bytes_;
  std::array<std::uint64_t, kCombos> poisson_digest_{};
  Model model_;
};

}  // namespace

std::unique_ptr<Workload> make_traffic_workload(const Options& opt) {
  return std::make_unique<TrafficWorkload>(opt);
}

}  // namespace perfbench
