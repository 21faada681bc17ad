// Benchmark runner: runs one workload against the library's public API,
// one op at a time from a single process, checks every op's output, and
// prints the result object as its last stdout line.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --expect-build-type <type>
//                    --work-dir <dir> [--source-id <id>]
//                    [--reference-scale <x>] [--spans <file>]
//
// --trace 0 measures the end-to-end metrics with all telemetry off.
// --trace 1 measures the same ops three times — at the workload's
// thread count, at one thread, and at one thread traced — and reports
// the per-layer metrics (see perfbench/README.md).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "bench.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/io/json.hpp"
#include "tracer.hpp"

namespace perfbench {

void CheckLog::record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fold(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool poisson_plausible(double mean, std::uint64_t k, double alpha) {
  // P(X <= k) and P(X >= k) by summing the pmf in log space.
  double below = 0.0;
  double at_k = 0.0;
  for (std::uint64_t i = 0; i <= k; ++i) {
    const double p = std::exp(static_cast<double>(i) * std::log(mean) - mean -
                              std::lgamma(static_cast<double>(i) + 1.0));
    below += p;
    if (i == k) at_k = p;
  }
  const double above = 1.0 - below + at_k;
  return below >= alpha && above >= alpha;
}

double parallel_efficiency(const TraceRun& run,
                           const std::function<bool(std::size_t)>& pick) {
  double one = 0.0;
  double many = 0.0;
  for (std::size_t i = 0; i < run.ops; ++i) {
    if (!pick(i)) continue;
    one += run.wall_one_thread[i];
    many += run.wall_workload_threads[i];
  }
  return one / (static_cast<double>(run.threads) * many);
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py and selftest.py check it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"items_per_ref_s", "1/s"}};

constexpr MetricSpec kPerLayer[] = {
    {"traced_op_s", "s"},
    {"unattributed_frac", "frac"},
    {"obs.trace_overhead_frac", "frac"},
    {"device.sample_s", "s"},
    {"device.sample_ns_per_cell", "ns"},
    {"sense.yield_solve_s", "s"},
    {"sense.yield_solve_ns_per_cell", "ns"},
    {"sim.yield_other_s", "s"},
    {"common.yield_parallel_eff", "frac"},
    {"device.opcache_hit_ratio", "frac"},
    {"device.opcache_lookups", "count"},
    {"sim.yield_margin_evals", "count"},
    {"stats.design_point_s", "s"},
    {"stats.gauss_fill_s", "s"},
    {"stats.gauss_fill_ns_per_trial", "ns"},
    {"sense.tail_kernel_s", "s"},
    {"sense.tail_kernel_ns_per_trial", "ns"},
    {"stats.is_other_s", "s"},
    {"common.tail_parallel_eff", "frac"},
    {"stats.is_hit_ratio", "frac"},
    {"stats.is_trials", "count"},
    {"stats.is_relative_error", "frac"},
    {"engine.controller_s", "s"},
    {"engine.controller_ns_per_request", "ns"},
    {"engine.controller_simulate_s", "s"},
    {"engine.controller_reduce_s", "s"},
    {"common.controller_parallel_eff", "frac"},
    {"engine.poisson_gen_s", "s"},
    {"engine.bank_sim_s", "s"},
    {"engine.bank_sim_ns_per_request", "ns"},
    {"engine.trace_parse_s", "s"},
    {"engine.trace_parse_mb_per_s", "MB/s"},
    {"engine.trace_sim_s", "s"},
    {"engine.row_hit_rate", "frac"},
    {"engine.coalesced_read_ratio", "frac"},
    {"engine.starvation_promotions", "count"},
    {"engine.peak_queue_depth", "count"},
    {"engine.sim_p99_read_ns", "ns"},
    {"spice.build_s", "s"},
    {"spice.dc_s", "s"},
    {"spice.transient_s", "s"},
    {"sim.destructive_read_s", "s"},
    {"sim.nondestructive_read_s", "s"},
    {"spice.newton_iters_per_read", "count"},
    {"spice.lu_factorizations_per_read", "count"},
    {"spice.step_accept_ratio", "frac"},
};

// Setup runs this many times per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
// About host_probe_seconds() on the 4-core development host at its
// fastest; timed end-to-end metrics are scaled to this host speed.
constexpr double kReferenceProbeSeconds = 0.0045;
// Minimum time between two host probes (taken at cycle boundaries).
constexpr double kProbeInterval = 0.25;
// A traced run spends this share of --seconds on its first (untraced,
// workload-threads) pass; the one-thread and traced passes replay the
// same ops.
constexpr double kTracedFirstPassShare = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string expect_build_type;
  std::string work_dir;
  std::string source_id = "unknown";
  std::string spans;  ///< span file of a traced run
  double reference_scale = 1.0;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_runner: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--expect-build-type") {
      a.expect_build_type = value;
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else if (flag == "--source-id") {
      a.source_id = value;
    } else if (flag == "--reference-scale") {
      a.reference_scale = std::stod(value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1) ||
      a.work_dir.empty()) {
    usage("need --workload, --seconds > 0, --trace 0|1 and --work-dir");
  }
  if (a.spans.empty()) a.spans = a.work_dir + "/spans-" + a.workload + ".jsonl";
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opt) {
  if (name == "yield_array") return make_yield_workload(opt);
  if (name == "tail_rare") return make_tail_workload(opt);
  if (name == "traffic_mix") return make_traffic_workload(opt);
  if (name == "transient_read") return make_transient_workload(opt);
  usage("unknown workload " + name);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// Host-speed probe: a fixed piece of the benchmark's own code — integer
// mixing and libm `log`, register-resident — run on the calling thread
// between op cycles.  Its wall time tracks the CPU share the shared host
// gives this process at the moment; no change to the library can move
// it.  (Variants that also loaded from a 1 MB table, or ran one copy
// per pool thread, added cache and wake-up noise the workloads do not
// see.)
double host_probe_seconds() {
  const double t0 = now_seconds();
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  double acc = 1.0;
  for (int i = 0; i < 400000; ++i) {
    h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL;
    acc += std::log(1.0 + static_cast<double>(h >> 11) * 0x1.0p-53);
  }
  asm volatile("" : : "g"(acc) : "memory");  // keep the work
  return now_seconds() - t0;
}

/// One pass over ops [0, n) — or, when n == 0, whole cycles until
/// `seconds` have elapsed.  Records each op's wall, items and digest.
struct Pass {
  std::vector<double> wall;
  std::vector<double> items;
  std::vector<std::uint64_t> digest;
  std::vector<double> probe;  ///< host_probe_seconds() before each cycle
};

Pass run_pass(Workload& wl, sttram::ParallelExecutor& executor,
              Tracer* tracer, std::size_t n, double seconds, CheckLog& log,
              bool probe_host = false) {
  Pass pass;
  const double begin = now_seconds();
  double next_probe = begin;
  for (std::size_t i = 0;; ++i) {
    if (n > 0 ? i >= n
              : (i % wl.cycle() == 0 && now_seconds() - begin >= seconds)) {
      break;
    }
    if (probe_host && i % wl.cycle() == 0 && now_seconds() >= next_probe) {
      pass.probe.push_back(host_probe_seconds());
      next_probe = now_seconds() + kProbeInterval;
    }
    OpContext ctx;
    ctx.index = i;
    ctx.executor = &executor;
    ctx.tracer = tracer;
    OpOutcome out;
    if (tracer != nullptr) tracer->begin_op(i);
    const double t0 = now_seconds();
    try {
      out = wl.run_op(ctx);
    } catch (const std::exception& e) {
      out.ok = false;
      out.error = e.what();
    }
    const double wall =
        tracer == nullptr
            ? now_seconds() - t0
            : tracer->end_op([&](const std::string& name,
                                 const std::string& cat) {
                return wl.obs_metric(i, name, cat);
              });
    log.record(out.ok, "op " + std::to_string(i) + ": " + out.error);
    pass.wall.push_back(wall);
    pass.items.push_back(out.ok ? out.items : 0.0);
    pass.digest.push_back(out.digest);
  }
  return pass;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  if (args.expect_build_type != PERFBENCH_BUILD_TYPE) {
    std::fprintf(stderr,
                 "perfbench_runner: built as '%s' but the benchmark states "
                 "'%s'; refusing to report\n",
                 PERFBENCH_BUILD_TYPE, args.expect_build_type.c_str());
    return 2;
  }
  Options opt;
  opt.seed = args.seed;
  opt.reference_scale = args.reference_scale;
  opt.work_dir = args.work_dir;

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // Probe the workload's thread count before setup is timed.
  const std::size_t threads =
      std::min(make_workload(args.workload, opt)->threads(), nproc);

  sttram::Json prov = sttram::Json::object();
  prov.set("source", sttram::Json::string(args.source_id));
  prov.set("build_type", sttram::Json::string(PERFBENCH_BUILD_TYPE));
  prov.set("simd_isa", sttram::Json::string(
                           sttram::simd_isa_name(sttram::active_simd_isa())));
  prov.set("threads", sttram::Json::integer(static_cast<std::int64_t>(threads)));
  prov.set("nproc", sttram::Json::integer(static_cast<std::int64_t>(nproc)));
  prov.set("workload", sttram::Json::string(args.workload));
  prov.set("seed", sttram::Json::string(std::to_string(args.seed)));
  prov.set("trace", sttram::Json::integer(args.trace));
  std::printf("provenance %s\n", prov.dump().c_str());

  // Set-up: thread pool, input generation, file writes, warm-up.
  std::vector<double> setup_times;
  std::unique_ptr<Workload> wl;
  std::unique_ptr<sttram::engine::ThreadPool> pool;
  for (int r = 0; r < kSetupRepeats; ++r) {
    wl.reset();
    pool.reset();
    const double t0 = now_seconds();
    pool = std::make_unique<sttram::engine::ThreadPool>(threads);
    wl = make_workload(args.workload, opt);
    wl->setup(*pool);
    setup_times.push_back(now_seconds() - t0);
  }
  sttram::engine::ThreadPool one_thread(1);

  CheckLog log;
  Metrics metrics;
  const MetricSpec* specs = kEndToEnd;
  std::size_t spec_count = std::size(kEndToEnd);
  if (args.trace == 0) {
    const Pass pass =
        run_pass(*wl, *pool, nullptr, 0, args.seconds, log, true);
    // Host speed of this run relative to the reference host: the shared
    // host's speed drifts by tens of percent over minutes, and both
    // timed metrics are reported at the reference speed.
    const double host_probe = median(pass.probe);
    const double slowdown = host_probe / kReferenceProbeSeconds;
    metrics["setup_s"] = median(setup_times) / slowdown;
    // The median cycle: each position of the op cycle at its median over
    // the run's cycles.  A stall from another process on the host hits
    // single ops; the median cycle leaves it out.
    const std::size_t cycle = wl->cycle();
    const std::size_t cycles = pass.wall.size() / cycle;
    double items = 0.0;
    double wall = 0.0;
    std::map<std::string, std::pair<double, double>> rates;
    for (std::size_t j = 0; j < cycle; ++j) {
      std::vector<double> w;
      std::vector<double> n;
      for (std::size_t k = 0; k < cycles; ++k) {
        w.push_back(pass.wall[k * cycle + j]);
        n.push_back(pass.items[k * cycle + j]);
      }
      auto& [rate_items, rate_wall] = rates[wl->rate_name(j)];
      rate_items += median(n);
      rate_wall += median(w);
      items += median(n);
      wall += median(w);
    }
    metrics["items_per_ref_s"] = items / wall * slowdown;
    std::printf("host probe %.6g s (reference %.6g s); raw setup %.6g s, "
                "raw items/s %.6g\n",
                host_probe, kReferenceProbeSeconds, median(setup_times),
                items / wall);
    for (const auto& [name, iw] : rates) {
      std::printf("rate %s %.6g raw (median of %zu cycles; %zu ops in %.3f s)\n",
                  name.c_str(), iw.first / iw.second, cycles,
                  pass.wall.size(), sum(pass.wall));
    }
  } else {
    TraceRun run;
    run.threads = threads;
    const Pass first = run_pass(*wl, *pool, nullptr, 0,
                                args.seconds * kTracedFirstPassShare, log);
    run.ops = first.wall.size();
    const Pass one = threads > 1
                         ? run_pass(*wl, one_thread, nullptr, run.ops, 0.0, log)
                         : first;
    Pass traced;
    {
      Tracer tracer;
      traced = run_pass(*wl, one_thread, &tracer, run.ops, 0.0, log);
      run.self_seconds = tracer.self_seconds();
      const std::size_t cycle = wl->cycle();
      run.first_cycle_counters =
          tracer.counters([cycle](std::uint64_t op) { return op < cycle; });
      tracer.write(args.spans, cycle);
    }
    for (std::size_t i = 0; i < run.ops; ++i) {
      log.record(first.digest[i] == one.digest[i] &&
                     first.digest[i] == traced.digest[i],
                 "op " + std::to_string(i) +
                     ": output differs across thread count or tracing");
    }
    run.wall_workload_threads = first.wall;
    run.wall_one_thread = one.wall;

    for (const MetricSpec& s : kPerLayer) metrics[s.name] = 0.0;
    const double traced_wall = sum(traced.wall);
    const double untraced_wall = sum(one.wall);
    metrics["traced_op_s"] = traced_wall / static_cast<double>(run.ops);
    metrics["unattributed_frac"] = run.self_seconds["unattributed"] / traced_wall;
    metrics["obs.trace_overhead_frac"] =
        (traced_wall - untraced_wall) / untraced_wall;
    wl->layer_metrics(run, metrics);
    specs = kPerLayer;
    spec_count = std::size(kPerLayer);
  }
  wl->verify(log, one_thread, *pool);

  if (args.trace == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

  std::string out = "{\"correct\": ";
  out += log.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(log.attempted());
  out += ", \"failed\": " + std::to_string(log.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < spec_count; ++i) {
    const auto it = metrics.find(specs[i].name);
    if (it == metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench_runner: metric %s not measured\n",
                   specs[i].name);
      return 1;
    }
    if (i > 0) out += ", ";
    out += '"';
    out += specs[i].name;
    out += "\": {\"value\": " + json_number(it->second) + ", \"unit\": \"";
    out += specs[i].unit;
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
