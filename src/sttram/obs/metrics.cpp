#include "sttram/obs/metrics.hpp"

#include <cstdio>
#include <fstream>

#include "sttram/common/error.hpp"
#include "sttram/io/csv.hpp"
#include "sttram/io/json.hpp"
#include "sttram/obs/profile.hpp"

namespace sttram::obs {
namespace {

std::atomic<bool> g_metrics_enabled{false};

std::string format_full(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

std::string normalize_metric_name(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '.';
    if (ok) {
      out += c;
    } else if (!out.empty() && out.back() != '_') {
      // Both literal '_' and mapped separators collapse into single '_',
      // never leading or trailing.
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

Registry& Registry::instance() {
  // Leaked on purpose: exporters registered with std::atexit (e.g. the
  // bench metrics sidecar) may run after function-local statics are
  // destroyed, so the registry must outlive every atexit handler.
  static Registry* registry = new Registry;
  return *registry;
}

Registry::Registry() {
  // Pre-register the well-known solver / Monte-Carlo metrics so every
  // export carries the full schema even when a workload never hits them.
  for (const char* name :
       {"mc.trials", "mc.opcache.hits", "mc.opcache.misses", "is.trials",
        "is.hits", "read.phases",
        "spice.dc.solves", "spice.dc.gmin_ramps", "spice.dc.gmin_decades",
        "spice.newton.solves", "spice.newton.iterations",
        "spice.newton.factorizations", "spice.newton.nonconverged",
        "spice.transient.runs", "spice.transient.steps_accepted",
        "spice.transient.steps_rejected", "tail.searches",
        "tail.margin_evaluations", "yield.experiments",
        "yield.margin_evaluations", "yield.margin_failures",
        "engine.requests", "engine.reads", "engine.writes",
        "fault.injected", "fault.march_detected", "fault.retries",
        "fault.raw_bit_errors", "fault.ecc_corrected",
        "fault.ecc_uncorrectable", "fault.silent_corruptions"}) {
    counters_.emplace(name, std::make_unique<Counter>());
  }
  for (const char* name : {"mc.trials_per_second", "mc.batch_size",
                           "yield.cells_per_second", "engine.queue_depth",
                           "engine.bank_utilization",
                           "fault.march_coverage"}) {
    gauges_.emplace(name, std::make_unique<Gauge>());
  }
  for (const char* name :
       {"yield.experiment_seconds", "engine.sim_seconds"}) {
    timers_.emplace(name, std::make_unique<Timer>());
  }
  // Distributions exported with the full percentile set.  mc.trial_seconds
  // moved here from the timers when per-trial solve times became
  // histograms (the scalar mean hid the tail; see DESIGN.md §11).
  for (const char* name :
       {"mc.trial_seconds", "mc.block_seconds", "engine.latency_seconds",
        "engine.read_latency_seconds", "engine.write_latency_seconds"}) {
    histograms_.emplace(name, std::make_unique<HistogramMetric>());
  }
}

void Registry::check_name(const std::string& name, const char* kind) const {
  require(!name.empty(), "Registry: metric name must not be empty");
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) {
      throw InvalidArgument("Registry: invalid metric name '" + name +
                            "' (allowed characters: [a-z0-9_.])");
    }
  }
  const char* existing = nullptr;
  if (counters_.count(name) > 0) {
    existing = "counter";
  } else if (gauges_.count(name) > 0) {
    existing = "gauge";
  } else if (timers_.count(name) > 0) {
    existing = "timer";
  } else if (histograms_.count(name) > 0) {
    existing = "histogram";
  }
  if (existing != nullptr && std::string(existing) != kind) {
    throw InvalidArgument("Registry: metric '" + name + "' is a " +
                          existing + ", requested as a " + kind);
  }
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  check_name(name, "counter");
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  check_name(name, "gauge");
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Timer& Registry::timer(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  check_name(name, "timer");
  auto& slot = timers_[name];
  if (slot == nullptr) slot = std::make_unique<Timer>();
  return *slot;
}

HistogramMetric& Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  check_name(name, "histogram");
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<HistogramMetric>();
  return *slot;
}

std::vector<CounterSnapshot> Registry::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<CounterSnapshot> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.push_back({name, c->value()});
  }
  return out;
}

std::vector<GaugeSnapshot> Registry::gauges() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<GaugeSnapshot> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.push_back({name, g->value()});
  }
  return out;
}

std::vector<TimerSnapshot> Registry::timers() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<TimerSnapshot> out;
  out.reserve(timers_.size());
  for (const auto& [name, t] : timers_) {
    out.push_back({name, t->snapshot()});
  }
  return out;
}

std::vector<HistogramSnapshot> Registry::histograms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.push_back({name, h->snapshot()});
  }
  return out;
}

Json Registry::to_json() const {
  Json counters = Json::object();
  for (const auto& c : this->counters()) {
    counters.set(c.name,
                 Json::integer(static_cast<std::int64_t>(c.value)));
  }
  Json gauges = Json::object();
  for (const auto& g : this->gauges()) {
    gauges.set(g.name, Json::number(g.value));
  }
  Json timers = Json::object();
  for (const auto& t : this->timers()) {
    Json entry = Json::object();
    const std::size_t n = t.stats.count();
    entry.set("count", Json::integer(static_cast<std::int64_t>(n)));
    entry.set("mean", Json::number(n > 0 ? t.stats.mean() : 0.0));
    entry.set("stddev", Json::number(t.stats.stddev()));
    entry.set("min", Json::number(n > 0 ? t.stats.min() : 0.0));
    entry.set("max", Json::number(n > 0 ? t.stats.max() : 0.0));
    entry.set("total",
              Json::number(t.stats.mean() * static_cast<double>(n)));
    timers.set(t.name, std::move(entry));
  }
  Json histograms = Json::object();
  for (const auto& h : this->histograms()) {
    histograms.set(h.name, h.hist.summary().to_json());
  }
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("timers", std::move(timers));
  out.set("histograms", std::move(histograms));
  return out;
}

void Registry::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.write_row(std::vector<std::string>{"kind", "name", "count", "value",
                                         "mean", "stddev", "min", "max",
                                         "p50", "p90", "p99", "p999"});
  for (const auto& c : counters()) {
    csv.write_row(std::vector<std::string>{
        "counter", c.name, std::to_string(c.value),
        std::to_string(c.value), "", "", "", "", "", "", "", ""});
  }
  for (const auto& g : gauges()) {
    csv.write_row(std::vector<std::string>{"gauge", g.name, "",
                                           format_full(g.value), "", "", "",
                                           "", "", "", "", ""});
  }
  for (const auto& t : timers()) {
    const std::size_t n = t.stats.count();
    csv.write_row(std::vector<std::string>{
        "timer", t.name, std::to_string(n),
        format_full(t.stats.mean() * static_cast<double>(n)),
        format_full(n > 0 ? t.stats.mean() : 0.0),
        format_full(t.stats.stddev()),
        format_full(n > 0 ? t.stats.min() : 0.0),
        format_full(n > 0 ? t.stats.max() : 0.0), "", "", "", ""});
  }
  for (const auto& h : histograms()) {
    const HistogramSummary s = h.hist.summary();
    csv.write_row(std::vector<std::string>{
        "histogram", h.name, std::to_string(s.count),
        format_full(h.hist.sum()), format_full(s.mean), "",
        format_full(s.min), format_full(s.max), format_full(s.p50),
        format_full(s.p90), format_full(s.p99), format_full(s.p999)});
  }
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, t] : timers_) t->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void write_metrics_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("write_metrics_json: cannot open '" + path + "'");
  // The phase profile rides along with the metrics so one file carries
  // the whole performance picture of the run.
  Json doc = Registry::instance().to_json();
  doc.set("profile", Profiler::instance().to_json());
  out << doc.dump(2) << '\n';
}

void write_metrics_csv(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("write_metrics_csv: cannot open '" + path + "'");
  Registry::instance().write_csv(out);
  // Phase-profile rows reuse the schema: count=calls,
  // value=total_seconds, mean=self_seconds.
  CsvWriter csv(out);
  for (const auto& row : Profiler::instance().report()) {
    csv.write_row(std::vector<std::string>{
        "phase", row.name, std::to_string(row.calls),
        format_full(row.total_seconds), format_full(row.self_seconds), "",
        "", "", "", "", "", ""});
  }
}

}  // namespace sttram::obs
