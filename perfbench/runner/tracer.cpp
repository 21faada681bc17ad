#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <thread>

#include "sttram/io/json.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"
#include "sttram/obs/trace.hpp"

namespace perfbench {
namespace {

// Same per-thread id obs/trace.cpp stamps on its events, so imported
// events and the benchmark's own spans land on the same lane.
std::uint64_t current_tid() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000000;
}

}  // namespace

Tracer::Tracer() {
  sttram::obs::set_metrics_enabled(true);
  sttram::obs::set_profiling_enabled(true);
  sttram::obs::TraceRecorder::instance().start();
}

Tracer::~Tracer() {
  sttram::obs::TraceRecorder::instance().stop();
  sttram::obs::TraceRecorder::instance().clear();
  sttram::obs::set_profiling_enabled(false);
  sttram::obs::set_metrics_enabled(false);
}

std::size_t Tracer::open(const char* name, const char* metric) {
  Span s;
  s.name = name;
  s.metric = metric;
  s.op = op_;
  s.tid = current_tid();
  s.start_us = sttram::obs::TraceRecorder::instance().now_us();
  spans_.push_back(std::move(s));
  return spans_.size() - 1;
}

void Tracer::close(std::size_t idx) {
  spans_[idx].end_us = sttram::obs::TraceRecorder::instance().now_us();
}

std::map<std::string, double> Tracer::read_counters() const {
  std::map<std::string, double> out;
  for (const auto& c : sttram::obs::Registry::instance().counters()) {
    out[c.name] = static_cast<double>(c.value);
  }
  return out;
}

void Tracer::begin_op(std::uint64_t op) {
  sttram::obs::TraceRecorder::instance().clear();
  counters_before_ = read_counters();
  op_ = op;
  op_first_ = open("op", "unattributed");
}

double Tracer::end_op(const ObsMap& map) {
  close(op_first_);
  sttram::obs::TraceRecorder& rec = sttram::obs::TraceRecorder::instance();
  const sttram::Json events = rec.to_json().at("traceEvents");
  rec.clear();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const sttram::Json& e = events.at(i);
    std::string metric = map(e.at("name").as_string(), e.at("cat").as_string());
    if (metric.empty()) continue;
    Span s;
    s.name = e.at("name").as_string();
    s.metric = std::move(metric);
    s.op = op_;
    s.tid = static_cast<std::uint64_t>(e.at("tid").as_integer());
    s.start_us = e.at("ts").as_number();
    s.end_us = s.start_us + e.at("dur").as_number();
    s.imported = true;
    spans_.push_back(std::move(s));
  }

  // Parent = innermost enclosing span on the same thread: sweep the op's
  // spans by start time (outer first on ties) with an open-span stack.
  std::vector<std::size_t> order(spans_.size() - op_first_);
  std::iota(order.begin(), order.end(), op_first_);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    if (x.end_us != y.end_us) return x.end_us > y.end_us;
    return a < b;
  });
  std::vector<std::size_t> stack;
  for (const std::size_t i : order) {
    Span& s = spans_[i];
    while (!stack.empty() && (spans_[stack.back()].tid != s.tid ||
                              spans_[stack.back()].end_us <= s.start_us)) {
      stack.pop_back();
    }
    // Spans of another thread than the op root's hang off the root.
    s.parent = i == op_first_ ? -1
               : stack.empty() ? static_cast<std::int64_t>(op_first_)
                               : static_cast<std::int64_t>(stack.back());
    s.self_us = s.end_us - s.start_us;
    stack.push_back(i);
  }
  for (std::size_t i = op_first_ + 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Span& parent = spans_[static_cast<std::size_t>(s.parent)];
    if (parent.tid == s.tid) parent.self_us -= s.end_us - s.start_us;
  }

  std::map<std::string, double> delta = read_counters();
  for (auto& [name, value] : delta) {
    const auto it = counters_before_.find(name);
    if (it != counters_before_.end()) value -= it->second;
  }
  op_counters_.emplace_back(op_, std::move(delta));
  const Span& root = spans_[op_first_];
  return (root.end_us - root.start_us) * 1e-6;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.metric] += s.self_us * 1e-6;
  return out;
}

std::map<std::string, double> Tracer::counters(
    const std::function<bool(std::uint64_t)>& pick) const {
  std::map<std::string, double> out;
  for (const auto& [op, delta] : op_counters_) {
    if (!pick(op)) continue;
    for (const auto& [name, value] : delta) out[name] += value;
  }
  return out;
}

void Tracer::write(const std::string& path, std::uint64_t full_ops) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    if (s.imported && s.op >= full_ops) continue;
    sttram::Json j = sttram::Json::object();
    j.set("name", sttram::Json::string(s.name));
    j.set("metric", sttram::Json::string(s.metric));
    j.set("op", sttram::Json::integer(static_cast<std::int64_t>(s.op)));
    j.set("tid", sttram::Json::integer(static_cast<std::int64_t>(s.tid)));
    j.set("start_us", sttram::Json::number(s.start_us));
    j.set("end_us", sttram::Json::number(s.end_us));
    j.set("parent", sttram::Json::integer(s.parent));
    j.set("self_us", sttram::Json::number(s.self_us));
    out << j.dump() << '\n';
  }
}

}  // namespace perfbench
