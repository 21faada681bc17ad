// Outside-in span tracer.  The benchmark wraps each call it makes into
// a layer's public function in a span; after each op it also imports
// the spans obs already emits (profile scopes and trace spans inside the
// library) and the op's obs counter deltas.  Spans stay in memory and
// are written out once, at exit.
//
// Self time: a span's duration minus the durations of its direct
// children (same thread; the traced phase runs single-threaded, so
// siblings never overlap).  The op root's self time is the part of the
// op's wall that no layer span covers ("unattributed"), so the self
// times of one op add up to its wall exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;    ///< the wrapped call or the obs phase
  std::string metric;  ///< tracer metric key its self time counts toward
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< index into the span list; -1 = op root
  std::uint64_t op = 0;
  std::uint64_t tid = 0;
  double self_us = 0.0;
  bool imported = false;  ///< emitted by obs inside the library
};

class Tracer {
 public:
  /// (name, cat) of an obs event -> metric key, "" to drop it.
  using ObsMap =
      std::function<std::string(const std::string&, const std::string&)>;

  /// Turns on obs metrics, profiling and the trace recorder.
  Tracer();
  /// Turns them off again.
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens op `op`'s root span and snapshots the obs counters.
  void begin_op(std::uint64_t op);
  /// Closes the root span, imports the op's obs events through `map`,
  /// links parents, computes self times and the op's counter deltas.
  /// Returns the op's wall time in seconds.
  double end_op(const ObsMap& map);

  /// Runs `f` inside a span named `name` whose self time counts toward
  /// `metric`.
  template <typename F>
  decltype(auto) span(const char* name, const char* metric, F&& f) {
    const std::size_t idx = open(name, metric);
    struct Closer {
      Tracer* t;
      std::size_t i;
      ~Closer() { t->close(i); }
    } closer{this, idx};
    return std::forward<F>(f)();
  }

  /// Self seconds per metric key over all finished ops.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Counter deltas summed over the ops for which `pick(op)` holds.
  [[nodiscard]] std::map<std::string, double> counters(
      const std::function<bool(std::uint64_t)>& pick) const;
  /// Writes the spans as JSON lines (one object per span): every span of
  /// ops below `full_ops`, and only the benchmark's own spans of later
  /// ops (a yield op alone imports ~18k sampler spans).
  void write(const std::string& path, std::uint64_t full_ops) const;

 private:
  std::size_t open(const char* name, const char* metric);
  void close(std::size_t idx);
  [[nodiscard]] std::map<std::string, double> read_counters() const;

  std::vector<Span> spans_;
  std::size_t op_first_ = 0;  ///< first span index of the open op
  std::uint64_t op_ = 0;
  std::map<std::string, double> counters_before_;
  std::vector<std::pair<std::uint64_t, std::map<std::string, double>>>
      op_counters_;
};

}  // namespace perfbench
