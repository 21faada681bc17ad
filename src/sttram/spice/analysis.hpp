// DC operating point and transient analyses.
#pragma once

#include <cstddef>
#include <vector>

#include "sttram/spice/circuit.hpp"

namespace sttram::spice {

/// A converged MNA solution: node voltages followed by source branch
/// currents.
struct Solution {
  std::vector<double> x;

  [[nodiscard]] double voltage(NodeId n) const {
    return n == kGround ? 0.0 : x[static_cast<std::size_t>(n)];
  }
  /// Branch current of the element owning absolute branch `index`
  /// (offset by the circuit's node count — see Circuit::branch_count()).
  [[nodiscard]] double branch_current(std::size_t node_count,
                                      int branch) const {
    return x[node_count + static_cast<std::size_t>(branch)];
  }
};

/// Newton-Raphson controls.  solve_dc and run_transient throw
/// InvalidArgument on max_iterations < 1 or gmin_ramp_decades < 0.
struct NewtonOptions {
  int max_iterations = 200;
  double v_abstol = 1e-9;   ///< absolute voltage tolerance [V]
  double reltol = 1e-9;     ///< relative tolerance
  double gmin = 1e-12;      ///< conductance from every node to ground [S]
  /// Largest allowed per-iteration voltage update (Newton damping) [V].
  double max_step = 2.0;
  /// Number of gmin-ramp decades tried when plain Newton fails.
  int gmin_ramp_decades = 8;
};

/// Solves the DC operating point at time `time` (sources evaluate their
/// waveforms there; capacitors are open).  Throws CircuitError on
/// non-convergence; the message carries the iteration count, the worst
/// (largest-update) node and the gmin-ramp decade reached.
Solution solve_dc(Circuit& circuit, const NewtonOptions& options = {},
                  double time = 0.0);

/// Transient options.
struct TransientOptions {
  double t_start = 0.0;  ///< start time [s] (segmented simulations chain
                         ///< runs by passing the previous end solution)
  double t_stop = 0.0;   ///< end time [s]
  double dt = 0.0;       ///< nominal / initial step [s]
  NewtonOptions newton;
  Integrator integrator = Integrator::kBackwardEuler;
  /// Adaptive local-truncation-error control: steps are halved when the
  /// predictor/corrector difference exceeds `lte_tol` (volts) and grown
  /// when it stays well below.  Element breakpoints (source corners,
  /// switch events) are never stepped across.
  bool adaptive = false;
  double lte_tol = 1e-4;   ///< accepted per-step error estimate [V]
  double dt_min = 0.0;     ///< 0 = dt / 1024
  double dt_max = 0.0;     ///< 0 = 8 * dt
};

/// Stored transient waveforms.
class TransientResult {
 public:
  /// Empty result (no samples); useful as a default member.
  TransientResult() = default;
  TransientResult(std::vector<std::string> node_names,
                  std::size_t node_count);

  void append(double time, std::vector<double> x);

  [[nodiscard]] std::size_t sample_count() const { return times_.size(); }
  [[nodiscard]] const std::vector<double>& times() const { return times_; }
  [[nodiscard]] double time(std::size_t k) const { return times_[k]; }
  /// Voltage of node `n` at sample `k`.
  [[nodiscard]] double voltage(NodeId n, std::size_t k) const;
  /// Linear interpolation of node `n`'s voltage at time `t`.
  [[nodiscard]] double voltage_at(NodeId n, double t) const;
  /// Voltage of node `n` at the last sample.
  [[nodiscard]] double final_voltage(NodeId n) const;
  /// Full solution vector at sample `k` (nodes + branches).
  [[nodiscard]] const std::vector<double>& sample(std::size_t k) const {
    return samples_[k];
  }
  [[nodiscard]] const std::vector<std::string>& node_names() const {
    return node_names_;
  }
  /// First time the node's voltage crosses `level` with the given
  /// direction (+1 rising, -1 falling); returns a negative value when it
  /// never does.
  [[nodiscard]] double crossing_time(NodeId n, double level,
                                     int direction) const;

 private:
  std::vector<std::string> node_names_;
  std::size_t node_count_ = 0;
  std::vector<double> times_;
  std::vector<std::vector<double>> samples_;
};

/// Runs a fixed-step backward-Euler transient from `initial` (or from a
/// DC operating point at t=0 when `initial` is null).
TransientResult run_transient(Circuit& circuit,
                              const TransientOptions& options,
                              const Solution* initial = nullptr);

/// DC sweep: sets the named V/I source to each value in turn and solves
/// the operating point, warm-starting each solve from the previous one.
/// Returns one Solution per value.  Throws CircuitError when the element
/// is missing or not a source.
std::vector<Solution> dc_sweep(Circuit& circuit,
                               const std::string& source_name,
                               const std::vector<double>& values,
                               const NewtonOptions& options = {});

}  // namespace sttram::spice
