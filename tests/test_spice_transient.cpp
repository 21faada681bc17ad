// Tests of the transient integrators: trapezoidal accuracy order,
// adaptive step control, breakpoint handling, history consistency, and a
// bit-exact pin of the read-circuit waveforms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "sttram/common/error.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/sim/spice_read.hpp"
#include "sttram/spice/analysis.hpp"
#include "sttram/spice/circuit.hpp"
#include "sttram/spice/elements.hpp"

namespace sttram {
namespace {

using spice::Capacitor;
using spice::Circuit;
using spice::Integrator;
using spice::NodeId;
using spice::PwlWaveform;
using spice::Resistor;
using spice::TimedSwitch;
using spice::TransientOptions;
using spice::VoltageSource;

/// RC charging circuit with tau = 1 ns, step at t = 0+ via initial
/// condition mismatch: source at 1 V from t=0, cap starts at DC (1 V)...
/// so instead drive with a PWL step shortly after t=0.
struct RcFixture {
  Circuit c;
  NodeId out;
  double t_step = 0.2e-9;

  RcFixture() {
    const NodeId in = c.node("in");
    out = c.node("out");
    c.add<VoltageSource>(
        "V", in, Circuit::ground(),
        std::make_unique<PwlWaveform>(
            std::vector<double>{0.0, t_step, t_step + 1e-12},
            std::vector<double>{0.0, 0.0, 1.0}));
    c.add<Resistor>("R", in, out, 1000.0);
    c.add<Capacitor>("C", out, Circuit::ground(), 1e-12);
  }

  /// Max |v(t) - exact| over the charging window for a given config.
  double max_error(Integrator method, double dt, bool adaptive = false,
                   double lte = 1e-4) {
    TransientOptions opt;
    opt.t_stop = 6e-9;
    opt.dt = dt;
    opt.integrator = method;
    opt.adaptive = adaptive;
    opt.lte_tol = lte;
    const auto waves = run_transient(c, opt);
    double err = 0.0;
    for (double t = t_step + 0.3e-9; t < 6e-9; t += 0.1e-9) {
      const double exact = 1.0 - std::exp(-(t - t_step - 1e-12) / 1e-9);
      err = std::max(err, std::fabs(waves.voltage_at(out, t) - exact));
    }
    return err;
  }
};

TEST(TransientIntegrators, TrapezoidalBeatsBackwardEulerAtSameStep) {
  RcFixture f1, f2;
  const double dt = 0.1e-9;
  const double err_be = f1.max_error(Integrator::kBackwardEuler, dt);
  const double err_tr = f2.max_error(Integrator::kTrapezoidal, dt);
  EXPECT_LT(err_tr, 0.4 * err_be);
  EXPECT_LT(err_tr, 2e-3);
}

TEST(TransientIntegrators, BackwardEulerIsFirstOrder) {
  RcFixture a, b;
  const double e1 = a.max_error(Integrator::kBackwardEuler, 0.2e-9);
  const double e2 = b.max_error(Integrator::kBackwardEuler, 0.1e-9);
  // Halving dt should roughly halve the error (order 1).
  EXPECT_NEAR(e1 / e2, 2.0, 0.7);
}

TEST(TransientIntegrators, TrapezoidalIsSecondOrder) {
  RcFixture a, b;
  const double e1 = a.max_error(Integrator::kTrapezoidal, 0.4e-9);
  const double e2 = b.max_error(Integrator::kTrapezoidal, 0.2e-9);
  // Halving dt should cut the error ~4x (order 2).
  EXPECT_GT(e1 / e2, 2.5);
}

TEST(TransientIntegrators, AdaptiveMeetsToleranceWithFewerSteps) {
  RcFixture fixed_f, adaptive_f;
  TransientOptions fixed;
  fixed.t_stop = 6e-9;
  fixed.dt = 0.02e-9;
  fixed.integrator = Integrator::kTrapezoidal;
  const auto waves_fixed = run_transient(fixed_f.c, fixed);

  TransientOptions ad = fixed;
  ad.adaptive = true;
  ad.dt = 0.02e-9;
  ad.lte_tol = 5e-4;
  const auto waves_ad = run_transient(adaptive_f.c, ad);
  // The adaptive run takes meaningfully fewer samples...
  EXPECT_LT(waves_ad.sample_count(), waves_fixed.sample_count() * 3 / 4);
  // ...while staying accurate.
  EXPECT_LT(adaptive_f.max_error(Integrator::kTrapezoidal, 0.02e-9, true,
                                 5e-4),
            5e-3);
}

TEST(TransientIntegrators, BreakpointsAreHitExactly) {
  // A switch event at an "awkward" time must appear as a sample even
  // with a coarse step, so the event is not smeared.
  Circuit c;
  const NodeId a = c.node("a");
  c.add<VoltageSource>("V", a, Circuit::ground(), 1.0);
  const NodeId b = c.node("b");
  c.add<TimedSwitch>("S", a, b, false,
                     std::vector<std::pair<double, bool>>{{1.37e-9, true}},
                     100.0);
  c.add<Resistor>("RL", b, Circuit::ground(), 1000.0);
  TransientOptions opt;
  opt.t_stop = 3e-9;
  opt.dt = 0.5e-9;  // would step right past 1.37 ns
  const auto waves = run_transient(c, opt);
  bool hit = false;
  for (const double t : waves.times()) {
    if (std::fabs(t - 1.37e-9) < 1e-15) hit = true;
  }
  EXPECT_TRUE(hit);
  // Before the event: open; after: divider of r_on vs load.
  EXPECT_NEAR(waves.voltage_at(b, 1.3e-9), 0.0, 1e-3);
  EXPECT_NEAR(waves.voltage_at(b, 2.9e-9), 1000.0 / 1100.0, 1e-3);
}

TEST(TransientIntegrators, CapacitorHistoryResets) {
  Capacitor cap("c", 0, spice::kGround, 1e-12);
  EXPECT_DOUBLE_EQ(cap.history_current(), 0.0);
  cap.reset_history();
  EXPECT_DOUBLE_EQ(cap.history_current(), 0.0);
}

TEST(TransientIntegrators, TrapezoidalMatchesBackwardEulerSteadyState) {
  RcFixture be_f, tr_f;
  TransientOptions opt;
  opt.t_stop = 10e-9;
  opt.dt = 0.05e-9;
  opt.integrator = Integrator::kBackwardEuler;
  const auto be = run_transient(be_f.c, opt);
  opt.integrator = Integrator::kTrapezoidal;
  const auto tr = run_transient(tr_f.c, opt);
  EXPECT_NEAR(be.final_voltage(be_f.out), tr.final_voltage(tr_f.out), 5e-5);
  EXPECT_NEAR(tr.final_voltage(tr_f.out), 1.0, 1e-4);
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

/// Folds every sample time and every unknown of every sample.
std::uint64_t fold_waves(std::uint64_t h, const spice::TransientResult& w) {
  for (std::size_t k = 0; k < w.sample_count(); ++k) {
    h = fold(h, w.time(k));
    for (const double x : w.sample(k)) h = fold(h, x);
  }
  return h;
}

// Bit-exact pin of the MNA solver on both read circuits: every waveform
// sample and the sensed voltages of nondestructive and destructive reads,
// both stored states, on sampled device corners.  A solver change that
// reorders any floating-point sum (stamp order, LU operation order) or
// perturbs a device linearization moves the digest; such a change is a
// reviewed waveform regeneration, not a silent drift.
TEST(TransientSolverPin, ReadWaveformsAreBitIdentical) {
  const MtjVariationModel variation(MtjParams::paper_calibrated(),
                                    VariationParams{});
  Xoshiro256 rng(2024);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int corner = 0; corner < 3; ++corner) {
    const MtjParams mtj = variation.sample(rng);
    for (const MtjState state :
         {MtjState::kAntiParallel, MtjState::kParallel}) {
      SpiceReadConfig nd;
      nd.mtj = mtj;
      nd.state = state;
      const SpiceReadResult r = simulate_nondestructive_read(nd);
      h = fold_waves(h, r.waves);
      h = fold(h, r.margin.value());
      h = fold(h, r.v_c1.value());
      h = fold(h, r.v_bo.value());

      DestructiveSpiceConfig d;
      d.mtj = mtj;
      d.state = state;
      const DestructiveSpiceResult dr = simulate_destructive_read(d);
      h = fold_waves(h, dr.waves);
      h = fold(h, dr.margin.value());
      h = fold(h, dr.v_c1.value());
      h = fold(h, dr.v_c2.value());
    }
  }
  EXPECT_EQ(h, 0x59fd0991e118a8b0ULL) << std::hex << h;
}

// The Newton iteration path of one nominal nondestructive read: a solver
// change that keeps the waveforms but takes a different number of
// iterations (or factorizations) is caught here.
TEST(TransientSolverPin, NominalReadIterationCount) {
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& registry = obs::Registry::instance();
  auto& iterations = registry.counter("spice.newton.iterations");
  auto& factorizations = registry.counter("spice.newton.factorizations");
  const std::uint64_t iter0 = iterations.value();
  const std::uint64_t fact0 = factorizations.value();
  (void)simulate_nondestructive_read(SpiceReadConfig{});
  const std::uint64_t iters = iterations.value() - iter0;
  const std::uint64_t facts = factorizations.value() - fact0;
  obs::set_metrics_enabled(was_enabled);
  EXPECT_EQ(iters, 1654u);
  EXPECT_EQ(facts, iters);
}

// Newton's error reports.  Valid decks converge, so these paths are
// reached by capping Newton at one iteration: convergence needs a second
// iterate to compare against, so a nonlinear circuit can never converge.
// The probe time sits inside the first read, with the word line at VDD
// and the read current flowing, so the first Newton update is non-zero
// and names its node.
class StalledNewton : public ::testing::Test {
 protected:
  void SetUp() override {
    (void)build_nondestructive_read_circuit(circuit, cfg);
    stalled.max_iterations = 1;
    was_enabled = obs::metrics_enabled();
    obs::set_metrics_enabled(true);
  }
  void TearDown() override { obs::set_metrics_enabled(was_enabled); }

  /// Runs `f`, which must throw CircuitError, and returns its message.
  template <typename F>
  std::string error_of(F&& f) {
    try {
      f();
    } catch (const CircuitError& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected CircuitError";
    return "";
  }

  static std::uint64_t nonconverged() {
    return obs::Registry::instance()
        .counter("spice.newton.nonconverged")
        .value();
  }

  SpiceReadConfig cfg;
  Circuit circuit;
  spice::NewtonOptions stalled;
  double t_probe = cfg.t_read1_on + 1e-9;
  bool was_enabled = false;
};

TEST_F(StalledNewton, DcGminRampReportsDecadeIterationsAndNode) {
  const std::uint64_t before = nonconverged();
  const std::string msg =
      error_of([&] { (void)solve_dc(circuit, stalled, t_probe); });
  EXPECT_NE(msg.find("solve_dc: Newton failed during gmin ramp"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("gmin = 0.001 S, decade 0 of 8"), std::string::npos)
      << msg;
  // From the all-zero start, the word line jumps furthest (0 -> VDD).
  EXPECT_NE(msg.find("after 1 iterations, worst node 'WL' (|dV| = 1.2 V)"),
            std::string::npos)
      << msg;
  // The direct solve and the first ramp decade both fail.
  EXPECT_EQ(nonconverged() - before, 2u);
}

TEST_F(StalledNewton, TransientReportsTimeStepAndNode) {
  // Start where the word line and the read current begin to ramp, so
  // the first step moves the circuit away from its warm start.
  const spice::Solution start = solve_dc(circuit, {}, cfg.t_read1_on);
  TransientOptions opt;
  opt.t_start = cfg.t_read1_on;
  opt.t_stop = cfg.t_read1_off;
  opt.dt = cfg.dt;
  opt.newton = stalled;
  const std::uint64_t before = nonconverged();
  const std::string msg =
      error_of([&] { (void)run_transient(circuit, opt, &start); });
  // The first step lands at t_read1_on + dt = 1.025 ns, a quarter of the
  // way up the 200 ps word-line ramp to VDD.
  EXPECT_NE(msg.find("run_transient: Newton failed at t = 1.025e-09 s "
                     "(dt = 2.5e-11 s, after 1 iterations, worst node 'WL' "
                     "(|dV| = 0.15 V))"),
            std::string::npos)
      << msg;
  EXPECT_EQ(nonconverged() - before, 1u);
}

}  // namespace
}  // namespace sttram
