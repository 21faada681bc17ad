#include "sttram/spice/elements.hpp"

#include <algorithm>
#include <cmath>

#include "sttram/common/error.hpp"

namespace sttram::spice {

// ------------------------------------------------------------ MnaStamper

void MnaStamper::conductance(NodeId p, NodeId n, double g) {
  if (p != kGround) {
    a_(static_cast<std::size_t>(p), static_cast<std::size_t>(p)) += g;
  }
  if (n != kGround) {
    a_(static_cast<std::size_t>(n), static_cast<std::size_t>(n)) += g;
  }
  if (p != kGround && n != kGround) {
    a_(static_cast<std::size_t>(p), static_cast<std::size_t>(n)) -= g;
    a_(static_cast<std::size_t>(n), static_cast<std::size_t>(p)) -= g;
  }
}

void MnaStamper::current_into(NodeId n, double i) {
  if (n != kGround) b_[static_cast<std::size_t>(n)] += i;
}

void MnaStamper::voltage_source(int branch, NodeId p, NodeId n,
                                double value) {
  const std::size_t br = branch_row(branch);
  if (p != kGround) {
    a_(static_cast<std::size_t>(p), br) += 1.0;
    a_(br, static_cast<std::size_t>(p)) += 1.0;
  }
  if (n != kGround) {
    a_(static_cast<std::size_t>(n), br) -= 1.0;
    a_(br, static_cast<std::size_t>(n)) -= 1.0;
  }
  b_[br] += value;
}

void MnaStamper::vccs(NodeId op, NodeId on, NodeId cp, NodeId cn, double gm) {
  const auto stamp = [&](NodeId row, NodeId col, double val) {
    if (row != kGround && col != kGround) {
      a_(static_cast<std::size_t>(row), static_cast<std::size_t>(col)) += val;
    }
  };
  stamp(op, cp, gm);
  stamp(op, cn, -gm);
  stamp(on, cp, -gm);
  stamp(on, cn, gm);
}

// -------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Element(std::move(name)), a_(a), b_(b), ohms_(ohms) {
  require(ohms > 0.0, "Resistor: resistance must be > 0");
}

void Resistor::set_resistance(double ohms) {
  require(ohms > 0.0, "Resistor: resistance must be > 0");
  ohms_ = ohms;
}

void Resistor::stamp(MnaStamper& mna, const StampContext&) const {
  mna.conductance(a_, b_, 1.0 / ohms_);
}

// ------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads)
    : Element(std::move(name)), a_(a), b_(b), farads_(farads) {
  require(farads > 0.0, "Capacitor: capacitance must be > 0");
}

void Capacitor::stamp(MnaStamper& mna, const StampContext& ctx) const {
  if (!ctx.transient || ctx.dt <= 0.0) return;  // open during DC
  const double v_prev = ctx.v_prev(a_) - ctx.v_prev(b_);
  double g = 0.0;
  double i_src = 0.0;  // history current injected into node a
  if (ctx.integrator == Integrator::kTrapezoidal) {
    // Trapezoidal companion: i_n = (2C/h)(v_n - v_{n-1}) - i_{n-1}.
    g = 2.0 * farads_ / ctx.dt;
    i_src = g * v_prev + i_hist_;
  } else {
    // Backward Euler: i_n = (C/h)(v_n - v_{n-1}).
    g = farads_ / ctx.dt;
    i_src = g * v_prev;
  }
  mna.conductance(a_, b_, g);
  mna.current_into(a_, i_src);
  mna.current_into(b_, -i_src);
}

void Capacitor::commit_step(const StampContext& ctx) {
  if (!ctx.transient || ctx.dt <= 0.0) return;
  const double v = ctx.v(a_) - ctx.v(b_);
  const double v_prev = ctx.v_prev(a_) - ctx.v_prev(b_);
  if (ctx.integrator == Integrator::kTrapezoidal) {
    i_hist_ = (2.0 * farads_ / ctx.dt) * (v - v_prev) - i_hist_;
  } else {
    i_hist_ = (farads_ / ctx.dt) * (v - v_prev);
  }
}

// --------------------------------------------------------- VoltageSource

VoltageSource::VoltageSource(std::string name, NodeId pos, NodeId neg,
                             std::unique_ptr<Waveform> wave)
    : Element(std::move(name)), pos_(pos), neg_(neg), wave_(std::move(wave)) {
  require(wave_ != nullptr, "VoltageSource: waveform required");
}

VoltageSource::VoltageSource(std::string name, NodeId pos, NodeId neg,
                             double dc_volts)
    : VoltageSource(std::move(name), pos, neg,
                    std::make_unique<DcWaveform>(dc_volts)) {}

void VoltageSource::set_waveform(std::unique_ptr<Waveform> wave) {
  require(wave != nullptr, "VoltageSource::set_waveform: waveform required");
  wave_ = std::move(wave);
}

void VoltageSource::stamp(MnaStamper& mna, const StampContext& ctx) const {
  mna.voltage_source(branch_base(), pos_, neg_, wave_->at(ctx.time));
}

// --------------------------------------------------------- CurrentSource

CurrentSource::CurrentSource(std::string name, NodeId from, NodeId to,
                             std::unique_ptr<Waveform> wave)
    : Element(std::move(name)), from_(from), to_(to), wave_(std::move(wave)) {
  require(wave_ != nullptr, "CurrentSource: waveform required");
}

CurrentSource::CurrentSource(std::string name, NodeId from, NodeId to,
                             double dc_amps)
    : CurrentSource(std::move(name), from, to,
                    std::make_unique<DcWaveform>(dc_amps)) {}

void CurrentSource::set_waveform(std::unique_ptr<Waveform> wave) {
  require(wave != nullptr, "CurrentSource::set_waveform: waveform required");
  wave_ = std::move(wave);
}

void CurrentSource::stamp(MnaStamper& mna, const StampContext& ctx) const {
  const double i = wave_->at(ctx.time);
  mna.current_into(to_, i);
  mna.current_into(from_, -i);
}

// ----------------------------------------------------------- TimedSwitch

TimedSwitch::TimedSwitch(std::string name, NodeId a, NodeId b,
                         bool initially_closed,
                         std::vector<std::pair<double, bool>> events,
                         double r_on, double r_off)
    : Element(std::move(name)),
      a_(a),
      b_(b),
      initially_closed_(initially_closed),
      events_(std::move(events)),
      r_on_(r_on),
      r_off_(r_off) {
  require(r_on > 0.0 && r_off > r_on,
          "TimedSwitch: need 0 < r_on < r_off");
  for (std::size_t i = 1; i < events_.size(); ++i) {
    require(events_[i].first > events_[i - 1].first,
            "TimedSwitch: events must be in increasing time order");
  }
}

bool TimedSwitch::closed_at(double time) const {
  bool state = initially_closed_;
  for (const auto& [t, closed] : events_) {
    if (time >= t) {
      state = closed;
    } else {
      break;
    }
  }
  return state;
}

std::vector<double> TimedSwitch::breakpoints() const {
  std::vector<double> out;
  out.reserve(events_.size());
  for (const auto& [t, closed] : events_) {
    (void)closed;
    out.push_back(t);
  }
  return out;
}

void TimedSwitch::schedule(double time, bool closed) {
  require(events_.empty() || time > events_.back().first,
          "TimedSwitch::schedule: events must be appended in time order");
  events_.emplace_back(time, closed);
}

void TimedSwitch::stamp(MnaStamper& mna, const StampContext& ctx) const {
  const double r = closed_at(ctx.time) ? r_on_ : r_off_;
  mna.conductance(a_, b_, 1.0 / r);
}

// ---------------------------------------------------------------- Mosfet

Mosfet::Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
               Params params)
    : Element(std::move(name)), d_(drain), g_(gate), s_(source),
      params_(params) {
  require(params.beta > 0.0, "Mosfet: beta must be > 0");
  require(params.lambda >= 0.0, "Mosfet: lambda must be >= 0");
}

Mosfet::Operating Mosfet::evaluate(double vgs, double vds) const {
  Operating op;
  const double vov = vgs - params_.vth;
  if (vov <= 0.0) {
    // Cutoff: tiny leakage conductance keeps Newton well-conditioned.
    constexpr double kGleak = 1e-12;
    op.ids = kGleak * vds;
    op.gds = kGleak;
    op.gm = 0.0;
    return op;
  }
  if (vds < vov) {
    // Triode.
    op.ids = params_.beta * (vov * vds - 0.5 * vds * vds) *
             (1.0 + params_.lambda * vds);
    // Derivatives ignore the small lambda*vds cross term's curvature.
    op.gm = params_.beta * vds * (1.0 + params_.lambda * vds);
    op.gds = params_.beta * ((vov - vds) * (1.0 + params_.lambda * vds) +
                             (vov * vds - 0.5 * vds * vds) * params_.lambda);
  } else {
    // Saturation.
    op.ids = 0.5 * params_.beta * vov * vov * (1.0 + params_.lambda * vds);
    op.gm = params_.beta * vov * (1.0 + params_.lambda * vds);
    op.gds = 0.5 * params_.beta * vov * vov * params_.lambda;
    op.gds = std::max(op.gds, 1e-12);
  }
  return op;
}

void Mosfet::stamp(MnaStamper& mna, const StampContext& ctx) const {
  double vd = ctx.v(d_);
  double vg = ctx.v(g_);
  double vs = ctx.v(s_);
  NodeId d = d_, s = s_;
  bool swapped = false;
  if (vd < vs) {  // symmetric device: swap roles
    std::swap(vd, vs);
    std::swap(d, s);
    swapped = true;
  }
  (void)swapped;
  const double vgs = vg - vs;
  const double vds = vd - vs;
  const Operating op = evaluate(vgs, vds);
  // Linearized drain current: ids ~= Ieq + gm*vgs + gds*vds, flowing d->s.
  const double ieq = op.ids - op.gm * vgs - op.gds * vds;
  mna.conductance(d, s, op.gds);
  mna.vccs(d, s, g_, s, op.gm);
  // ieq leaves node d and enters node s.
  mna.current_into(d, -ieq);
  mna.current_into(s, ieq);
}

// ------------------------------------------------------------------ Pmos

Pmos::Pmos(std::string name, NodeId drain, NodeId gate, NodeId source,
           Params params)
    : Element(std::move(name)),
      d_(drain),
      g_(gate),
      s_(source),
      params_(params),
      mirror_("", kGround, kGround, kGround,
              Mosfet::Params{params.beta, params.vth, params.lambda}) {
  require(params.beta > 0.0, "Pmos: beta must be > 0");
  require(params.lambda >= 0.0, "Pmos: lambda must be >= 0");
}

void Pmos::stamp(MnaStamper& mna, const StampContext& ctx) const {
  // PMOS conducts when the gate sits below the source; evaluate the
  // mirrored NMOS on source-referenced, sign-flipped voltages.
  double vs = ctx.v(s_);
  double vd = ctx.v(d_);
  const double vg = ctx.v(g_);
  NodeId s = s_, d = d_;
  if (vs < vd) {  // symmetric device: the higher terminal acts as source
    std::swap(vs, vd);
    std::swap(s, d);
  }
  const double vsg = vs - vg;
  const double vsd = vs - vd;
  const Mosfet::Operating op = mirror_.evaluate(vsg, vsd);
  // Current i_sd flows from s to d: i = Ieq + gm (vs - vg) + gds (vs - vd).
  const double ieq = op.ids - op.gm * vsg - op.gds * vsd;
  mna.conductance(s, d, op.gds);
  mna.vccs(s, d, s, g_, op.gm);
  mna.current_into(s, -ieq);
  mna.current_into(d, ieq);
}

// ------------------------------------------------------------ MtjElement

MtjElement::MtjElement(std::string name, NodeId a, NodeId b,
                       const RiModel& model, MtjState state)
    : Element(std::move(name)), a_(a), b_(b), model_(model.clone()),
      state_(state),
      r_zero_p_(model_->resistance(MtjState::kParallel, Ampere(0.0)).value()),
      r_zero_ap_(
          model_->resistance(MtjState::kAntiParallel, Ampere(0.0)).value()) {}

MtjElement::MtjElement(const MtjElement& other)
    : Element(other.name()),
      a_(other.a_),
      b_(other.b_),
      model_(other.model_->clone()),
      state_(other.state_),
      r_zero_p_(other.r_zero_p_),
      r_zero_ap_(other.r_zero_ap_) {}

double MtjElement::current_for_voltage(double v) const {
  const double v_mag = std::fabs(v);
  if (v_mag == 0.0) return 0.0;
  // Solve i * R(i) = v_mag for i >= 0 by damped Newton; v(i) is strictly
  // increasing for all physical R-I models (droop < R).
  double i = v_mag / r_zero();
  for (int iter = 0; iter < 80; ++iter) {
    const double r = model_->resistance(state_, Ampere(i)).value();
    const double f = i * r - v_mag;
    // dv/di = R + i * dR/di, via a small relative finite difference.
    const double h = std::max(1e-12, 1e-6 * i);
    const double r2 = model_->resistance(state_, Ampere(i + h)).value();
    const double dvdi = r + i * (r2 - r) / h;
    if (dvdi <= 0.0) break;  // beyond model validity; stop refining
    const double step = f / dvdi;
    i -= step;
    if (i < 0.0) i = 0.0;
    if (std::fabs(step) < 1e-15 * (1.0 + i)) break;
  }
  return v >= 0.0 ? i : -i;
}

void MtjElement::stamp(MnaStamper& mna, const StampContext& ctx) const {
  const double v0 = ctx.v(a_) - ctx.v(b_);
  const double i0 = current_for_voltage(v0);
  // Small-signal conductance at the iterate via finite difference.
  const double dv = std::max(1e-9, 1e-6 * std::fabs(v0));
  const double i1 = current_for_voltage(v0 + dv);
  double g = (i1 - i0) / dv;
  if (!(g > 0.0) || !std::isfinite(g)) {
    g = 1.0 / r_zero();
  }
  const double ieq = i0 - g * v0;  // current leaving a at zero excursion
  mna.conductance(a_, b_, g);
  mna.current_into(a_, -ieq);
  mna.current_into(b_, ieq);
}

}  // namespace sttram::spice
