#include "model/postsensing.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace vrl::model {

PostSensingModel::PostSensingModel(const TechnologyParams& tech)
    : tech_(tech) {
  tech_.Validate();

  // Eq. 9:
  //   Idsat10 = beta_n (Veq - Vthn)^2 * (1 - 0.75 / (1 + (Vdd-Vthn)/(Veq-Vthn)))^2
  const double beta_n = tech_.BetaN(tech_.wl_sense);
  const double vov = tech_.Veq() - tech_.vt_n;
  if (vov <= 0.0) {
    throw ConfigError("PostSensingModel: latch input device is off at Veq");
  }
  const double ratio = (tech_.vdd - tech_.vt_n) / vov;
  const double shape = 1.0 - 0.75 / (1.0 + ratio);
  sense_sat_current_ = beta_n * vov * vov * shape * shape;

  // Eq. 9: t1 = Cbl * Vtp / Idsat10
  t1_ = tech_.Cbl() * tech_.vt_p / sense_sat_current_;

  // Eq. 10 (see T2), up to the division by dVbl(τpre).
  t2_arg_numerator_ = (1.0 / tech_.vt_p) * 2.0 *
                      std::sqrt(sense_sat_current_ / beta_n) *
                      (tech_.vdd - tech_.vt_p - tech_.Veq());
  t2_scale_ = tech_.Cbl() / tech_.gm_eff;

  // Eq. 11: t3 = Rpost * Cbl * ln(Veq / Vresidue).  The rail-driving path in
  // phase 3 goes through the sense-amplifier drivers, not the access
  // transistor, so its resistance is Rbl + ron_sense (the paper overloads
  // "ron" for both phases; we disambiguate).
  if (tech_.v_residue <= 0.0 || tech_.v_residue >= tech_.Veq()) {
    throw ConfigError("PostSensingModel: v_residue out of range");
  }
  const double r_rail = tech_.Rbl() + tech_.ron_sense;
  t3_ = r_rail * tech_.Cbl() * std::log(tech_.Veq() / tech_.v_residue);

  rc_post_ = Rpost() * Cpost();
}

double PostSensingModel::T2(double dv_bl) const {
  if (dv_bl <= 0.0) {
    throw ConfigError("PostSensingModel::T2: dv_bl must be positive");
  }
  // Eq. 10:
  //   t2 = (Cbl/gme) * ln( (1/Vtp) * 2*sqrt(Idsat10/beta_n)
  //                         * (Vdd - Vtp - Veq) / dVbl(τpre) )
  const double arg = t2_arg_numerator_ / dv_bl;
  // A very large swing makes the log argument dip below 1; the latch then
  // resolves within phase 1 and no extra time is needed.
  if (arg <= 1.0) {
    return 0.0;
  }
  return t2_scale_ * std::log(arg);
}

double PostSensingModel::SensingDelay(double dv_bl) const {
  return T1() + T2(dv_bl) + T3();
}

double PostSensingModel::Rpost() const {
  // The restore path into the cell: bitline resistance plus the access
  // transistor ON resistance.
  return tech_.Rbl() + tech_.ron_access;
}

double PostSensingModel::Cpost() const {
  // Eq. 12: Cpost = Cs + Cbl + 2Cbb + Cbw
  return tech_.cs + tech_.Cbl() + 2.0 * tech_.Cbb() + tech_.Cbw();
}

double PostSensingModel::RestoredVoltage(double v_start, double dv_bl,
                                         double tau_post_s) const {
  const double t123 = SensingDelay(dv_bl);
  if (tau_post_s <= t123) {
    return v_start;
  }
  // Eq. 12: Vs(τpost) = Vs(τpre) + Va * (1 - exp(-(τpost - t1-t2-t3)/(Rpost*Cpost)))
  // with Va = Vdd - Vs(τpre).
  const double va = tech_.vdd - v_start;
  const double tail = tau_post_s - t123;
  return v_start + va * (1.0 - std::exp(-tail / rc_post_));
}

double PostSensingModel::TimeToRestore(double v_start, double dv_bl,
                                       double v_target) const {
  if (v_target <= v_start) {
    return 0.0;
  }
  if (v_target >= tech_.vdd) {
    throw NumericalError(
        "PostSensingModel::TimeToRestore: target at or above Vdd is "
        "asymptotically unreachable");
  }
  const double va = tech_.vdd - v_start;
  // Invert Eq. 12: tail = -Rpost*Cpost * ln(1 - (v_target - v_start)/Va)
  const double frac = (v_target - v_start) / va;
  const double tail = -rc_post_ * std::log(1.0 - frac);
  return SensingDelay(dv_bl) + tail;
}

}  // namespace vrl::model
