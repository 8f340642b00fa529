#pragma once

#include "common/technology.hpp"

/// \file postsensing.hpp
/// §2.3 of the paper: four-phase model of the post-sensing delay.
///
/// Once the sense amplifier is enabled it (1) builds an output difference
/// under saturation currents until a PMOS turns on (t1, Eq. 9), (2) resolves
/// through positive feedback (t2, Eq. 10 — logarithmic in the initial
/// bitline difference dVbl(τpre)), (3) drives the bitline pair to the rails
/// (t3, Eq. 11), and (4) replenishes the cell through the access transistor
/// with time constant Rpost*Cpost (Eq. 12).
///
/// Phase 4 is where partial refresh lives: truncating τpost truncates the
/// exponential tail of Eq. 12, trading restored charge for latency.
///
/// Evaluation cost: everything that does not depend on the developed signal
/// (Idsat10, t1, t3, the t2 log-argument numerator and Rpost*Cpost) is
/// computed once, at construction, by the same expressions in the same
/// order, so each restore evaluates one log and one exp.

namespace vrl::model {

class PostSensingModel {
 public:
  explicit PostSensingModel(const TechnologyParams& tech);

  /// Saturation current of the latch input devices (Eq. 9's Idsat10) [A].
  double SenseSaturationCurrent() const { return sense_sat_current_; }

  /// Phase 1 delay t1 (Eq. 9) [s].
  double T1() const { return t1_; }

  /// Phase 2 delay t2 (Eq. 10) [s]; larger when the developed bitline
  /// difference `dv_bl` is smaller.  `dv_bl` must be positive.
  double T2(double dv_bl) const;

  /// Phase 3 delay t3 (Eq. 11) [s].
  double T3() const { return t3_; }

  /// Sum t1 + t2 + t3 for a given developed bitline difference [s].
  double SensingDelay(double dv_bl) const;

  /// Rpost = Rbl + ron [Ohm] and Cpost = Cs + Cbl + 2Cbb + Cbw [F].
  double Rpost() const;
  double Cpost() const;

  /// Cell voltage after a post-sensing window of τpost seconds (Eq. 12),
  /// for a cell whose bitline is driven to Vdd (a stored '1').
  ///
  /// `v_start` is the cell voltage at the end of pre-sensing and `dv_bl`
  /// the developed bitline difference entering the sense amplifier.  If
  /// τpost <= t1+t2+t3, no restoration happens and v_start is returned.
  double RestoredVoltage(double v_start, double dv_bl, double tau_post_s) const;

  /// Inverse of RestoredVoltage: τpost needed to reach `v_target` [s].
  /// \throws vrl::NumericalError if the target is unreachable (>= Vdd).
  double TimeToRestore(double v_start, double dv_bl, double v_target) const;

 private:
  TechnologyParams tech_;
  double sense_sat_current_ = 0.0;
  double t1_ = 0.0;
  double t3_ = 0.0;
  /// Eq. 10's log argument times dVbl: (1/Vtp)*2*sqrt(Idsat10/beta_n)*
  /// (Vdd - Vtp - Veq), left to right as T2 evaluated it.
  double t2_arg_numerator_ = 0.0;
  double t2_scale_ = 0.0;  ///< Cbl / gm_eff.
  double rc_post_ = 0.0;   ///< Rpost * Cpost.
};

}  // namespace vrl::model
