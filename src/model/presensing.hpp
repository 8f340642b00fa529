#pragma once

#include <array>
#include <vector>

#include "common/data_pattern.hpp"
#include "common/technology.hpp"
#include "common/tridiagonal.hpp"

/// \file presensing.hpp
/// §2.2 of the paper: charge-sharing (pre-sensing) model with
/// neighbouring-bitline coupling.
///
/// After wordline activation each cell shares charge with its bitline.  The
/// transient follows Eq. 3 (double-exponential U(t) with Rpre = ron1 + Rbl);
/// the asymptotic sense voltage on bitline i obeys the coupled system of
/// Eq. 7, whose closed form (Eq. 8) is a tridiagonal solve:
///
///   (I - K2*T) Vsense = K1 * Lself
///
/// where T has ones on the two off-diagonals.  We use the signed value of
/// Lself (positive when the cell pulls its bitline up, negative when down)
/// so opposite-data neighbours reduce each other's margin — this is what
/// makes the model data-pattern dependent.
///
/// Evaluation cost: the constructor factorises (I - K2*T) once and builds
/// the five tracked-cell probe arrays of WorstTrackedSenseVoltage together
/// with their charge-independent forward-sweep prefixes, so a tracked solve
/// touches only the rows from the tracked cell onward.

namespace vrl::model {

using vrl::DataPattern;

class PreSensingModel {
 public:
  explicit PreSensingModel(const TechnologyParams& tech);

  /// Coupling coefficients of Eq. 7.
  double K1() const;
  double K2() const;

  /// Rpre = ron1 + Rbl [Ohm].
  double Rpre() const;

  /// U(t) of Eq. 3 (fraction of the sense swing still undeveloped), with
  /// t measured from wordline activation (the paper's t - τeq).
  double U(double t_s) const;

  /// Signed asymptotic sense voltages for an explicit vector of initial
  /// cell voltages (one per bitline; stored value and decay folded into the
  /// voltage).  Bitlines are assumed equalized to Veq at activation.
  std::vector<double> SenseVoltages(
      const std::vector<double>& cell_voltages) const;

  /// Signed sense voltages for a data pattern over tech.columns bitlines,
  /// with every "1" cell at `charge_fraction` of full level and every "0"
  /// cell at Vss.
  std::vector<double> SenseVoltagesForPattern(DataPattern pattern,
                                              double charge_fraction) const;

  /// The smallest sense-voltage magnitude across the array for a pattern —
  /// the cell that limits sensing.
  double WorstSenseVoltage(DataPattern pattern, double charge_fraction) const;

  /// Worst |Vsense| across the paper's four calibration patterns.
  double WorstSenseVoltageAllPatterns(double charge_fraction) const;

  /// Signed sense voltage of one *tracked* cell storing a '1' at
  /// `charge_fraction` of full level, surrounded by fully-charged
  /// neighbours following `pattern`.  Negative means the cell would be
  /// sensed as a '0' (data loss).
  double TrackedSenseVoltage(DataPattern pattern, double charge_fraction) const;

  /// Minimum (most pessimistic, signed) TrackedSenseVoltage over the four
  /// calibration patterns and over the tracked cell's parity (even/odd
  /// position, which flips its neighbours' data under the alternating
  /// pattern).
  double WorstTrackedSenseVoltage(double charge_fraction) const;

  /// Developed bitline swing at time t after activation: |dVbl(t)| =
  /// |vsense| * (1 - U(t))   [Eq. 5].
  double DevelopedVoltage(double vsense, double t_s) const;

  /// Uncoupled asymptotic swing Cs/(Cs+Cbl) * |Vs - Vbl|  [Eq. 4], used by
  /// tests and for comparison against the single-cell baseline.
  double UncoupledSenseVoltage(double cell_voltage) const;

 private:
  /// One tracked-cell probe array: the Eq. 8 right-hand side K1*Lself of
  /// the fully-charged neighbours (the tracked cell's own entry is replaced
  /// per call) and the forward-sweep prefix d'[mid - 1], which does not
  /// depend on the tracked cell's charge.
  struct TrackedArray {
    std::vector<double> rhs;
    double prefix = 0.0;
  };

  /// Neighbours follow `pattern` evaluated at bitline index i + offset.
  TrackedArray MakeTrackedArray(DataPattern pattern, std::size_t offset) const;
  double SolveTracked(const TrackedArray& array, double charge_fraction) const;

  TechnologyParams tech_;
  double denom_;  ///< Cs + Cbl + 2Cbb + Cbw.
  std::size_t mid_;  ///< Tracked cell position, tech.columns / 2.
  CouplingFactorization coupling_;
  /// Indexed by DataPattern value; the last entry is the alternating
  /// pattern shifted by one bitline (the tracked cell's other parity).
  std::array<TrackedArray, kAllDataPatterns.size() + 1> tracked_;
};

}  // namespace vrl::model
