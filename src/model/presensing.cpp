#include "model/presensing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace vrl::model {

PreSensingModel::PreSensingModel(const TechnologyParams& tech) : tech_(tech) {
  tech_.Validate();
  denom_ = tech_.cs + tech_.Cbl() + 2.0 * tech_.Cbb() + tech_.Cbw();
  mid_ = tech_.columns / 2;
  coupling_ = CouplingFactorization(K2(), tech_.columns);
  for (const DataPattern pattern : kAllDataPatterns) {
    tracked_[static_cast<std::size_t>(pattern)] = MakeTrackedArray(pattern, 0);
  }
  tracked_.back() = MakeTrackedArray(DataPattern::kAlternating, 1);
}

PreSensingModel::TrackedArray PreSensingModel::MakeTrackedArray(
    DataPattern pattern, std::size_t offset) const {
  TrackedArray array;
  array.rhs.resize(tech_.columns);
  const double k1 = K1();
  const double veq = tech_.Veq();
  for (std::size_t i = 0; i < array.rhs.size(); ++i) {
    const double cell = CellValue(pattern, i + offset) ? tech_.vdd : tech_.vss;
    array.rhs[i] = k1 * (cell - veq);
  }
  array.prefix = coupling_.ForwardPrefix(array.rhs, mid_);
  return array;
}

double PreSensingModel::SolveTracked(const TrackedArray& array,
                                     double charge_fraction) const {
  const double cell = tech_.vss + charge_fraction * (tech_.vdd - tech_.vss);
  return coupling_.SolveAt(mid_, array.prefix, K1() * (cell - tech_.Veq()),
                           array.rhs);
}

double PreSensingModel::K1() const { return tech_.cs / denom_; }

double PreSensingModel::K2() const { return tech_.Cbb() / denom_; }

double PreSensingModel::Rpre() const { return tech_.ron_access + tech_.Rbl(); }

double PreSensingModel::U(double t_s) const {
  if (t_s <= 0.0) {
    return 1.0;
  }
  // U(t) = [Cs*exp(-t/(Rpre*Cbl)) + Cbl*exp(-t/(Rpre*Cs))] / (Cs + Cbl)
  const double cs = tech_.cs;
  const double cbl = tech_.Cbl();
  const double rpre = Rpre();
  const double slow = cs * std::exp(-t_s / (rpre * cbl));
  const double fast = cbl * std::exp(-t_s / (rpre * cs));
  return (slow + fast) / (cs + cbl);
}

std::vector<double> PreSensingModel::SenseVoltages(
    const std::vector<double>& cell_voltages) const {
  if (cell_voltages.empty()) {
    throw ConfigError("PreSensingModel: no cells given");
  }
  std::vector<double> lself(cell_voltages.size());
  const double veq = tech_.Veq();
  for (std::size_t i = 0; i < cell_voltages.size(); ++i) {
    // Signed form of the paper's Lself_{i,j} = |Vs(τeq) - Vbl(τeq)|; the
    // sign carries the direction the bitline will move.
    lself[i] = cell_voltages[i] - veq;
  }
  return SolveCouplingSystem(K1(), K2(), lself);
}

std::vector<double> PreSensingModel::SenseVoltagesForPattern(
    DataPattern pattern, double charge_fraction) const {
  std::vector<double> cells(tech_.columns);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const bool one = CellValue(pattern, i);
    cells[i] = one ? tech_.vss + charge_fraction * (tech_.vdd - tech_.vss)
                   : tech_.vss;
  }
  return SenseVoltages(cells);
}

double PreSensingModel::WorstSenseVoltage(DataPattern pattern,
                                          double charge_fraction) const {
  const auto vs = SenseVoltagesForPattern(pattern, charge_fraction);
  double worst = std::numeric_limits<double>::max();
  for (const double v : vs) {
    worst = std::min(worst, std::abs(v));
  }
  return worst;
}

double PreSensingModel::WorstSenseVoltageAllPatterns(
    double charge_fraction) const {
  double worst = std::numeric_limits<double>::max();
  for (const DataPattern pattern : kAllDataPatterns) {
    worst = std::min(worst, WorstSenseVoltage(pattern, charge_fraction));
  }
  return worst;
}

double PreSensingModel::TrackedSenseVoltage(DataPattern pattern,
                                            double charge_fraction) const {
  return SolveTracked(tracked_[static_cast<std::size_t>(pattern)],
                      charge_fraction);
}

double PreSensingModel::WorstTrackedSenseVoltage(
    double charge_fraction) const {
  double worst = std::numeric_limits<double>::max();
  for (const DataPattern pattern : kAllDataPatterns) {
    worst = std::min(worst, TrackedSenseVoltage(pattern, charge_fraction));
  }
  // Flip the tracked cell's parity by probing with an offset pattern: under
  // the alternating pattern this swaps the neighbours' data (the
  // one-cell-shifted alternating array built at construction).
  worst = std::min(worst, SolveTracked(tracked_.back(), charge_fraction));
  return worst;
}

double PreSensingModel::DevelopedVoltage(double vsense, double t_s) const {
  return std::abs(vsense) * (1.0 - U(t_s));
}

double PreSensingModel::UncoupledSenseVoltage(double cell_voltage) const {
  const double cs = tech_.cs;
  const double cbl = tech_.Cbl();
  return cs / (cs + cbl) * std::abs(cell_voltage - tech_.Veq());
}

}  // namespace vrl::model
