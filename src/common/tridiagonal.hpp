#pragma once

#include <cstddef>
#include <vector>

/// \file tridiagonal.hpp
/// Thomas-algorithm solver for tridiagonal linear systems.
///
/// The paper's pre-sensing model (Eq. 8) couples each bitline's sense voltage
/// to its two neighbours through the bitline-to-bitline parasitic Cbb,
/// producing the system  K * Vsense = K1 * Lself  where K is tridiagonal with
/// unit diagonal and -K2 off-diagonals.  For N bitlines this solves in O(N)
/// instead of the O(N^3) dense inverse written in the paper.

namespace vrl {

/// A tridiagonal system  A x = d  with
///   A[i][i]   = diag[i]
///   A[i][i-1] = lower[i-1]
///   A[i][i+1] = upper[i]
/// lower and upper have size n-1; diag and rhs have size n.
struct TridiagonalSystem {
  std::vector<double> lower;
  std::vector<double> diag;
  std::vector<double> upper;
  std::vector<double> rhs;
};

/// Solves the system with the Thomas algorithm.
///
/// \throws vrl::NumericalError if the sizes are inconsistent or a pivot
/// underflows (the system is singular or not diagonally dominant enough).
std::vector<double> SolveTridiagonal(const TridiagonalSystem& system);

/// Thomas factorisation of the paper's Eq. 8 coupling matrix (I - k2*T) of
/// order n: unit diagonal, -k2 on both off-diagonals.  The elimination
/// pivots and the normalised super-diagonal c' depend only on k2 and n, so
/// one factorisation serves every right-hand side.
///
/// Every solve performs the floating-point operations of SolveTridiagonal on
/// the equivalent TridiagonalSystem, operand for operand and in the same
/// order (pivot = 1 - (-k2)*c', d' = (rhs - (-k2)*d'_prev) / pivot), so the
/// results are bit-identical to it, not merely close.
class CouplingFactorization {
 public:
  CouplingFactorization() = default;

  /// \throws vrl::NumericalError if a pivot underflows (|k2| too close to
  /// 1/2 for the matrix to stay diagonally dominant).
  CouplingFactorization(double k2, std::size_t n);

  std::size_t size() const { return pivot_.size(); }

  /// Solves (I - k2*T) x = rhs.  rhs.size() must equal size().
  std::vector<double> Solve(const std::vector<double>& rhs) const;

  /// The forward-sweep value d'[end - 1] over rows [0, end) — the part of a
  /// solve that does not depend on rhs[end..n).  0 when end == 0.
  double ForwardPrefix(const std::vector<double>& rhs, std::size_t end) const;

  /// x[k] of the solve whose right-hand side is `rhs` with rhs[k] replaced
  /// by `rhs_k`, given prefix == ForwardPrefix(rhs, k).  Runs only the
  /// forward sweep from k and the back-substitution down to k, in a
  /// per-thread scratch buffer (no heap allocation once it has grown).
  double SolveAt(std::size_t k, double prefix, double rhs_k,
                 const std::vector<double>& rhs) const;

 private:
  /// One forward-sweep step: d'[i] from d'[i-1] (ignored at i == 0).
  double Forward(std::size_t i, double d_prev, double rhs_i) const {
    return i == 0 ? rhs_i / pivot_[0]
                  : (rhs_i - neg_k2_ * d_prev) / pivot_[i];
  }

  double neg_k2_ = 0.0;          ///< The off-diagonal entry, -k2.
  std::vector<double> pivot_;    ///< Elimination pivots, size n.
  std::vector<double> c_prime_;  ///< c'[i] for i < n-1; c'[n-1] unused.
};

/// Convenience for the paper's Eq. 8: solves (I - K2*offdiag) v = k1 * lself
/// through a CouplingFactorization.
std::vector<double> SolveCouplingSystem(double k1, double k2,
                                        const std::vector<double>& lself);

}  // namespace vrl
