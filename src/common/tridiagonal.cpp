#include "common/tridiagonal.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/error.hpp"

namespace vrl {

std::vector<double> SolveTridiagonal(const TridiagonalSystem& system) {
  const std::size_t n = system.diag.size();
  if (n == 0) {
    return {};
  }
  if (system.rhs.size() != n || system.lower.size() + 1 != n ||
      system.upper.size() + 1 != n) {
    throw NumericalError("SolveTridiagonal: inconsistent system dimensions");
  }

  std::vector<double> c_prime(n, 0.0);
  std::vector<double> d_prime(n, 0.0);

  double pivot = system.diag[0];
  if (std::abs(pivot) < 1e-300) {
    throw NumericalError("SolveTridiagonal: zero pivot at row 0");
  }
  if (n > 1) {
    c_prime[0] = system.upper[0] / pivot;
  }
  d_prime[0] = system.rhs[0] / pivot;

  for (std::size_t i = 1; i < n; ++i) {
    pivot = system.diag[i] - system.lower[i - 1] * c_prime[i - 1];
    if (std::abs(pivot) < 1e-300) {
      throw NumericalError("SolveTridiagonal: zero pivot during elimination");
    }
    if (i + 1 < n) {
      c_prime[i] = system.upper[i] / pivot;
    }
    d_prime[i] = (system.rhs[i] - system.lower[i - 1] * d_prime[i - 1]) / pivot;
  }

  std::vector<double> x(n);
  x[n - 1] = d_prime[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    x[i] = d_prime[i] - c_prime[i] * x[i + 1];
  }
  return x;
}

CouplingFactorization::CouplingFactorization(double k2, std::size_t n)
    : neg_k2_(-k2), pivot_(n, 1.0), c_prime_(n, 0.0) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      pivot_[i] = 1.0 - neg_k2_ * c_prime_[i - 1];
      if (std::abs(pivot_[i]) < 1e-300) {
        throw NumericalError(
            "CouplingFactorization: zero pivot during elimination");
      }
    }
    if (i + 1 < n) {
      c_prime_[i] = neg_k2_ / pivot_[i];
    }
    // c'[i] is a fixed function of c'[i-1] alone, so once it repeats
    // exactly every later pivot and c' repeats too (for the paper's small
    // k2 within a few rows): fill instead of dividing.
    if (i > 0 && i + 1 < n && c_prime_[i] == c_prime_[i - 1]) {
      std::fill(pivot_.begin() + static_cast<std::ptrdiff_t>(i + 1),
                pivot_.end(), pivot_[i]);
      std::fill(c_prime_.begin() + static_cast<std::ptrdiff_t>(i + 1),
                c_prime_.end() - 1, c_prime_[i]);
      break;
    }
  }
}

std::vector<double> CouplingFactorization::Solve(
    const std::vector<double>& rhs) const {
  const std::size_t n = size();
  if (rhs.size() != n) {
    throw NumericalError("CouplingFactorization: rhs size mismatch");
  }
  // x holds d' until the back-substitution overwrites it in place.
  std::vector<double> x(n);
  double d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    d = Forward(i, d, rhs[i]);
    x[i] = d;
  }
  for (std::size_t i = n; i-- > 1;) {
    x[i - 1] = x[i - 1] - c_prime_[i - 1] * x[i];
  }
  return x;
}

double CouplingFactorization::ForwardPrefix(const std::vector<double>& rhs,
                                            std::size_t end) const {
  if (end > size() || rhs.size() != size()) {
    throw NumericalError("CouplingFactorization: prefix out of range");
  }
  double d = 0.0;
  for (std::size_t i = 0; i < end; ++i) {
    d = Forward(i, d, rhs[i]);
  }
  return d;
}

double CouplingFactorization::SolveAt(std::size_t k, double prefix,
                                      double rhs_k,
                                      const std::vector<double>& rhs) const {
  const std::size_t n = size();
  if (k >= n || rhs.size() != n) {
    throw NumericalError("CouplingFactorization: solve row out of range");
  }
  // d'[k..n) only; the model is shared across threads, so the scratch is
  // per thread rather than a member.
  thread_local std::vector<double> d;
  d.resize(n - k);
  d[0] = Forward(k, prefix, rhs_k);
  for (std::size_t i = k + 1; i < n; ++i) {
    d[i - k] = Forward(i, d[i - k - 1], rhs[i]);
  }
  double x = d[n - 1 - k];
  for (std::size_t i = n - 1; i-- > k;) {
    x = d[i - k] - c_prime_[i] * x;
  }
  return x;
}

std::vector<double> SolveCouplingSystem(double k1, double k2,
                                        const std::vector<double>& lself) {
  std::vector<double> rhs(lself.size());
  for (std::size_t i = 0; i < lself.size(); ++i) {
    rhs[i] = k1 * lself[i];
  }
  return CouplingFactorization(k2, lself.size()).Solve(rhs);
}

}  // namespace vrl
