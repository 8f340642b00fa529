#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file result.hpp
/// What one benchmark run reports: named metrics with units, the checked
/// operation counts behind `attempted` / `failed`, and the one-line JSON
/// result the benchmark prints last.

namespace perfbench {

/// Median of `values` (0 for an empty list).
double Median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in emission order; Set on an existing name overwrites it.
class MetricSet {
 public:
  void Set(std::string_view name, double value, std::string_view unit);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Check outcome of one group of operations (one pass of a workload): each
/// operation is one Simulate, one audit or one campaign leg, and fails when
/// any expectation tied to it fails.
class PassChecks {
 public:
  explicit PassChecks(std::size_t ops) : failed_(ops, false) {}

  /// Fails operation `op` when `ok` is false.
  void Expect(bool ok, std::size_t op, const std::string& what);
  /// Fails every operation of the pass when `ok` is false.
  void ExpectAll(bool ok, const std::string& what);

  std::size_t ops() const { return failed_.size(); }
  std::size_t failed() const;
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::vector<bool> failed_;
  std::vector<std::string> messages_;
};

/// Attempted / failed operation totals across a run.
class CheckLog {
 public:
  void Add(const PassChecks& pass);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return attempted_ > 0 && failed_ == 0; }
  /// Distinct failure messages, first seen first (for stderr).
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// The result line:
///   {"correct": true, "attempted": N, "failed": 0,
///    "metrics": {"<name>": {"value": <v>, "unit": "<unit>"}, ...}}
/// Values keep every significant digit (%.17g).
std::string ResultLine(const CheckLog& checks, const MetricSet& metrics);

}  // namespace perfbench
