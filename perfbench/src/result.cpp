#include "result.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

void MetricSet::Set(std::string_view name, double value,
                    std::string_view unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = std::string(unit);
      return;
    }
  }
  metrics_.push_back({std::string(name), value, std::string(unit)});
}

void PassChecks::Expect(bool ok, std::size_t op, const std::string& what) {
  if (ok) {
    return;
  }
  failed_.at(op) = true;
  messages_.push_back(what);
}

void PassChecks::ExpectAll(bool ok, const std::string& what) {
  if (ok) {
    return;
  }
  std::fill(failed_.begin(), failed_.end(), true);
  messages_.push_back(what);
}

std::size_t PassChecks::failed() const {
  return static_cast<std::size_t>(
      std::count(failed_.begin(), failed_.end(), true));
}

void CheckLog::Add(const PassChecks& pass) {
  attempted_ += pass.ops();
  failed_ += pass.failed();
  for (const std::string& m : pass.messages()) {
    if (std::find(messages_.begin(), messages_.end(), m) == messages_.end()) {
      messages_.push_back(m);
    }
  }
}

std::string ResultLine(const CheckLog& checks, const MetricSet& metrics) {
  std::string line = "{\"correct\": ";
  line += checks.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(checks.attempted());
  line += ", \"failed\": " + std::to_string(checks.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.metrics()) {
    char value[64];
    // JSON has no NaN/Inf; a non-finite measurement is reported as 0.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    line += first ? "" : ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  line += "}}";
  return line;
}

}  // namespace perfbench
