#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;  // end of the union measured so far
    for (const auto& [start, end] : kids) {
      const std::int64_t a = std::max(start, cursor);
      const std::int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max<std::int64_t>(0, hi - lo - covered);
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    t.self_ns += self[i];
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.units += spans[i].units;
    t.count += 1;
  }
  return totals;
}

SpanRecorder::SpanRecorder() : origin_ns_(SteadyNs()) {}

std::int64_t SpanRecorder::Now() const { return SteadyNs() - origin_ns_; }

int SpanRecorder::Begin(std::string_view name, std::uint64_t op) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_ns = Now();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id, std::uint64_t units) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = Now();
  span.units = units;
}

void SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("SpanRecorder: cannot write '" + path + "'");
  }
  const std::vector<std::int64_t> self = SelfTimes(spans_);
  out << "{\"format\":\"perfbench.spans.v1\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << self[i] << ",\"units\":" << s.units << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
