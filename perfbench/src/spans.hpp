#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

/// \file spans.hpp
/// In-memory span recorder of the benchmark's traced mode.  Spans are
/// recorded by the benchmark itself, around each call into a library layer,
/// on the benchmark's own thread; nothing inside the library is touched.

namespace perfbench {

/// One recorded span.  Times are host nanoseconds since the recorder was
/// created; `parent` is the index of the enclosing span (-1 for a root);
/// `op` groups the spans of one timed operation (one pass of a workload or
/// one probe); `units` is the work the span did (records, requests,
/// commands, ticks), used to turn self time into a per-unit cost.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t op = 0;
  std::uint64_t units = 0;
};

/// Self time, inclusive time and work of every span sharing one name.
struct SpanTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t units = 0;
  std::uint64_t count = 0;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the span).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// SelfTimes summed by span name, with the spans' units and count.
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span under the innermost open span; returns its index.
  int Begin(std::string_view name, std::uint64_t op);
  /// Closes span `id` (the innermost open one) and records its units.
  void End(int id, std::uint64_t units = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON document.
  void WriteJson(const std::string& path) const;

 private:
  /// Host nanoseconds since construction.
  std::int64_t Now() const;

  std::int64_t origin_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder records nothing, so untraced passes run the
/// same code with one pointer compare per call site.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name, std::uint64_t op)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->Begin(name, op)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(id_, units_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_units(std::uint64_t units) { units_ = units; }

 private:
  SpanRecorder* recorder_;
  int id_;
  std::uint64_t units_ = 0;
};

}  // namespace perfbench
