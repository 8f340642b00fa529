// Self-test of the benchmark's own arithmetic and checks: span self time on
// a synthetic span tree, failure counting, and a deliberately violated
// expectation surfacing in the result line.  Exits 0 when every case holds.
//
//   .bench_build/perfbench/perfbench_selftest

#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "result.hpp"
#include "spans.hpp"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

perfbench::Span MakeSpan(const char* name, std::int64_t start,
                         std::int64_t end, int parent, std::uint64_t units) {
  perfbench::Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.units = units;
  return s;
}

void SelfTimeOnSyntheticTree() {
  // pass [0,100]
  //   sim   [10,40]   -> child audit [20,30]
  //   sim   [50,90]
  //   audit [85,95]   overlaps the second sim and is clipped by nothing
  // root self = 100 - |[10,40] u [50,95]| = 100 - 75 = 25
  const std::vector<perfbench::Span> spans = {
      MakeSpan("pass", 0, 100, -1, 0),   MakeSpan("sim", 10, 40, 0, 4),
      MakeSpan("audit", 20, 30, 1, 7),   MakeSpan("sim", 50, 90, 0, 6),
      MakeSpan("audit", 85, 95, 0, 3),
  };
  const auto self = perfbench::SelfTimes(spans);
  Expect(self.size() == 5, "one self time per span");
  Expect(self[0] == 25, "root self time subtracts the union of children");
  Expect(self[1] == 20, "child self time subtracts its own child");
  Expect(self[2] == 10 && self[3] == 40 && self[4] == 10, "leaf self times");

  const auto totals = perfbench::TotalsByName(spans);
  Expect(totals.at("sim").self_ns == 60 && totals.at("sim").units == 10 &&
             totals.at("sim").count == 2,
         "totals sum self time and units by name");
  Expect(totals.at("audit").self_ns == 20, "audit totals");
  Expect(totals.at("pass").total_ns == 100 && totals.at("sim").total_ns == 70,
         "totals sum inclusive time by name");

  // A child reaching past its parent is clipped to the parent's interval.
  const std::vector<perfbench::Span> clipped = {
      MakeSpan("a", 0, 10, -1, 0), MakeSpan("b", 5, 20, 0, 0)};
  Expect(perfbench::SelfTimes(clipped)[0] == 5, "child clipped to parent");
}

void RecorderNestsSpans() {
  perfbench::SpanRecorder rec;
  {
    perfbench::ScopedSpan outer(&rec, "outer", 1);
    perfbench::ScopedSpan inner(&rec, "inner", 1);
    inner.set_units(3);
  }
  Expect(rec.spans().size() == 2, "two spans recorded");
  Expect(rec.spans()[1].parent == 0, "inner span's parent is outer");
  Expect(rec.spans()[1].units == 3, "units recorded at close");
  Expect(rec.spans()[0].end_ns >= rec.spans()[1].end_ns,
         "outer closes after inner");
  perfbench::ScopedSpan none(nullptr, "ignored", 0);  // null recorder: no-op
}

vrl::core::WorkloadResult Entry(const char* name, double raidr, double vrl,
                                double vrl_access) {
  vrl::core::WorkloadResult r;
  r.workload = name;
  r.raidr_overhead = raidr;
  r.vrl_overhead = vrl;
  r.vrl_access_overhead = vrl_access;
  r.raidr_refresh_power_mw = 1.0;
  r.vrl_refresh_power_mw = 0.88;
  r.vrl_access_refresh_power_mw = 0.8;
  return r;
}

void ViolatedExpectationIsCounted() {
  perfbench::CheckLog log;
  perfbench::PassChecks good(6);
  perfbench::CheckFig4({Entry("a", 1.0, 0.76, 0.68), Entry("b", 1.0, 0.76, 0.68)},
                       {}, good);
  Expect(good.failed() == 0, "claims that hold fail nothing");
  log.Add(good);

  // Entry "b" breaks RAIDR > VRL > VRL-Access: its three operations fail.
  perfbench::PassChecks bad(6);
  perfbench::CheckFig4({Entry("a", 1.0, 0.76, 0.68), Entry("b", 1.0, 0.68, 0.76)},
                       {}, bad);
  Expect(bad.failed() == 3, "an unordered entry fails its three operations");
  log.Add(bad);
  Expect(log.attempted() == 12 && log.failed() == 3,
         "the log counts attempted and failed operations");
  Expect(!log.correct(), "a failed operation makes the run incorrect");

  perfbench::MetricSet metrics;
  metrics.Set("run_s", 1.5, "s");
  const std::string line = perfbench::ResultLine(log, metrics);
  Expect(line.find("\"correct\": false") != std::string::npos &&
             line.find("\"failed\": 3") != std::string::npos &&
             line.find("\"attempted\": 12") != std::string::npos,
         "the result line reports the failure: " + line);

  // A suite average outside its bound fails every operation.
  perfbench::PassChecks off(6);
  perfbench::Fig4Bounds tight;
  tight.vrl_hi = 0.5;
  perfbench::CheckFig4({Entry("a", 1.0, 0.76, 0.68), Entry("b", 1.0, 0.76, 0.68)},
                       tight, off);
  Expect(off.failed() == 6, "an average outside its bound fails all");

  // The resilience check guards the adaptive leg only.
  vrl::fault::CampaignReport jedec;
  jedec.refresh_busy_cycles = 100;
  vrl::fault::CampaignReport adaptive;
  adaptive.refresh_busy_cycles = 40;
  adaptive.unrecovered_failures = 1;
  perfbench::PassChecks legs(3);
  perfbench::CheckResilience(jedec, adaptive, legs);
  Expect(legs.failed() == 1, "data loss fails the adaptive leg");

  // A pass that does not repeat fails every operation.
  perfbench::PassChecks repeat(4);
  perfbench::CheckRepeat({1, 2, 3}, {1, 2, 4}, repeat);
  Expect(repeat.failed() == 4, "a non-repeating pass fails all");
}

void MedianAndDigits() {
  Expect(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  Expect(perfbench::Median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  perfbench::MetricSet m;
  m.Set("x", 0.1234567890123, "s");
  perfbench::CheckLog log;
  perfbench::PassChecks one(1);
  log.Add(one);
  const std::string line = perfbench::ResultLine(log, m);
  Expect(line.find("0.1234567890123") != std::string::npos,
         "values keep all their digits: " + line);
}

}  // namespace

int main() {
  SelfTimeOnSyntheticTree();
  RecorderNestsSpans();
  ViolatedExpectationIsCounted();
  MedianAndDigits();
  if (g_failures == 0) {
    std::printf("selftest: all cases passed\n");
  }
  return g_failures == 0 ? 0 : 1;
}
