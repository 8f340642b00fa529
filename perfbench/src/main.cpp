// The repository benchmark driver: one workload, one seed, one run.
//
//   vrl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <spans.json>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// records spans around every library call, runs the layer probes and
// reports the per-layer metrics.  The last line of stdout is the JSON
// result (result.hpp); progress and failed checks go to stderr.
// perfbench/run.py builds this binary and forwards its own arguments.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "checks.hpp"
#include "result.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::CheckLog;
using perfbench::Median;
using perfbench::MetricSet;
using perfbench::PassResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// Set-ups per run; `setup_s` is their median.
constexpr int kSetups = 5;
/// Passes per untraced run at the least, however short `--seconds` is.
constexpr std::size_t kMinPasses = 3;

/// Workers of the traced run's parallel-efficiency passes: at most three
/// (the campaign has three legs), never more than the host has.
std::size_t EfficiencyWorkers() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 3);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set of this process image, from VmHWM in
/// /proc/self/status.  (getrusage's ru_maxrss would also count the parent's
/// resident set inherited across fork + exec.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

/// Adds a pass's checks, plus the repeat check against the first pass of
/// the same kind, to the run's log.
void Record(PassResult& pass, const PassResult& first, CheckLog& log) {
  perfbench::CheckRepeat(first.fingerprint, pass.fingerprint, pass.checks);
  log.Add(pass.checks);
}

void RunUntraced(perfbench::Workload& workload, const Args& args,
                 CheckLog& log, MetricSet& out) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    workload.Setup(args.seed);
    setup_s.push_back(SecondsSince(start));
  }
  // The first pass warms caches and lazy state; it is checked, not timed.
  const PassResult first = workload.Pass({});
  log.Add(first.checks);
  std::vector<double> run_s;
  const auto start = Clock::now();
  while (run_s.size() < kMinPasses || SecondsSince(start) < args.seconds) {
    PassResult pass = workload.Pass({});
    Record(pass, first, log);
    run_s.push_back(pass.wall_s);
  }
  std::cerr << "perfbench: " << args.workload << " pass seconds:";
  for (const double s : run_s) {
    std::cerr << " " << s;
  }
  std::cerr << "\n";
  out.Set("setup_s", Median(setup_s), "s");
  out.Set("run_s", Median(run_s), "s");
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
}

void RunTraced(perfbench::Workload& workload, const Args& args,
               CheckLog& log, MetricSet& out) {
  for (const auto& spec : perfbench::PerLayerMetrics()) {
    out.Set(spec.name, 0.0, spec.unit);
  }
  perfbench::SpanRecorder spans;
  std::uint64_t op = 0;
  {
    perfbench::ScopedSpan span(&spans, "core.system_build", op);
    workload.Setup(args.seed);
  }
  perfbench::ProbeSetupLayers(workload.system().config(), spans, ++op, out);

  // Interleaved: the decomposed pass untraced and traced (the tracing
  // overhead), and the normal pass of a parallel driver (its makespan).
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> ticks_per_s;
  std::vector<double> makespan_s;
  PassResult first_decomposed;
  PassResult first_normal;
  std::size_t traced_passes = 0;
  const std::size_t workers = EfficiencyWorkers();
  const auto start = Clock::now();
  while (traced_passes < 2 || SecondsSince(start) < 0.5 * args.seconds) {
    PassResult plain = workload.Pass({nullptr, ++op, true});
    if (traced_passes == 0) {
      first_decomposed = plain;
    }
    Record(plain, first_decomposed, log);
    untraced_s.push_back(plain.wall_s);
    {
      perfbench::ScopedSpan root(&spans, "pass", ++op);
      PassResult traced = workload.Pass({&spans, op, true});
      Record(traced, first_decomposed, log);
      traced_s.push_back(traced.wall_s);
      ticks_per_s.push_back(static_cast<double>(traced.counts.ticks) /
                            traced.sim_s);
    }
    ++traced_passes;
    if (workload.parallel()) {
      PassResult normal = workload.Pass({nullptr, ++op, false, false, workers});
      if (makespan_s.empty()) {
        first_normal = normal;
      }
      Record(normal, first_normal, log);
      makespan_s.push_back(normal.wall_s);
    }
  }
  PassResult counted = workload.Pass({nullptr, ++op, true, true});
  Record(counted, first_decomposed, log);

  const perfbench::ProbeContext ctx{counted, traced_passes,
                                    Median(makespan_s), workers};
  workload.Probe(spans, op, ctx, out);
  out.Set("trace_overhead_ratio", Median(traced_s) / Median(untraced_s),
          "ratio");
  out.Set("ticks_per_s", Median(ticks_per_s), "1/s");
  if (!args.trace_out.empty()) {
    spans.WriteJson(args.trace_out);
  }
  std::cerr << "perfbench: " << args.workload << " traced " << traced_passes
            << " passes, " << spans.spans().size() << " spans\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = Parse(argc, argv);
    auto workload = perfbench::MakeWorkload(args.workload);
    if (!workload) {
      std::cerr << "perfbench: unknown workload '" << args.workload
                << "'; known:";
      for (const std::string& name : perfbench::WorkloadNames()) {
        std::cerr << " " << name;
      }
      std::cerr << "\n";
      return 2;
    }
    CheckLog log;
    MetricSet metrics;
    if (args.trace) {
      RunTraced(*workload, args, log, metrics);
    } else {
      RunUntraced(*workload, args, log, metrics);
    }
    for (const std::string& message : log.messages()) {
      std::cerr << "perfbench: FAILED " << message << "\n";
    }
    std::cout << perfbench::ResultLine(log, metrics) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
