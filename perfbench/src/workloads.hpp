#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/vrl_system.hpp"
#include "result.hpp"
#include "spans.hpp"
#include "telemetry/metrics.hpp"

/// \file workloads.hpp
/// The benchmark's four workloads (README.md says why each exists and which
/// layers it bypasses) and the layer probes of the traced run.
///
/// A workload is built from a seed (Setup, timed as `setup_s`) and then
/// replayed pass after pass.  On the host the passes form a closed loop —
/// the next starts when the previous returns; inside a pass every trace is
/// an open-loop arrival schedule in simulated time.

namespace perfbench {

/// Name and unit of one reported metric.
struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Metrics of a traced run (`--trace 1`), in emission order.  A metric of a
/// layer the workload bypasses reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();
/// The four workload names.
const std::vector<std::string>& WorkloadNames();

/// Simulated work of one pass — deterministic for a fixed seed.
struct PassCounts {
  std::uint64_t requests = 0;       ///< Reads + writes serviced.
  std::uint64_t ticks = 0;          ///< Refresh ticks (controller or campaign).
  std::uint64_t commands = 0;       ///< Commands logged and audited.
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t full_refreshes = 0;
  std::uint64_t partial_refreshes = 0;
  std::uint64_t latency_cycles = 0;  ///< Sum of request latencies.
  std::uint64_t campaign_refreshes = 0;
};

struct PassResult {
  PassResult() : checks(0) {}

  PassChecks checks;
  /// Simulated statistics a repeated pass must reproduce bit-for-bit.
  std::vector<std::uint64_t> fingerprint;
  PassCounts counts;
  double wall_s = 0.0;  ///< The whole pass.
  double sim_s = 0.0;   ///< Inside the simulation calls only.
  /// Telemetry of the pass when it ran with a recorder.
  vrl::telemetry::MetricsSnapshot telemetry;
};

/// How to run one pass.
struct PassOptions {
  /// Records a span around each library call when non-null.
  SpanRecorder* spans = nullptr;
  /// Operation id of those spans.
  std::uint64_t op = 0;
  /// Runs a parallel driver (RunEvaluationSuite, RunResilienceComparison)
  /// as its public serial parts, so the spans see each layer; other
  /// workloads ignore it.
  bool decomposed = false;
  /// Attaches a telemetry recorder to every simulation so the pass reports
  /// deferral and stall counters.
  bool counting = false;
  /// Worker threads of a parallel driver.  Timed passes use one: the
  /// host's memory system is shared, and one worker keeps both the pass
  /// time and the peak RSS steady.
  std::size_t workers = 1;
};

/// What the layer probes may consult about the traced run.
struct ProbeContext {
  /// A pass run with telemetry attached (deferral and stall counters).
  const PassResult& counted;
  /// Traced passes recorded so far (the spans named after library calls).
  std::size_t traced_passes = 0;
  /// Median wall time of the normal pass run with `workers` threads; 0 when
  /// the workload has no parallel driver.
  double makespan_s = 0.0;
  std::size_t workers = 1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the system and the inputs from `seed`, replacing any previous
  /// set-up.  Everything timed as `setup_s` happens here.
  virtual void Setup(std::uint64_t seed) = 0;

  /// One pass (see PassOptions).
  virtual PassResult Pass(const PassOptions& options) = 0;

  /// True when the normal pass runs a parallel driver.
  virtual bool parallel() const { return false; }

  /// Layer probes of the traced run: isolated calls into single layers on
  /// this workload's system and inputs, recorded into `spans`, reduced into
  /// per-layer metrics.  Each probe takes the next operation id from `op`.
  virtual void Probe(SpanRecorder& spans, std::uint64_t& op,
                     const ProbeContext& ctx, MetricSet& out) = 0;

  const vrl::core::VrlSystem& system() const { return *system_; }

 protected:
  std::unique_ptr<vrl::core::VrlSystem> system_;
};

/// Builds a workload by name; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name);

/// Per-layer costs of building a VrlSystem, measured by replaying its
/// set-up through the public retention / model calls (model build, profile
/// generation, binning, MPRSF).  Fills `retention.*` and `model.build_s`.
void ProbeSetupLayers(const vrl::core::VrlConfig& config, SpanRecorder& spans,
                      std::uint64_t op, MetricSet& out);

}  // namespace perfbench
