#include "workloads.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <utility>

#include "checks.hpp"
#include "common/rng.hpp"
#include "core/experiments.hpp"
#include "dram/auditor.hpp"
#include "dram/bank.hpp"
#include "dram/scheduler.hpp"
#include "dram/topology.hpp"
#include "power/power_model.hpp"
#include "retention/distribution.hpp"
#include "retention/mprsf.hpp"
#include "retention/profile.hpp"
#include "retention/vrt.hpp"
#include "telemetry/recorder.hpp"
#include "trace/address.hpp"
#include "trace/synthetic.hpp"

namespace perfbench {

using vrl::Cycles;
using vrl::Rng;
namespace core = vrl::core;
namespace dram = vrl::dram;
namespace trace = vrl::trace;
namespace telemetry = vrl::telemetry;
using core::PolicyKind;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t Bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Trace seed = system seed ^ kTraceSalt, the derivation RunEvaluationSuite
/// uses, so the decomposed suite replays the suite's own traces.
constexpr std::uint64_t kTraceSalt = 0xABCD'1234ULL;

/// Keeps the result of a probe loop observable so it is not optimized out.
volatile double g_sink = 0.0;

/// Lower-case metric suffix of a policy ("vrl-access").
std::string PolicyToken(PolicyKind kind) {
  std::string name = core::PolicyName(kind);
  std::transform(name.begin(), name.end(), name.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return name;
}

/// Refresh ticks one controller run executes: every bank ticks at 0,
/// tREFI, ... up to the horizon.
std::uint64_t ControllerTicks(const core::VrlSystem& system, Cycles horizon) {
  return system.config().banks *
         (horizon / system.config().timing.t_refi + 1);
}

/// Ticks of one fault-campaign leg (same tick grid, one bank).
std::uint64_t CampaignTicks(const core::VrlSystem& system, std::size_t windows) {
  return system.HorizonForWindows(windows) / system.config().timing.t_refi + 1;
}

Cycles TotalLatency(const dram::SimulationStats& stats) {
  Cycles total = 0;
  for (const auto& bank : stats.per_bank) {
    total += bank.total_request_latency;
  }
  return total;
}

void Accumulate(const dram::SimulationStats& stats, PassCounts& counts,
                std::vector<std::uint64_t>& fingerprint) {
  const std::uint64_t requests = stats.TotalReads() + stats.TotalWrites();
  counts.requests += requests;
  counts.row_hits += stats.TotalRowHits();
  counts.row_misses += stats.TotalRowMisses();
  counts.full_refreshes += stats.TotalFullRefreshes();
  counts.partial_refreshes += stats.TotalPartialRefreshes();
  counts.latency_cycles += TotalLatency(stats);
  fingerprint.insert(
      fingerprint.end(),
      {stats.TotalReads(), stats.TotalWrites(), stats.TotalRowHits(),
       stats.TotalRowMisses(), stats.TotalActivations(),
       stats.TotalFullRefreshes(), stats.TotalPartialRefreshes(),
       stats.TotalRefreshBusyCycles(), TotalLatency(stats),
       stats.simulated_cycles});
}

void Accumulate(const vrl::fault::CampaignReport& report, PassCounts& counts,
                std::vector<std::uint64_t>& fingerprint) {
  counts.campaign_refreshes += report.refreshes;
  fingerprint.insert(fingerprint.end(),
                     {report.refreshes, report.partial_refreshes,
                      report.detected_failures, report.corrected_failures,
                      report.unrecovered_failures, report.refresh_busy_cycles,
                      report.simulated_cycles, Bits(report.min_margin)});
}

/// Requests arriving before `limit` (the input is arrival-sorted).
std::vector<dram::Request> Prefix(const std::vector<dram::Request>& requests,
                                  Cycles limit) {
  const auto end = std::lower_bound(
      requests.begin(), requests.end(), limit,
      [](const dram::Request& r, Cycles at) { return r.arrival < at; });
  return {requests.begin(), end};
}

std::vector<dram::Request> MakeRequests(
    const core::VrlSystem& system,
    const trace::SyntheticWorkloadParams& workload, Cycles horizon,
    std::uint64_t seed, SpanRecorder* spans, std::uint64_t op) {
  Rng rng(seed);
  std::vector<trace::TraceRecord> records;
  {
    ScopedSpan span(spans, "trace.generate", op);
    records = trace::GenerateTrace(workload, system.Geometry(), horizon, rng);
    span.set_units(records.size());
  }
  ScopedSpan span(spans, "trace.map", op);
  auto requests =
      trace::MapToRequests(records, trace::AddressMapper(system.Geometry()));
  span.set_units(requests.size());
  return requests;
}

SpanTotals Totals(const SpanRecorder& spans, const std::string& name) {
  const auto all = TotalsByName(spans.spans());
  const auto it = all.find(name);
  return it == all.end() ? SpanTotals{} : it->second;
}

double NsPerUnit(const SpanTotals& t) {
  return t.units == 0 ? 0.0
                      : static_cast<double>(t.self_ns) /
                            static_cast<double>(t.units);
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

std::uint64_t Counter(const telemetry::MetricsSnapshot& snapshot,
                      const std::string& name) {
  const auto it = snapshot.metrics.find(name);
  return it == snapshot.metrics.end() ? 0 : it->second.count;
}

/// Times `body` inside a span; returns the span's host seconds.
double TimedSpan(SpanRecorder& spans, const std::string& name,
                 std::uint64_t op, std::uint64_t units,
                 const std::function<void()>& body) {
  const auto start = Clock::now();
  {
    ScopedSpan span(&spans, name, op);
    body();
    span.set_units(units);
  }
  return SecondsSince(start);
}

// -- Probes shared by the workloads -----------------------------------------

/// GrantRefreshes per refresh tick for each policy, over two base windows
/// with no demand (the fault campaign's regime).
void ProbeGrants(const core::VrlSystem& system, SpanRecorder& spans,
                 std::uint64_t op, MetricSet& out) {
  const Cycles horizon = system.HorizonForWindows(2);
  const Cycles t_refi = system.config().timing.t_refi;
  for (const PolicyKind kind :
       {PolicyKind::kRaidr, PolicyKind::kVrl, PolicyKind::kVrlAccess,
        PolicyKind::kDarp, PolicyKind::kSarp}) {
    const std::string name = "probe.grant." + PolicyToken(kind);
    auto policy = system.MakePolicyFactory(kind)();
    std::uint64_t ops = 0;
    TimedSpan(spans, name, op, horizon / t_refi + 1, [&] {
      for (Cycles tick = 0; tick <= horizon; tick += t_refi) {
        dram::RefreshGrantContext ctx;
        ctx.now = tick;
        ctx.demand.now = tick;
        ops += dram::GrantRefreshes(*policy, ctx).size();
      }
    });
    g_sink = g_sink + static_cast<double>(ops);
    out.Set("dram.grant.ns_per_tick." + PolicyToken(kind),
            NsPerUnit(Totals(spans, name)), "ns");
  }
}

/// RefreshModel::ApplyRefresh over a sweep of pre-refresh charge levels.
void ProbeApplyRefresh(const core::VrlSystem& system, SpanRecorder& spans,
                       std::uint64_t op, MetricSet& out) {
  constexpr std::size_t kCalls = 4000;
  const auto& model = system.refresh_model();
  const double tau = system.PartialTimings().tau_post_s;
  double sum = 0.0;
  TimedSpan(spans, "probe.apply_refresh", op, kCalls, [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      const double before = 0.55 + 0.4 * static_cast<double>(i % 1000) / 1000.0;
      sum += model.ApplyRefresh(before, tau).fraction_after;
    }
  });
  g_sink = g_sink + sum;
  out.Set("model.apply_refresh_ns",
          NsPerUnit(Totals(spans, "probe.apply_refresh")), "ns");
}

/// Recorder on vs off over the same call, interleaved; and the cost of
/// snapshotting the recorder the "on" call filled.
void ProbeTelemetry(const std::function<void(telemetry::Recorder*)>& call,
                    SpanRecorder& spans, std::uint64_t op, MetricSet& out) {
  constexpr int kPairs = 3;
  std::vector<double> off;
  std::vector<double> on;
  std::vector<double> snapshot_ms;
  for (int i = 0; i < kPairs; ++i) {
    off.push_back(TimedSpan(spans, "probe.telemetry_off", op, 1,
                            [&] { call(nullptr); }));
    telemetry::Recorder recorder;
    on.push_back(TimedSpan(spans, "probe.telemetry_on", op, 1,
                           [&] { call(&recorder); }));
    snapshot_ms.push_back(
        1e3 * TimedSpan(spans, "probe.telemetry_snapshot", op, 1, [&] {
          g_sink = g_sink +
                   static_cast<double>(recorder.Snapshot().metrics.size());
        }));
  }
  out.Set("telemetry.overhead_ratio", Median(on) / Median(off), "ratio");
  out.Set("telemetry.snapshot_ms", Median(snapshot_ms), "ms");
}

/// What the controller probes need of a workload.
struct ControllerProbeInput {
  const core::VrlSystem* system = nullptr;
  /// Policies of one pass, one entry per Simulate call.
  std::vector<PolicyKind> pass_policies;
  Cycles horizon = 0;
  /// A representative input, short enough to command-log.
  std::vector<dram::Request> probe_requests;
  Cycles probe_horizon = 0;
  const char* path = "flat";  ///< "flat" or "hier" run loop.
};

/// Idle vs loaded Simulate, the standalone ConstraintEngine replay, command
/// logging, the scheduler pick and the telemetry recorder, all on the
/// workload's own system and traffic.
void ProbeController(const ControllerProbeInput& in, SpanRecorder& spans,
                     std::uint64_t op, const ProbeContext& ctx,
                     MetricSet& out) {
  const core::VrlSystem& system = *in.system;
  const std::string path = in.path;
  constexpr int kReps = 3;

  // Idle Simulate per policy of the pass, over the pass's horizon: the
  // tick path alone.
  std::vector<PolicyKind> distinct;
  for (const PolicyKind kind : in.pass_policies) {
    if (std::find(distinct.begin(), distinct.end(), kind) == distinct.end()) {
      distinct.push_back(kind);
    }
  }
  const std::uint64_t ticks = ControllerTicks(system, in.horizon);
  for (const PolicyKind kind : distinct) {
    for (int r = 0; r < kReps; ++r) {
      TimedSpan(spans, "probe.idle." + path, op, ticks,
                [&] { system.Simulate(kind, {}, in.horizon); });
    }
  }
  out.Set("dram." + path + ".ns_per_tick",
          NsPerUnit(Totals(spans, "probe.idle." + path)), "ns");
  const SpanTotals loaded = Totals(spans, "dram.simulate." + path);
  out.Set("requests_per_s",
          loaded.self_ns > 0 ? 1e9 * static_cast<double>(loaded.units) /
                                   static_cast<double>(loaded.self_ns)
                             : 0.0,
          "1/s");

  // Per-request cost: the probe input loaded (unlogged) minus the same
  // policy idle over the same horizon, per request.
  const PolicyKind kind = in.pass_policies.front();
  std::vector<double> idle;
  std::vector<double> unlogged;
  for (int r = 0; r < kReps; ++r) {
    idle.push_back(TimedSpan(spans, "probe.idle_probe_horizon", op, 0, [&] {
      system.Simulate(kind, {}, in.probe_horizon);
    }));
    unlogged.push_back(TimedSpan(spans, "probe.simulate_unlogged", op, 0, [&] {
      system.Simulate(kind, in.probe_requests, in.probe_horizon);
    }));
  }
  const double probe_requests = static_cast<double>(in.probe_requests.size());
  out.Set("dram." + path + ".ns_per_request",
          probe_requests > 0
              ? 1e9 * std::max(0.0, Median(unlogged) - Median(idle)) /
                    probe_requests
              : 0.0,
          "ns");

  // Command logging: the same Simulate with and without the log.
  std::vector<double> logged;
  dram::CommandLog log;
  for (int r = 0; r < kReps; ++r) {
    log.Clear();
    logged.push_back(TimedSpan(spans, "probe.simulate_logged", op, 0, [&] {
      system.Simulate(kind, in.probe_requests, in.probe_horizon, nullptr,
                      &log);
    }));
  }
  const double commands = static_cast<double>(log.size());
  out.Set("dram.audit_log.ns_per_command",
          commands > 0
              ? 1e9 * std::max(0.0, Median(logged) - Median(unlogged)) /
                    commands
              : 0.0,
          "ns");

  // The logged stream replayed through a standalone ConstraintEngine.  On
  // a flat table every constraint is zero, so this is the identity floor.
  const dram::TimingTable table = system.config().TimingTableFor();
  const dram::TimingParams& timing = table.core;
  for (int r = 0; r < kReps; ++r) {
    dram::ConstraintEngine engine(table);
    Cycles sum = 0;
    TimedSpan(spans, "probe.engine", op, log.size(), [&] {
      for (const dram::Command& cmd : log.commands()) {
        switch (cmd.kind) {
          case dram::CommandKind::kActivate: {
            const Cycles at = engine.EarliestActivate(cmd.addr, cmd.at);
            engine.RecordActivate(cmd.addr, at);
            sum += at;
            break;
          }
          case dram::CommandKind::kRead:
          case dram::CommandKind::kWrite: {
            const Cycles col = engine.EarliestColumn(cmd.addr, cmd.at);
            engine.RecordColumn(cmd.addr, col);
            const Cycles burst =
                engine.EarliestBurst(cmd.addr, col + timing.t_cas);
            engine.RecordBurst(cmd.addr, burst, burst + timing.t_bus);
            sum += burst;
            break;
          }
          case dram::CommandKind::kRefresh:
            if (cmd.granularity == dram::RefreshGranularity::kPerBank) {
              const Cycles at = engine.EarliestActivate(cmd.addr, cmd.at);
              engine.RecordActivate(cmd.addr, at);
              sum += at;
            }
            break;
          case dram::CommandKind::kPrecharge:
            break;
        }
      }
    });
    g_sink = g_sink + static_cast<double>(sum);
  }
  out.Set("dram.engine.ns_per_command", NsPerUnit(Totals(spans, "probe.engine")),
          "ns");

  // Scheduler pick over a pending queue as deep as the workload's mean
  // queue (Little's law over the counted pass: summed latency / time).
  const double bank_time = static_cast<double>(in.pass_policies.size()) *
                           static_cast<double>(in.horizon) *
                           static_cast<double>(system.config().banks);
  const auto depth = static_cast<std::size_t>(std::clamp(
      std::round(static_cast<double>(ctx.counted.counts.latency_cycles) /
                 bank_time),
      1.0, 4096.0));
  std::vector<dram::Request> pending;
  for (const dram::Request& r : in.probe_requests) {
    if (r.bank == 0 && pending.size() < depth + 1) {
      pending.push_back(r);
    }
  }
  if (pending.size() >= 2) {
    const auto& cfg = system.config();
    dram::Bank bank(cfg.tech.rows, cfg.timing, cfg.page_policy,
                    cfg.subarrays);
    bank.ServiceRequest(pending.front());  // opens a row, as in steady state
    pending.erase(pending.begin());
    constexpr std::size_t kPicks = 200000;
    std::size_t picked = 0;
    TimedSpan(spans, "probe.scheduler", op, kPicks, [&] {
      for (std::size_t i = 0; i < kPicks; ++i) {
        picked += dram::SelectNextRequest(cfg.scheduler, pending, bank);
      }
    });
    g_sink = g_sink + static_cast<double>(picked);
  }
  out.Set("dram.scheduler.ns_per_pick",
          NsPerUnit(Totals(spans, "probe.scheduler")), "ns");
  out.Set("dram.scheduler.queue_depth", static_cast<double>(depth), "count");

  ProbeTelemetry(
      [&](telemetry::Recorder* recorder) {
        system.Simulate(kind, in.probe_requests, in.probe_horizon, recorder);
      },
      spans, op, out);
}

/// The exact counts of a counted controller pass.
void ControllerCounts(const PassResult& counted, MetricSet& out) {
  const PassCounts& c = counted.counts;
  out.Set("dram.requests", static_cast<double>(c.requests), "count");
  out.Set("dram.ticks", static_cast<double>(c.ticks), "count");
  out.Set("dram.commands", static_cast<double>(c.commands), "count");
  out.Set("dram.row_hit_ratio", Ratio(c.row_hits, c.row_hits + c.row_misses),
          "ratio");
  out.Set("dram.partial_share",
          Ratio(c.partial_refreshes, c.partial_refreshes + c.full_refreshes),
          "ratio");
  out.Set("dram.refresh.deferred_ratio",
          Ratio(Counter(counted.telemetry, "dram.refresh.deferred"),
                Counter(counted.telemetry, "dram.refresh.proposals")),
          "ratio");
  std::uint64_t stall_cycles = 0;
  for (const char* name :
       {"dram.hier.trrd_stall_cycles", "dram.hier.tfaw_stall_cycles",
        "dram.hier.tccd_stall_cycles", "dram.hier.trtrs_stall_cycles",
        "dram.hier.bus_stall_cycles"}) {
    stall_cycles += Counter(counted.telemetry, name);
  }
  out.Set("dram.hier.stall_cycles_per_request",
          Ratio(stall_cycles, c.requests), "cycles");
  out.Set("dram.sim_latency_cycles", Ratio(c.latency_cycles, c.requests),
          "cycles");
}

/// Per-layer costs of the pass's trace generation (fig4-flat generates
/// traces inside the timed pass; the others in set-up).
void TraceLayerMetrics(const SpanRecorder& spans, MetricSet& out) {
  out.Set("trace.generate_ns_per_record",
          NsPerUnit(Totals(spans, "trace.generate")), "ns");
  out.Set("trace.map_ns_per_request", NsPerUnit(Totals(spans, "trace.map")),
          "ns");
}

// -- fig4-flat -----------------------------------------------------------------

/// The paper's Fig. 4 grid: RunEvaluationSuite on the default flat 8-bank
/// system, telemetry attached as bench/fig4_refresh_overhead does.
class Fig4Flat final : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    core::VrlConfig config;
    config.seed = seed;
    system_ = std::make_unique<core::VrlSystem>(config);
  }

  bool parallel() const override { return true; }

  PassResult Pass(const PassOptions& opt) override {
    SpanRecorder* const spans = opt.spans;
    const std::uint64_t op = opt.op;
    PassResult pass;
    const auto start = Clock::now();
    const Cycles horizon = system_->HorizonForWindows(kWindows);
    std::vector<core::WorkloadResult> results;
    if (!opt.decomposed) {
      telemetry::Recorder recorder;
      core::ExperimentOptions options;
      options.windows = kWindows;
      options.threads = opt.workers;
      options.telemetry = &recorder;
      {
        ScopedSpan span(spans, "core.evaluation_suite", op);
        results = core::RunEvaluationSuite(*system_, options);
      }
      pass.telemetry = recorder.Snapshot();
      pass.counts.requests = Counter(pass.telemetry, "dram.reads") +
                             Counter(pass.telemetry, "dram.writes");
    } else {
      results = DecomposedSuite(spans, op, horizon, opt.counting, pass);
    }
    pass.wall_s = SecondsSince(start);
    pass.sim_s = pass.wall_s;
    pass.counts.ticks = 3 * results.size() * ControllerTicks(*system_, horizon);
    pass.checks = PassChecks(3 * results.size());
    CheckFig4(results, Fig4Bounds{}, pass.checks);
    for (const auto& r : results) {
      pass.fingerprint.insert(
          pass.fingerprint.end(),
          {Bits(r.raidr_overhead), Bits(r.vrl_overhead),
           Bits(r.vrl_access_overhead), Bits(r.raidr_refresh_power_mw),
           Bits(r.vrl_refresh_power_mw), Bits(r.vrl_access_refresh_power_mw)});
    }
    pass.fingerprint.push_back(pass.counts.requests);
    return pass;
  }

  void Probe(SpanRecorder& spans, std::uint64_t& op, const ProbeContext& ctx,
             MetricSet& out) override {
    TraceLayerMetrics(spans, out);
    ControllerCounts(ctx.counted, out);
    // Serial task time: the decomposed pass's per-entry spans.
    const double serial_s =
        1e-9 * static_cast<double>(Totals(spans, "core.workload").total_ns) /
        static_cast<double>(std::max<std::size_t>(1, ctx.traced_passes));
    const double workers = static_cast<double>(
        std::min(ctx.workers, trace::EvaluationSuite().size()));
    out.Set("common.parallel_efficiency",
            ctx.makespan_s > 0 ? serial_s / (workers * ctx.makespan_s) : 0.0,
            "ratio");

    ControllerProbeInput in;
    in.system = system_.get();
    in.horizon = system_->HorizonForWindows(kWindows);
    for (std::size_t i = 0; i < trace::EvaluationSuite().size(); ++i) {
      in.pass_policies.insert(in.pass_policies.end(), std::begin(kPolicies),
                              std::end(kPolicies));
    }
    in.probe_horizon = in.horizon;
    in.probe_requests =
        MakeRequests(*system_, trace::SuiteWorkload("canneal"), in.horizon,
                     system_->config().seed ^ kTraceSalt, nullptr, 0);
    in.path = "flat";
    ProbeController(in, spans, ++op, ctx, out);
    ProbeGrants(*system_, spans, ++op, out);
    ProbeApplyRefresh(*system_, spans, ++op, out);
  }

 private:
  static constexpr std::size_t kWindows = 2;
  static constexpr PolicyKind kPolicies[] = {
      PolicyKind::kRaidr, PolicyKind::kVrl, PolicyKind::kVrlAccess};

  /// RunEvaluationSuite's work as its serial public parts: per entry,
  /// GenerateTrace, MapToRequests and one Simulate per policy, each with a
  /// per-entry recorder like the suite's shards.  `counting` merges the
  /// shards into the pass's telemetry.
  std::vector<core::WorkloadResult> DecomposedSuite(SpanRecorder* spans,
                                                    std::uint64_t op,
                                                    Cycles horizon,
                                                    bool counting,
                                                    PassResult& pass) {
    const vrl::power::PowerModel power({}, system_->config().tech.clock_period_s);
    telemetry::Recorder merged;
    std::vector<core::WorkloadResult> results;
    for (const auto& workload : trace::EvaluationSuite()) {
      ScopedSpan entry(spans, "core.workload", op);
      telemetry::Recorder shard;
      const auto requests =
          MakeRequests(*system_, workload, horizon,
                       system_->config().seed ^ kTraceSalt, spans, op);
      core::WorkloadResult r;
      r.workload = workload.name;
      std::vector<dram::SimulationStats> stats;
      for (const PolicyKind kind : kPolicies) {
        ScopedSpan span(spans, "dram.simulate.flat", op);
        stats.push_back(system_->Simulate(kind, requests, horizon, &shard));
        span.set_units(stats.back().TotalReads() + stats.back().TotalWrites());
      }
      r.raidr_overhead = stats[0].RefreshOverheadPerBank();
      r.vrl_overhead = stats[1].RefreshOverheadPerBank();
      r.vrl_access_overhead = stats[2].RefreshOverheadPerBank();
      r.raidr_refresh_power_mw = power.Compute(stats[0]).refresh_power_mw;
      r.vrl_refresh_power_mw = power.Compute(stats[1]).refresh_power_mw;
      r.vrl_access_refresh_power_mw = power.Compute(stats[2]).refresh_power_mw;
      std::vector<std::uint64_t> unused;
      for (const auto& s : stats) {
        Accumulate(s, pass.counts, unused);
      }
      results.push_back(r);
      if (counting) {
        merged.Absorb(shard);
      }
    }
    if (counting) {
      pass.telemetry = merged.Snapshot();
    }
    return results;
  }
};

// -- ddr4-audited --------------------------------------------------------------

/// The hierarchical DDR4_2400 preset on random, streaming and write-heavy
/// traffic, every simulation command-logged and audited.
class Ddr4Audited final : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    core::VrlConfig config;
    config.ApplyPreset(dram::TimingPreset::kDdr4_2400);
    config.seed = seed;
    system_ = std::make_unique<core::VrlSystem>(config);
    auditor_ = std::make_unique<dram::TimingAuditor>(config.TimingTableFor());
    horizon_ = system_->HorizonForWindows(1) / 8;
    inputs_.clear();
    for (const char* name : kTraces) {
      inputs_.push_back(MakeRequests(*system_, trace::SuiteWorkload(name),
                                     horizon_, seed ^ kTraceSalt, nullptr,
                                     0));
    }
  }

  PassResult Pass(const PassOptions& opt) override {
    SpanRecorder* const spans = opt.spans;
    const std::uint64_t op = opt.op;
    PassResult pass;
    pass.checks = PassChecks(2 * inputs_.size() * std::size(kPolicies));
    const auto start = Clock::now();
    telemetry::Recorder recorder;
    std::size_t index = 0;
    for (const auto& requests : inputs_) {
      for (const PolicyKind kind : kPolicies) {
        dram::CommandLog log;
        const auto sim_start = Clock::now();
        dram::SimulationStats stats;
        {
          ScopedSpan span(spans, "dram.simulate.hier", op);
          stats = system_->Simulate(kind, requests, horizon_,
                                    opt.counting ? &recorder : nullptr, &log);
          span.set_units(stats.TotalReads() + stats.TotalWrites());
        }
        pass.sim_s += SecondsSince(sim_start);
        dram::AuditReport report;
        {
          ScopedSpan span(spans, "dram.audit", op);
          report = auditor_->Audit(log);
          span.set_units(log.size());
        }
        pass.checks.Expect(stats.TotalReads() + stats.TotalWrites() ==
                               requests.size(),
                           index, "ddr4: not every request was serviced");
        CheckAudit(report, log.size(), index + 1, pass.checks);
        index += 2;
        Accumulate(stats, pass.counts, pass.fingerprint);
        pass.fingerprint.push_back(log.size());
        pass.counts.commands += log.size();
        pass.counts.ticks += ControllerTicks(*system_, horizon_);
      }
    }
    pass.wall_s = SecondsSince(start);
    if (opt.counting) {
      pass.telemetry = recorder.Snapshot();
    }
    return pass;
  }

  void Probe(SpanRecorder& spans, std::uint64_t& op, const ProbeContext& ctx,
             MetricSet& out) override {
    ControllerCounts(ctx.counted, out);
    const SpanTotals audit = Totals(spans, "dram.audit");
    out.Set("dram.auditor.ns_per_command", NsPerUnit(audit), "ns");
    out.Set("commands_audited_per_s",
            audit.self_ns > 0 ? 1e9 * static_cast<double>(audit.units) /
                                    static_cast<double>(audit.self_ns)
                              : 0.0,
            "1/s");
    ControllerProbeInput in;
    in.system = system_.get();
    in.horizon = horizon_;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      in.pass_policies.insert(in.pass_policies.end(), std::begin(kPolicies),
                              std::end(kPolicies));
    }
    in.probe_requests = inputs_.front();
    in.probe_horizon = horizon_;
    in.path = "hier";
    ProbeController(in, spans, ++op, ctx, out);
    ProbeGrants(*system_, spans, ++op, out);
    ProbeApplyRefresh(*system_, spans, ++op, out);
    // Trace generation happens in set-up here; time it on one input.
    MakeRequests(*system_, trace::SuiteWorkload(kTraces[0]), horizon_,
                 system_->config().seed ^ kTraceSalt, &spans, ++op);
    TraceLayerMetrics(spans, out);
  }

 private:
  static constexpr const char* kTraces[] = {"canneal", "streamcluster",
                                            "bgsave"};
  static constexpr PolicyKind kPolicies[] = {
      PolicyKind::kRaidr, PolicyKind::kVrlAccess, PolicyKind::kDarp,
      PolicyKind::kSarp};

  std::unique_ptr<dram::TimingAuditor> auditor_;
  Cycles horizon_ = 0;
  std::vector<std::vector<dram::Request>> inputs_;
};

// -- saturated-frfcfs ----------------------------------------------------------

/// latency_impact's `stress` mix at an arrival rate where FR-FCFS queues
/// form but stay bounded (FCFS backlogs without bound at this rate).
class SaturatedFrFcfs final : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    core::VrlConfig config;
    config.banks = 4;
    config.scheduler = dram::SchedulerKind::kFrFcfs;
    config.seed = seed;
    system_ = std::make_unique<core::VrlSystem>(config);
    horizon_ = system_->HorizonForWindows(1) / 2;
    requests_ = MakeRequests(*system_, Stress(), horizon_,
                             seed ^ kStressSalt, nullptr, 0);
  }

  PassResult Pass(const PassOptions& opt) override {
    SpanRecorder* const spans = opt.spans;
    const std::uint64_t op = opt.op;
    PassResult pass;
    pass.checks = PassChecks(std::size(kPolicies));
    const auto start = Clock::now();
    telemetry::Recorder recorder;
    for (std::size_t i = 0; i < std::size(kPolicies); ++i) {
      const auto sim_start = Clock::now();
      dram::SimulationStats stats;
      {
        ScopedSpan span(spans, "dram.simulate.flat", op);
        stats = system_->Simulate(kPolicies[i], requests_, horizon_,
                                  opt.counting ? &recorder : nullptr);
        span.set_units(stats.TotalReads() + stats.TotalWrites());
      }
      pass.sim_s += SecondsSince(sim_start);
      CheckSaturated(stats, requests_.size(), horizon_, BacklogBounds{}, i,
                     pass.checks);
      Accumulate(stats, pass.counts, pass.fingerprint);
      pass.counts.ticks += ControllerTicks(*system_, horizon_);
    }
    pass.wall_s = SecondsSince(start);
    if (opt.counting) {
      pass.telemetry = recorder.Snapshot();
    }
    return pass;
  }

  void Probe(SpanRecorder& spans, std::uint64_t& op, const ProbeContext& ctx,
             MetricSet& out) override {
    ControllerCounts(ctx.counted, out);
    ControllerProbeInput in;
    in.system = system_.get();
    in.horizon = horizon_;
    in.pass_policies.assign(std::begin(kPolicies), std::end(kPolicies));
    // An eighth of the horizon keeps the command log small.
    in.probe_horizon = horizon_ / 8;
    in.probe_requests = Prefix(requests_, in.probe_horizon);
    in.path = "flat";
    ProbeController(in, spans, ++op, ctx, out);
    ProbeGrants(*system_, spans, ++op, out);
    ProbeApplyRefresh(*system_, spans, ++op, out);
    MakeRequests(*system_, Stress(), in.probe_horizon,
                 system_->config().seed ^ kStressSalt, &spans, ++op);
    TraceLayerMetrics(spans, out);
  }

 private:
  static constexpr PolicyKind kPolicies[] = {
      PolicyKind::kRaidr, PolicyKind::kVrlAccess, PolicyKind::kDarp};
  static constexpr std::uint64_t kStressSalt = 0x57E5'5ULL;

  /// bench/latency_impact's stress mix (8 streams, 30% writes, 90%
  /// sequential) at a mean gap of 8 cycles: ~240-cycle mean latency and
  /// ~29% row hits under FR-FCFS on 4 banks.
  static trace::SyntheticWorkloadParams Stress() {
    trace::SyntheticWorkloadParams stress;
    stress.name = "stress";
    stress.mean_gap_cycles = 8.0;
    stress.footprint_fraction = 0.3;
    stress.sequential_prob = 0.9;
    stress.write_fraction = 0.3;
    stress.streams = 8;
    stress.seed_salt = 99;
    return stress;
  }

  Cycles horizon_ = 0;
  std::vector<dram::Request> requests_;
};

// -- fault-campaign ------------------------------------------------------------

/// RunResilienceComparison(VRL-Access) under VRT telegraph noise: the
/// JEDEC, plain and adaptive legs, with no demand traffic.
class FaultCampaign final : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    core::VrlConfig config;
    config.seed = seed;
    system_ = std::make_unique<core::VrlSystem>(config);
    fault_seed_ = seed ^ 0x5EED'F417ULL;
  }

  bool parallel() const override { return true; }

  PassResult Pass(const PassOptions& opt) override {
    SpanRecorder* const spans = opt.spans;
    const std::uint64_t op = opt.op;
    PassResult pass;
    pass.checks = PassChecks(3);
    const auto start = Clock::now();
    const core::ExperimentOptions options = Options(kWindows, opt.workers);
    const vrl::retention::VrtParams vrt;
    core::ResilienceResult result;
    if (!opt.decomposed) {
      ScopedSpan span(spans, "core.resilience_comparison", op);
      result = core::RunResilienceComparison(
          *system_, PolicyKind::kVrlAccess, vrt, options);
    } else {
      const auto legs = core::ResilienceLegs(PolicyKind::kVrlAccess);
      vrl::fault::CampaignReport* const outs[] = {
          &result.jedec, &result.plain, &result.adaptive};
      for (std::size_t i = 0; i < legs.size(); ++i) {
        ScopedSpan span(spans, std::string("fault.leg.") + kLegNames[i], op);
        *outs[i] = core::RunResilienceLeg(*system_, legs[i], vrt, options,
                                          nullptr);
        span.set_units(CampaignTicks(*system_, kWindows));
      }
    }
    pass.wall_s = SecondsSince(start);
    pass.sim_s = pass.wall_s;
    pass.counts.ticks = 3 * CampaignTicks(*system_, kWindows);
    CheckResilience(result.jedec, result.adaptive, pass.checks);
    for (const auto* report : {&result.jedec, &result.plain, &result.adaptive}) {
      Accumulate(*report, pass.counts, pass.fingerprint);
    }
    return pass;
  }

  void Probe(SpanRecorder& spans, std::uint64_t& op, const ProbeContext& ctx,
             MetricSet& out) override {
    double serial_ns = 0.0;
    for (const char* leg : kLegNames) {
      const SpanTotals t = Totals(spans, std::string("fault.leg.") + leg);
      out.Set(std::string("fault.campaign_ns_per_tick.") + leg, NsPerUnit(t),
              "ns");
      serial_ns += static_cast<double>(t.self_ns);
    }
    const double serial_s =
        1e-9 * serial_ns /
        static_cast<double>(std::max<std::size_t>(1, ctx.traced_passes));
    const double workers =
        static_cast<double>(std::min<std::size_t>(ctx.workers, 3));
    out.Set("common.parallel_efficiency",
            ctx.makespan_s > 0 ? serial_s / (workers * ctx.makespan_s) : 0.0,
            "ratio");
    out.Set("fault.refreshes_per_tick",
            Ratio(ctx.counted.counts.campaign_refreshes,
                  ctx.counted.counts.ticks),
            "ratio");
    ProbeGrants(*system_, spans, ++op, out);
    ProbeApplyRefresh(*system_, spans, ++op, out);
    const auto legs = core::ResilienceLegs(PolicyKind::kVrlAccess);
    const core::ExperimentOptions options = Options(1, 1);
    ProbeTelemetry(
        [&](telemetry::Recorder* recorder) {
          core::RunResilienceLeg(*system_, legs.back(), {}, options, recorder);
        },
        spans, ++op, out);
  }

 private:
  static constexpr std::size_t kWindows = 2;
  static constexpr const char* kLegNames[] = {"jedec", "plain", "adaptive"};

  core::ExperimentOptions Options(std::size_t windows,
                                  std::size_t workers) const {
    core::ExperimentOptions options;
    options.windows = windows;
    options.threads = workers;
    options.fault_seed = fault_seed_;
    return options;
  }

  std::uint64_t fault_seed_ = 0;
};

}  // namespace

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"retention.mprsf_us_per_row", "us"},
      {"retention.profile_generate_s", "s"},
      {"model.build_s", "s"},
      {"trace.generate_ns_per_record", "ns"},
      {"trace.map_ns_per_request", "ns"},
      {"dram.flat.ns_per_tick", "ns"},
      {"dram.flat.ns_per_request", "ns"},
      {"dram.hier.ns_per_tick", "ns"},
      {"dram.hier.ns_per_request", "ns"},
      {"dram.engine.ns_per_command", "ns"},
      {"dram.audit_log.ns_per_command", "ns"},
      {"dram.auditor.ns_per_command", "ns"},
      {"dram.scheduler.ns_per_pick", "ns"},
      {"dram.scheduler.queue_depth", "count"},
      {"dram.grant.ns_per_tick.raidr", "ns"},
      {"dram.grant.ns_per_tick.vrl", "ns"},
      {"dram.grant.ns_per_tick.vrl-access", "ns"},
      {"dram.grant.ns_per_tick.darp", "ns"},
      {"dram.grant.ns_per_tick.sarp", "ns"},
      {"model.apply_refresh_ns", "ns"},
      {"fault.campaign_ns_per_tick.jedec", "ns"},
      {"fault.campaign_ns_per_tick.plain", "ns"},
      {"fault.campaign_ns_per_tick.adaptive", "ns"},
      {"telemetry.overhead_ratio", "ratio"},
      {"telemetry.snapshot_ms", "ms"},
      {"common.parallel_efficiency", "ratio"},
      {"ticks_per_s", "1/s"},
      {"requests_per_s", "1/s"},
      {"commands_audited_per_s", "1/s"},
      {"dram.requests", "count"},
      {"dram.ticks", "count"},
      {"dram.commands", "count"},
      {"dram.row_hit_ratio", "ratio"},
      {"dram.partial_share", "ratio"},
      {"dram.refresh.deferred_ratio", "ratio"},
      {"dram.hier.stall_cycles_per_request", "cycles"},
      {"dram.sim_latency_cycles", "cycles"},
      {"fault.refreshes_per_tick", "ratio"},
      {"trace_overhead_ratio", "ratio"},
  };
  return metrics;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "fig4-flat", "ddr4-audited", "saturated-frfcfs", "fault-campaign"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name) {
  if (name == "fig4-flat") {
    return std::make_unique<Fig4Flat>();
  }
  if (name == "ddr4-audited") {
    return std::make_unique<Ddr4Audited>();
  }
  if (name == "saturated-frfcfs") {
    return std::make_unique<SaturatedFrFcfs>();
  }
  if (name == "fault-campaign") {
    return std::make_unique<FaultCampaign>();
  }
  return nullptr;
}

void ProbeSetupLayers(const core::VrlConfig& config, SpanRecorder& spans,
                      std::uint64_t op, MetricSet& out) {
  std::unique_ptr<vrl::model::RefreshModel> model;
  const double model_s = TimedSpan(spans, "probe.model_build", op, 1, [&] {
    model = std::make_unique<vrl::model::RefreshModel>(config.tech,
                                                       config.spec);
  });
  const std::size_t rows = config.tech.rows;
  Rng rng(config.seed);
  const vrl::retention::RetentionDistribution dist(config.retention);
  std::unique_ptr<vrl::retention::RetentionProfile> profile;
  const double profile_s =
      TimedSpan(spans, "probe.profile_generate", op, rows, [&] {
        profile = std::make_unique<vrl::retention::RetentionProfile>(
            vrl::retention::RetentionProfile::Generate(
                dist, rows, config.tech.columns, rng));
      });
  // VrlSystem plans on the profile clamped at the base period (guardband
  // 1.0 — the default), so binning never sees a row below the first bin.
  const auto periods = vrl::retention::StandardBinPeriods();
  std::vector<double> planned = profile->row_retention();
  for (double& r : planned) {
    r = std::max(r, periods.front());
  }
  const vrl::retention::RetentionProfile planning(std::move(planned));
  vrl::retention::BinningResult binning;
  TimedSpan(spans, "probe.binning", op, rows, [&] {
    binning = vrl::retention::BinRows(planning, periods);
  });
  const vrl::retention::MprsfCalculator calc(
      *model, model->PartialRefreshTimings().tau_post_s);
  std::size_t total = 0;
  const double mprsf_s = TimedSpan(spans, "probe.mprsf", op, rows, [&] {
    for (const std::size_t m :
         calc.ComputeRowMprsf(planning, binning, config.MprsfCap())) {
      total += m;
    }
  });
  g_sink = g_sink + static_cast<double>(total);
  out.Set("model.build_s", model_s, "s");
  out.Set("retention.profile_generate_s", profile_s, "s");
  out.Set("retention.mprsf_us_per_row",
          1e6 * mprsf_s / static_cast<double>(rows), "us");
}

}  // namespace perfbench
