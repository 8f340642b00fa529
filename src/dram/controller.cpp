#include "dram/controller.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <span>

#include "common/error.hpp"
#include "telemetry/recorder.hpp"

namespace vrl::dram {

std::size_t SimulationStats::TotalReads() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.reads;
  }
  return n;
}

std::size_t SimulationStats::TotalWrites() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.writes;
  }
  return n;
}

std::size_t SimulationStats::TotalFullRefreshes() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.full_refreshes;
  }
  return n;
}

std::size_t SimulationStats::TotalPartialRefreshes() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.partial_refreshes;
  }
  return n;
}

Cycles SimulationStats::TotalRefreshBusyCycles() const {
  Cycles n = 0;
  for (const auto& b : per_bank) {
    n += b.refresh_busy_cycles;
  }
  return n;
}

std::size_t SimulationStats::TotalActivations() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.activations;
  }
  return n;
}

std::size_t SimulationStats::TotalRowHits() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.row_hits;
  }
  return n;
}

std::size_t SimulationStats::TotalRowMisses() const {
  std::size_t n = 0;
  for (const auto& b : per_bank) {
    n += b.row_misses;
  }
  return n;
}

double SimulationStats::RefreshOverheadPerBank() const {
  if (per_bank.empty()) {
    return 0.0;
  }
  return static_cast<double>(TotalRefreshBusyCycles()) /
         static_cast<double>(per_bank.size());
}

double SimulationStats::AverageRequestLatency() const {
  Cycles total = 0;
  std::size_t count = 0;
  for (const auto& b : per_bank) {
    total += b.total_request_latency;
    count += b.reads + b.writes;
  }
  return count == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(count);
}

namespace {

/// The degenerate timing table of the flat constructor: today's model,
/// wrapped so both constructors share one body.
TimingTable FlatTable(const TimingParams& timing, std::size_t banks) {
  if (banks == 0) {
    throw ConfigError("MemoryController: need at least one bank");
  }
  TimingTable table;
  table.core = timing;
  table.topology = {1, 1, 1, banks};
  return table;
}

/// One bank's refresh tick, shared by both run loops.  A quiet tick —
/// earlier than the policy's NextProposalAt — skips the virtual
/// propose/grant call but still enforces the monotonic-`now` contract;
/// any other tick proposes and grants against `make_ctx()`.  `collect`
/// (null unless profiling) counts every tick and times a 1-in-N sample.
/// Returns the tick's granted ops (`grant.ops`).
template <typename MakeContext>
const std::vector<RefreshOp>& RefreshTick(RefreshPolicy& policy, Cycles now,
                                          const MakeContext& make_ctx,
                                          RefreshGrantBuffers& grant,
                                          RefreshGrantStats& stats,
                                          prof::PhaseAccumulator* collect) {
  using Clock = std::chrono::steady_clock;
  const bool timed = collect != nullptr && collect->Sample();
  const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
  if (now < policy.NextProposalAt()) {
    policy.SkipQuietTick(now);
    grant.ops.clear();
  } else {
    GrantRefreshes(policy, make_ctx(), grant, &stats);
  }
  if (timed) {
    collect->Add(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return grant.ops;
}

}  // namespace

/// One run's requests as contiguous, arrival-ordered per-bank queues, with
/// one cursor per bank.  Both run loops keep a bank's pending set —
/// arrived, not yet serviced — as the slice [head, next) of its own queue
/// and service the scheduler's pick in place, so no request is copied out
/// of its queue after the split.
struct MemoryController::BankQueues {
  /// Decision instant of a bank with nothing to service before the limit.
  static constexpr Cycles kIdle = ~Cycles{0};

  struct Cursor {
    Request* head = nullptr;  ///< Oldest pending request.
    Request* next = nullptr;  ///< First request not yet arrived.
    Request* end = nullptr;   ///< End of the bank's queue.

    /// When the bank next picks a request under `limit`: when it frees up,
    /// or — with nothing pending — when its next request arrives; kIdle
    /// when it has nothing to service before `limit`.
    Cycles DecisionInstant(const Bank& bank, Cycles limit) const {
      Cycles t = bank.busy_until();
      if (head == next) {
        if (next == end || next->arrival >= limit) {
          return kIdle;
        }
        t = std::max(t, next->arrival);
      }
      return t;
    }

    /// Admits everything arrived by `t_decide` (and before `limit`) to the
    /// pending slice, services the scheduler's pick and closes its gap.
    /// Returns true when the pick was not the oldest pending request —
    /// the scheduler reordering for row locality.
    bool ServiceNext(SchedulerKind scheduler, Bank& bank,
                     RefreshPolicy& policy, Cycles t_decide, Cycles limit) {
      while (next != end && next->arrival <= t_decide &&
             next->arrival < limit) {
        ++next;
      }
      Request* pick = head + SelectNextRequest(
                                 scheduler, std::span(head, next), bank);
      bank.ServiceRequest(*pick);
      policy.OnRowAccess(pick->row);
      const bool reordered = pick != head;
      // The older entries move up one slot over the pick, so the slice
      // stays arrival-ordered.
      std::move_backward(head, pick, pick + 1);
      ++head;
      return reordered;
    }

    /// The refresh grant's demand view: the next request this bank will
    /// see.  The run loops drain every pending slice before a refresh
    /// tick, so that is the first request not yet arrived.
    void FillDemand(DemandView& demand) const {
      if (next != end) {
        demand.has_next = true;
        demand.next_arrival = next->arrival;
        demand.next_row = next->row;
      }
    }
  };

  /// Validates `requests` — arrival order, bank and row ranges — and
  /// splits them per bank (a stable counting sort) in the same pass, so a
  /// bad request throws before any bank state changes.
  BankQueues(const std::vector<Request>& requests, std::size_t banks,
             std::size_t rows) {
    std::vector<std::size_t> counts(banks, 0);
    bool bank_out_of_range = false;
    bool row_out_of_range = false;
    Cycles last_arrival = 0;
    for (const Request& r : requests) {
      if (r.arrival < last_arrival) {
        throw ConfigError(
            "MemoryController::Run: requests must be arrival-sorted");
      }
      last_arrival = r.arrival;
      if (r.bank >= banks) {
        bank_out_of_range = true;
        continue;
      }
      row_out_of_range |= r.row >= rows;
      ++counts[r.bank];
    }
    // A fixed precedence — order, then bank, then row — whatever the
    // positions of the bad requests in the input.
    if (bank_out_of_range) {
      throw ConfigError("MemoryController::Run: request bank out of range");
    }
    if (row_out_of_range) {
      throw ConfigError("Bank: request row out of range");
    }
    // Raw storage, not zeroed: the scatter below constructs every entry.
    entries.reset(static_cast<Request*>(
        ::operator new(requests.size() * sizeof(Request))));
    cursors.resize(banks);
    Request* start = entries.get();
    for (std::size_t b = 0; b < banks; ++b) {
      cursors[b].head = cursors[b].next = cursors[b].end = start;
      start += counts[b];
    }
    // Each queue grows at its end, in arrival order.
    for (const Request& r : requests) {
      ::new (static_cast<void*>(cursors[r.bank].end++)) Request(r);
    }
  }

  /// Releases the raw storage; Request is trivially destructible.
  struct FreeStorage {
    void operator()(Request* p) const { ::operator delete(p); }
  };
  std::unique_ptr<Request[], FreeStorage> entries;
  std::vector<Cursor> cursors;  ///< One per bank.
};

MemoryController::MemoryController(std::size_t banks, std::size_t rows,
                                   const TimingParams& timing,
                                   const PolicyFactory& factory,
                                   SchedulerKind scheduler,
                                   RowBufferPolicy page_policy,
                                   std::size_t subarrays)
    : MemoryController(FlatTable(timing, banks), rows, factory, scheduler,
                       page_policy, subarrays) {}

MemoryController::MemoryController(const TimingTable& table, std::size_t rows,
                                   const PolicyFactory& factory,
                                   SchedulerKind scheduler,
                                   RowBufferPolicy page_policy,
                                   std::size_t subarrays)
    : table_(table), timing_(table.core), scheduler_(scheduler) {
  table_.Validate();
  // Requests carry 32-bit row and 16-bit bank indices (request.hpp).
  if (rows > std::numeric_limits<std::uint32_t>::max()) {
    throw ConfigError("MemoryController: rows must fit a 32-bit row index");
  }
  const std::size_t banks = table_.topology.TotalBanks();
  if (banks > std::size_t{1} << 16) {
    throw ConfigError("MemoryController: banks must fit a 16-bit bank index");
  }
  hierarchical_ = table_.IsHierarchical();
  banks_.reserve(banks);
  policies_.reserve(banks);
  for (std::size_t b = 0; b < banks; ++b) {
    banks_.emplace_back(rows, timing_, page_policy, subarrays);
    auto policy = factory();
    if (!policy) {
      throw ConfigError("MemoryController: policy factory returned null");
    }
    if (policy->rows() != rows) {
      throw ConfigError("MemoryController: policy row count mismatch");
    }
    policies_.push_back(std::move(policy));
  }
  // Banks built from one plan share its staggered initial schedule: bank
  // 0's policy builds it, the others copy it.
  for (std::size_t b = 1; b < banks; ++b) {
    policies_[b]->AdoptInitialSchedule(*policies_[0]);
  }
  if (hierarchical_) {
    engine_ = std::make_unique<ConstraintEngine>(table_);
    for (std::size_t b = 0; b < banks; ++b) {
      banks_[b].SetConstraintEngine(engine_.get(),
                                    DecomposeBank(table_.topology, b));
    }
  }
}

void MemoryController::EnableAudit(CommandLog& sink) {
  audit_log_ = &sink;
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    banks_[b].SetAudit(audit_log_, DecomposeBank(table_.topology, b));
  }
}

void MemoryController::AttachTelemetry(telemetry::Recorder* recorder) {
  telemetry_ = recorder;
  for (const auto& policy : policies_) {
    policy->set_telemetry(recorder);
  }
}

SimulationStats MemoryController::Run(const std::vector<Request>& requests,
                                      Cycles horizon) {
  BankQueues queues(requests, banks_.size(), banks_.front().rows());
  return hierarchical_ ? RunHierarchical(queues, horizon)
                       : RunFlat(queues, horizon);
}

SimulationStats MemoryController::RunFlat(BankQueues& queues, Cycles horizon) {
  const telemetry::ScopedTimer run_timer(telemetry_, "time.controller_run");
  // The service loop is only tens of nanoseconds per request, so its one
  // per-request telemetry count is an unconditional add, exported only
  // with telemetry; everything else exported below is a delta of the
  // banks' always-on stats (docs/TELEMETRY.md).
  std::uint64_t reordered_picks_n = 0;
  RefreshGrantStats grant_stats;
  // Spans land on a fresh track group (one Chrome "process" per run) with
  // one track per bank; null tracer costs one compare per refresh tick.
  telemetry::Tracer* tracer =
      telemetry_ == nullptr ? nullptr : telemetry_->tracer();
  std::uint32_t trace_group = 0;
  std::uint32_t burst_label = 0;
  if (tracer != nullptr) {
    trace_group = tracer->NewTrackGroup("run:" + policies_[0]->Name());
    // Interned once: the per-tick burst spans skip the label lookup.
    burst_label = tracer->Intern("refresh_burst");
  }
  // Phase profiling (--profile, docs/PROFILING.md): per-tick phases are
  // timed on a 1-in-N sample (exact call counts, scaled time estimate —
  // prof::PhaseAccumulator) and folded once into the time.phase.* timers
  // and the attribution profiler via FoldPhaseProfile.
  const bool profile =
      telemetry_ != nullptr && telemetry_->options().profile_phases;
  prof::Profiler* profiler = profile ? telemetry_->profiler() : nullptr;
  const prof::ScopedPhase run_phase(profiler, "controller.run");
  PhaseProfile phases;
  const auto phase_clock = [] { return std::chrono::steady_clock::now(); };
  const auto seconds_since =
      [](std::chrono::steady_clock::time_point from) {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             from)
            .count();
      };
  // Run() absorbs only this run's deltas, so re-running a controller does
  // not double-count the cumulative BankStats.
  SimulationStats before;
  if (telemetry_ != nullptr) {
    for (const Bank& bank : banks_) {
      before.per_bank.push_back(bank.stats());
    }
  }

  RefreshGrantBuffers grant;

  Cycles end = horizon;

  // Each bank runs an independent timeline: interleave its request stream
  // with the global tREFI ticks.
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    Bank& bank = banks_[b];
    RefreshPolicy& policy = *policies_[b];
    BankQueues::Cursor& cur = queues.cursors[b];

    // Services every request arriving before `limit`, letting the scheduler
    // reorder among the ones pending at each decision instant.
    const auto service_until = [&](Cycles limit) {
      while (true) {
        const Cycles t_decide = cur.DecisionInstant(bank, limit);
        if (t_decide == BankQueues::kIdle) {
          return;
        }
        reordered_picks_n +=
            cur.ServiceNext(scheduler_, bank, policy, t_decide, limit);
      }
    };

    // Profiled wrappers; the non-profiling path calls straight through,
    // and the profiling path only reads the clock on sampled calls.
    const auto run_service_until = [&](Cycles limit) {
      if (profile && phases.scheduler.Sample()) {
        const auto t0 = phase_clock();
        service_until(limit);
        phases.scheduler.Add(seconds_since(t0));
        return;
      }
      service_until(limit);
    };
    // Propose/grant per refresh tick.
    const auto collect_due = [&](Cycles now) -> const std::vector<RefreshOp>& {
      const auto context = [&] {
        RefreshGrantContext ctx;
        ctx.now = now;
        ctx.demand.now = now;
        cur.FillDemand(ctx.demand);
        ctx.bank = &bank;
        return ctx;
      };
      return RefreshTick(policy, now, context, grant, grant_stats,
                         profile ? &phases.collect : nullptr);
    };

    const telemetry::SpanId bank_span =
        tracer == nullptr
            ? telemetry::SpanId{0}
            : tracer->BeginSpan("bank_run", 0, trace_group, b);

    for (Cycles tick = 0; tick <= horizon; tick += timing_.t_refi) {
      // Service requests that arrived before this refresh tick.
      run_service_until(tick);
      // Execute the refresh operations due at this tick.  Each op waits
      // for its own subarray inside the bank; ops to distinct subarrays
      // overlap (SALP), ops to the same one serialize.
      const std::vector<RefreshOp>& ops = collect_due(tick);
      for (const RefreshOp& op : ops) {
        bank.ExecuteRefresh(op, tick);
      }
      if (tracer != nullptr && !ops.empty()) {
        Cycles busy = 0;
        std::int64_t fulls = 0;
        for (const RefreshOp& op : ops) {
          busy += op.trfc;
          fulls += op.is_full ? 1 : 0;
        }
        // Duration aggregates the burst's tRFC cycles (subarray overlap
        // can retire it faster; the bank stats carry the exact busy time).
        tracer->CompleteSpan(burst_label, tick, tick + busy, trace_group,
                             b, static_cast<std::int64_t>(ops.size()), fulls);
      }
    }
    // Drain any requests arriving up to the horizon after the last tick.
    run_service_until(horizon + 1);
    end = std::max(end, bank.stats().last_completion);
    if (tracer != nullptr) {
      tracer->EndSpan(bank_span,
                      std::max(horizon, bank.stats().last_completion));
    }
  }

  // Fold the policies' batched per-op telemetry into the recorder before
  // any caller snapshots it.
  const auto flush_t0 = phase_clock();
  for (const auto& policy : policies_) {
    policy->FlushTelemetry();
  }

  SimulationStats stats;
  stats.simulated_cycles = end;
  stats.per_bank.reserve(banks_.size());
  for (const Bank& bank : banks_) {
    stats.per_bank.push_back(bank.stats());
  }

  ExportRunTelemetry(before, stats, reordered_picks_n, end);
  ExportGrantTelemetry(grant_stats);
  if (profile) {
    // The flush phase covers the policy folds plus the delta export above.
    phases.flush_s = seconds_since(flush_t0);
    FoldPhaseProfile(phases,
                     stats.TotalReads() + stats.TotalWrites() -
                         before.TotalReads() - before.TotalWrites(),
                     grant_stats.granted);
  }
  return stats;
}

SimulationStats MemoryController::RunHierarchical(BankQueues& queues,
                                                  Cycles horizon) {
  const telemetry::ScopedTimer run_timer(telemetry_, "time.controller_run");
  const Topology& topo = table_.topology;
  std::uint64_t reordered_picks_n = 0;
  RefreshGrantStats grant_stats;
  telemetry::Tracer* tracer =
      telemetry_ == nullptr ? nullptr : telemetry_->tracer();
  // One track group per rank (a Chrome "process" per ch<c>.rk<r>), one
  // track per bank within the rank — the hierarchy is visible in the trace.
  std::vector<std::uint32_t> rank_groups;
  std::uint32_t burst_label = 0;
  if (tracer != nullptr) {
    rank_groups.reserve(topo.TotalRanks());
    for (std::size_t c = 0; c < topo.channels; ++c) {
      for (std::size_t r = 0; r < topo.ranks_per_channel; ++r) {
        rank_groups.push_back(tracer->NewTrackGroup(
            "run:" + policies_[0]->Name() + "/ch" + std::to_string(c) +
            ".rk" + std::to_string(r)));
      }
    }
    burst_label = tracer->Intern("refresh_burst");
  }
  const bool profile =
      telemetry_ != nullptr && telemetry_->options().profile_phases;
  prof::Profiler* profiler = profile ? telemetry_->profiler() : nullptr;
  const prof::ScopedPhase run_phase(profiler, "controller.run");
  PhaseProfile phases;
  const auto phase_clock = [] { return std::chrono::steady_clock::now(); };
  const auto seconds_since =
      [](std::chrono::steady_clock::time_point from) {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             from)
            .count();
      };
  SimulationStats before;
  if (telemetry_ != nullptr) {
    for (const Bank& bank : banks_) {
      before.per_bank.push_back(bank.stats());
    }
  }
  const ConstraintStats engine_before = engine_->stats();
  const HierarchyActivity activity_before = engine_->activity();

  std::vector<BankQueues::Cursor>& cursors = queues.cursors;
  std::vector<BankAddress> addrs(banks_.size());
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    addrs[b] = DecomposeBank(topo, b);
  }

  const std::size_t banks_per_rank = topo.BanksPerRank();
  std::vector<telemetry::SpanId> bank_spans;
  if (tracer != nullptr) {
    bank_spans.reserve(banks_.size());
    for (std::size_t b = 0; b < banks_.size(); ++b) {
      bank_spans.push_back(tracer->BeginSpan(
          "bank_run", 0, rank_groups[b / banks_per_rank],
          b % banks_per_rank));
    }
  }

  // One decision instant per bank.  Servicing a bank moves only its own
  // instant, so after the per-call refresh (refresh ticks move busy_until)
  // only the serviced bank's entry is recomputed.
  std::vector<Cycles> instants(banks_.size(), BankQueues::kIdle);

  // Services every request arriving before `limit`, interleaving the banks
  // globally: each step picks the bank with the earliest decision instant
  // (ties to the lowest index), so the constraint engine sees commands in
  // approximate issue order and its conservative floors apply.
  const auto service_until = [&](Cycles limit) {
    for (std::size_t b = 0; b < banks_.size(); ++b) {
      instants[b] = cursors[b].DecisionInstant(banks_[b], limit);
    }
    while (true) {
      std::size_t pick_bank = 0;
      for (std::size_t b = 1; b < instants.size(); ++b) {
        if (instants[b] < instants[pick_bank]) {
          pick_bank = b;
        }
      }
      const Cycles t_decide = instants[pick_bank];
      if (t_decide == BankQueues::kIdle) {
        return;
      }
      BankQueues::Cursor& cur = cursors[pick_bank];
      Bank& bank = banks_[pick_bank];
      reordered_picks_n += cur.ServiceNext(scheduler_, bank,
                                           *policies_[pick_bank], t_decide,
                                           limit);
      instants[pick_bank] = cur.DecisionInstant(bank, limit);
    }
  };
  const auto run_service_until = [&](Cycles limit) {
    if (profile && phases.scheduler.Sample()) {
      const auto t0 = phase_clock();
      service_until(limit);
      phases.scheduler.Add(seconds_since(t0));
      return;
    }
    service_until(limit);
  };
  // Propose/grant per (bank, tick).  The constraint engine joins the
  // context so non-urgent REFpb proposals defer instead of stalling in the
  // rank's ACT windows.
  RefreshGrantBuffers grant;
  const auto collect_due = [&](std::size_t b,
                               Cycles now) -> const std::vector<RefreshOp>& {
    const auto context = [&] {
      RefreshGrantContext ctx;
      ctx.now = now;
      ctx.demand.now = now;
      cursors[b].FillDemand(ctx.demand);
      ctx.bank = &banks_[b];
      ctx.engine = engine_.get();
      ctx.addr = addrs[b];
      return ctx;
    };
    return RefreshTick(*policies_[b], now, context, grant, grant_stats,
                       profile ? &phases.collect : nullptr);
  };

  Cycles end = horizon;
  for (Cycles tick = 0; tick <= horizon; tick += timing_.t_refi) {
    // Service requests arriving before this refresh tick, then execute the
    // tick's refresh operations bank by bank (index order — deterministic).
    run_service_until(tick);
    for (std::size_t b = 0; b < banks_.size(); ++b) {
      const std::vector<RefreshOp>& ops = collect_due(b, tick);
      for (const RefreshOp& op : ops) {
        banks_[b].ExecuteRefresh(op, tick);
      }
      if (tracer != nullptr && !ops.empty()) {
        Cycles busy = 0;
        std::int64_t fulls = 0;
        for (const RefreshOp& op : ops) {
          busy += op.trfc;
          fulls += op.is_full ? 1 : 0;
        }
        tracer->CompleteSpan(burst_label, tick, tick + busy,
                             rank_groups[b / banks_per_rank],
                             b % banks_per_rank,
                             static_cast<std::int64_t>(ops.size()), fulls);
      }
    }
  }
  // Drain any requests arriving up to the horizon after the last tick.
  run_service_until(horizon + 1);
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    end = std::max(end, banks_[b].stats().last_completion);
    if (tracer != nullptr) {
      tracer->EndSpan(bank_spans[b],
                      std::max(horizon, banks_[b].stats().last_completion));
    }
  }

  const auto flush_t0 = phase_clock();
  for (const auto& policy : policies_) {
    policy->FlushTelemetry();
  }

  SimulationStats stats;
  stats.simulated_cycles = end;
  stats.per_bank.reserve(banks_.size());
  for (const Bank& bank : banks_) {
    stats.per_bank.push_back(bank.stats());
  }

  ExportRunTelemetry(before, stats, reordered_picks_n, end);
  ExportGrantTelemetry(grant_stats);
  if (telemetry_ != nullptr) {
    // Hierarchy-only export: the constraint engine's stall accounting and
    // per-rank/channel activity.  Never registered in flat mode, so flat
    // reports stay byte-identical.
    const ConstraintStats& cs = engine_->stats();
    const auto delta = [&](std::string_view name, std::uint64_t now,
                           std::uint64_t then) {
      telemetry_->counter(name).Add(now - then);
    };
    delta("dram.hier.trrd_stalls", cs.trrd_stalls, engine_before.trrd_stalls);
    delta("dram.hier.trrd_stall_cycles", cs.trrd_stall_cycles,
          engine_before.trrd_stall_cycles);
    delta("dram.hier.tfaw_stalls", cs.tfaw_stalls, engine_before.tfaw_stalls);
    delta("dram.hier.tfaw_stall_cycles", cs.tfaw_stall_cycles,
          engine_before.tfaw_stall_cycles);
    delta("dram.hier.tccd_stalls", cs.tccd_stalls, engine_before.tccd_stalls);
    delta("dram.hier.tccd_stall_cycles", cs.tccd_stall_cycles,
          engine_before.tccd_stall_cycles);
    delta("dram.hier.trtrs_stalls", cs.trtrs_stalls,
          engine_before.trtrs_stalls);
    delta("dram.hier.trtrs_stall_cycles", cs.trtrs_stall_cycles,
          engine_before.trtrs_stall_cycles);
    delta("dram.hier.bus_stalls", cs.bus_stalls, engine_before.bus_stalls);
    delta("dram.hier.bus_stall_cycles", cs.bus_stall_cycles,
          engine_before.bus_stall_cycles);
    const HierarchyActivity& act = engine_->activity();
    for (std::size_t g = 0; g < act.rank_activations.size(); ++g) {
      const std::string suffix =
          ".ch" + std::to_string(g / topo.ranks_per_channel) + ".rk" +
          std::to_string(g % topo.ranks_per_channel);
      delta("dram.hier.rank_activations" + suffix, act.rank_activations[g],
            activity_before.rank_activations[g]);
      delta("dram.hier.rank_columns" + suffix, act.rank_columns[g],
            activity_before.rank_columns[g]);
    }
    for (std::size_t c = 0; c < act.channel_bursts.size(); ++c) {
      delta("dram.hier.channel_bursts.ch" + std::to_string(c),
            act.channel_bursts[c], activity_before.channel_bursts[c]);
    }
  }
  if (profile) {
    phases.flush_s = seconds_since(flush_t0);
    FoldPhaseProfile(phases,
                     stats.TotalReads() + stats.TotalWrites() -
                         before.TotalReads() - before.TotalWrites(),
                     grant_stats.granted);
  }
  return stats;
}

void MemoryController::FoldPhaseProfile(const PhaseProfile& phases,
                                        std::uint64_t serviced,
                                        std::uint64_t granted) {
  // Both run loops fold through here, so the flat and hierarchical phase
  // breakdowns — legacy time.phase.* timers and attribution tree alike —
  // cannot drift apart.
  const double scheduler_s = phases.scheduler.EstimatedSeconds();
  const double collect_s = phases.collect.EstimatedSeconds();
  telemetry_->metrics()
      .GetTimer("time.phase.telemetry_flush")
      .Record(phases.flush_s);
  telemetry_->metrics().GetTimer("time.phase.scheduler").Record(scheduler_s);
  telemetry_->metrics()
      .GetTimer("time.phase.policy_collect_due")
      .Record(collect_s);
  prof::Profiler* profiler = telemetry_->profiler();
  if (profiler != nullptr) {
    // Children of the run loop's open "controller.run" frame.  Units:
    // requests serviced by the scheduler, refresh ops granted.
    profiler->CompletePhase("scheduler", scheduler_s,
                            phases.scheduler.calls(), serviced);
    profiler->CompletePhase("policy.propose_grant", collect_s,
                            phases.collect.calls(), granted);
    profiler->CompletePhase("telemetry_flush", phases.flush_s, 1, 0);
  }
}

void MemoryController::ExportGrantTelemetry(const RefreshGrantStats& grants) {
  // Registered only when a scheduler-coupled policy actually produced
  // non-urgent proposals: legacy policies (whose shim proposals are all
  // urgent) leave the snapshot untouched, keeping the golden fixtures
  // byte-identical through the new propose/grant path.
  if (telemetry_ == nullptr || grants.nonurgent_proposals == 0) {
    return;
  }
  telemetry_->counter("dram.refresh.proposals").Add(grants.proposals);
  telemetry_->counter("dram.refresh.nonurgent_proposals")
      .Add(grants.nonurgent_proposals);
  telemetry_->counter("dram.refresh.granted").Add(grants.granted);
  telemetry_->counter("dram.refresh.deferred").Add(grants.deferred);
  telemetry_->counter("dram.refresh.urgent_grants")
      .Add(grants.urgent_grants);
}

void MemoryController::ExportRunTelemetry(const SimulationStats& before,
                                          const SimulationStats& stats,
                                          std::uint64_t reordered_picks_n,
                                          Cycles end) {
  if (telemetry_ == nullptr) {
    return;
  }
  // Everything below is a delta of the banks' always-on stats, so a
  // repeated Run() of the same controller exports only its own work.
  std::vector<std::uint64_t> latency_counts(telemetry::kLatencyBucketCount,
                                            0);
  Cycles latency_total = 0;
  std::uint64_t picks_n = 0;
  for (std::size_t b = 0; b < stats.per_bank.size(); ++b) {
    const BankStats& now = stats.per_bank[b];
    const BankStats& then = before.per_bank[b];
    for (std::size_t i = 0; i < latency_counts.size(); ++i) {
      latency_counts[i] += now.latency_hist[i] - then.latency_hist[i];
    }
    latency_total += now.total_request_latency - then.total_request_latency;
    picks_n += (now.reads + now.writes) - (then.reads + then.writes);
  }
  telemetry_->counter("scheduler.picks").Add(picks_n);
  telemetry_->counter("scheduler.reordered_picks").Add(reordered_picks_n);
  telemetry_
      ->histogram("dram.request_latency_cycles",
                  telemetry::LatencyBucketEdges())
      .MergeCounts(latency_counts, static_cast<double>(latency_total));
  const auto add = [&](std::string_view name, std::size_t now_total,
                       std::size_t before_total) {
    telemetry_->counter(name).Add(
        static_cast<std::uint64_t>(now_total - before_total));
  };
  add("dram.reads", stats.TotalReads(), before.TotalReads());
  add("dram.writes", stats.TotalWrites(), before.TotalWrites());
  add("dram.row_hits", stats.TotalRowHits(), before.TotalRowHits());
  add("dram.row_misses", stats.TotalRowMisses(), before.TotalRowMisses());
  add("dram.activations", stats.TotalActivations(),
      before.TotalActivations());
  add("dram.full_refreshes", stats.TotalFullRefreshes(),
      before.TotalFullRefreshes());
  add("dram.partial_refreshes", stats.TotalPartialRefreshes(),
      before.TotalPartialRefreshes());
  telemetry_->counter("dram.refresh_busy_cycles")
      .Add(stats.TotalRefreshBusyCycles() - before.TotalRefreshBusyCycles());
  telemetry_->counter("dram.simulated_cycles").Add(end);
}

}  // namespace vrl::dram
