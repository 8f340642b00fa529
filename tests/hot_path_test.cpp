// Equivalence tests of the controller hot path against in-test references.
//
// The run loops service each bank's pending requests in place in a
// per-run queue, keep a per-bank decision-instant array, reuse their
// propose/grant buffers, skip the policy call on quiet ticks and share one
// initial deadline schedule across the banks of a plan.  None of that may
// change a simulated statistic or command, so each mechanism is pinned here
// against the straightforward form it replaced:
//  - MemoryController::Run on a flat table against a reference loop
//    written below that keeps a `pending` vector per bank and erases each
//    pick from it, under both schedulers and both page policies;
//  - MemoryController::Run on a hierarchical table against a reference
//    loop written below that rescans every bank for every request and
//    builds every policy from scratch;
//  - the reused-buffer propose/grant with quiet-tick skipping against the
//    allocating GrantRefreshes called on every tick, for every registered
//    policy and the adaptive wrapper.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/vrl_system.hpp"
#include "dram/auditor.hpp"
#include "dram/bank.hpp"
#include "dram/controller.hpp"
#include "dram/policy_registry.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/scheduler.hpp"
#include "dram/timing_table.hpp"
#include "dram/topology.hpp"
#include "fault/adaptive_policy.hpp"
#include "telemetry/recorder.hpp"

namespace {

using namespace vrl;

constexpr core::PolicyKind kAllKinds[] = {
    core::PolicyKind::kJedec,     core::PolicyKind::kRaidr,
    core::PolicyKind::kVrl,       core::PolicyKind::kVrlAccess,
    core::PolicyKind::kVrlSkip,   core::PolicyKind::kDarp,
    core::PolicyKind::kSarp,
};

core::VrlConfig PresetConfig(dram::TimingPreset preset,
                             dram::SchedulerKind scheduler,
                             std::size_t subarrays) {
  core::VrlConfig config;
  config.tech.rows = 256;
  config.ApplyPreset(preset);
  config.scheduler = scheduler;
  config.subarrays = subarrays;
  return config;
}

/// Arrival-sorted random demand: bursts of back-to-back arrivals separated
/// by idle gaps, over every bank, with some row locality.
std::vector<dram::Request> RandomRequests(std::size_t banks, std::size_t rows,
                                          Cycles horizon, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<dram::Request> requests;
  Cycles at = 0;
  std::size_t row = 0;
  while (true) {
    at += rng() % 4 == 0 ? rng() % 400 : rng() % 6;
    if (at >= horizon) {
      break;
    }
    dram::Request r;
    r.arrival = at;
    r.bank = static_cast<std::uint16_t>(rng() % banks);
    row = rng() % 3 == 0 ? static_cast<std::size_t>(rng() % rows) : row;
    r.row = static_cast<std::uint32_t>(row);
    r.type = rng() % 3 == 0 ? dram::RequestType::kWrite
                            : dram::RequestType::kRead;
    requests.push_back(r);
  }
  return requests;
}

struct ReferenceRun {
  std::vector<dram::BankStats> per_bank;
  Cycles end = 0;
  dram::CommandLog log;
  std::uint64_t reordered_picks = 0;  ///< Picks other than the oldest.
  std::size_t max_pending = 0;        ///< Deepest pending set (flat only).
};

/// The flat run loop in its plain form: bank by bank, a `pending` vector
/// fed from the bank's own copy of its requests, SelectNextRequest over it
/// and an erase of the pick; a fresh policy per bank and the allocating
/// GrantRefreshes on every tick.
ReferenceRun ReferenceFlat(const dram::TimingParams& timing, std::size_t banks,
                           std::size_t rows, const dram::PolicyFactory& factory,
                           dram::SchedulerKind scheduler,
                           dram::RowBufferPolicy page_policy,
                           std::size_t subarrays,
                           const std::vector<dram::Request>& requests,
                           Cycles horizon) {
  const dram::Topology topo{1, 1, 1, banks};
  ReferenceRun run;
  run.end = horizon;
  for (std::size_t b = 0; b < banks; ++b) {
    dram::Bank bank(rows, timing, page_policy, subarrays);
    bank.SetAudit(&run.log, dram::DecomposeBank(topo, b));
    const std::unique_ptr<dram::RefreshPolicy> policy = factory();
    std::vector<dram::Request> queue;
    for (const dram::Request& r : requests) {
      if (r.bank == b) {
        queue.push_back(r);
      }
    }
    std::size_t qi = 0;
    std::vector<dram::Request> pending;

    const auto service_until = [&](Cycles limit) {
      while (true) {
        Cycles t_decide = bank.busy_until();
        if (pending.empty()) {
          if (qi >= queue.size() || queue[qi].arrival >= limit) {
            return;
          }
          t_decide = std::max(t_decide, queue[qi].arrival);
        }
        while (qi < queue.size() && queue[qi].arrival <= t_decide &&
               queue[qi].arrival < limit) {
          pending.push_back(queue[qi++]);
        }
        run.max_pending = std::max(run.max_pending, pending.size());
        const std::size_t pick =
            dram::SelectNextRequest(scheduler, pending, bank);
        bank.ServiceRequest(pending[pick]);
        policy->OnRowAccess(pending[pick].row);
        run.reordered_picks += pick != 0 ? 1 : 0;
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    };

    for (Cycles tick = 0; tick <= horizon; tick += timing.t_refi) {
      service_until(tick);
      dram::RefreshGrantContext ctx;
      ctx.now = tick;
      ctx.demand.now = tick;
      if (qi < queue.size()) {
        ctx.demand.has_next = true;
        ctx.demand.next_arrival = queue[qi].arrival;
        ctx.demand.next_row = queue[qi].row;
      }
      ctx.bank = &bank;
      for (const dram::RefreshOp& op : dram::GrantRefreshes(*policy, ctx)) {
        bank.ExecuteRefresh(op, tick);
      }
    }
    service_until(horizon + 1);
    run.per_bank.push_back(bank.stats());
    run.end = std::max(run.end, bank.stats().last_completion);
  }
  return run;
}

/// The hierarchical run loop in its plain form: every decision instant
/// re-derived for all banks per request, a fresh policy per bank (no shared
/// initial schedule), the allocating GrantRefreshes on every tick.
ReferenceRun ReferenceHierarchical(const dram::TimingTable& table,
                                   std::size_t rows,
                                   const dram::PolicyFactory& factory,
                                   dram::SchedulerKind scheduler,
                                   std::size_t subarrays,
                                   const std::vector<dram::Request>& requests,
                                   Cycles horizon) {
  const dram::Topology& topo = table.topology;
  const std::size_t n = topo.TotalBanks();
  dram::ConstraintEngine engine(table);
  ReferenceRun run;
  std::vector<dram::Bank> banks;
  std::vector<std::unique_ptr<dram::RefreshPolicy>> policies;
  for (std::size_t b = 0; b < n; ++b) {
    banks.emplace_back(rows, table.core, dram::RowBufferPolicy::kOpenPage,
                       subarrays);
    banks.back().SetConstraintEngine(&engine, dram::DecomposeBank(topo, b));
    banks.back().SetAudit(&run.log, dram::DecomposeBank(topo, b));
    policies.push_back(factory());
  }
  std::vector<std::vector<dram::Request>> queues(n);
  for (const dram::Request& r : requests) {
    queues[r.bank].push_back(r);
  }
  std::vector<std::size_t> qi(n, 0);
  std::vector<std::vector<dram::Request>> pending(n);

  const auto service_until = [&](Cycles limit) {
    while (true) {
      bool found = false;
      std::size_t pick_bank = 0;
      Cycles t_decide = 0;
      for (std::size_t b = 0; b < n; ++b) {
        Cycles t = banks[b].busy_until();
        if (pending[b].empty()) {
          if (qi[b] >= queues[b].size() ||
              queues[b][qi[b]].arrival >= limit) {
            continue;
          }
          t = std::max(t, queues[b][qi[b]].arrival);
        }
        if (!found || t < t_decide) {
          t_decide = t;
          pick_bank = b;
          found = true;
        }
      }
      if (!found) {
        return;
      }
      auto& queue = queues[pick_bank];
      auto& waiting = pending[pick_bank];
      while (qi[pick_bank] < queue.size() &&
             queue[qi[pick_bank]].arrival <= t_decide &&
             queue[qi[pick_bank]].arrival < limit) {
        waiting.push_back(queue[qi[pick_bank]++]);
      }
      const std::size_t pick =
          dram::SelectNextRequest(scheduler, waiting, banks[pick_bank]);
      banks[pick_bank].ServiceRequest(waiting[pick]);
      policies[pick_bank]->OnRowAccess(waiting[pick].row);
      waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  };

  for (Cycles tick = 0; tick <= horizon; tick += table.core.t_refi) {
    service_until(tick);
    for (std::size_t b = 0; b < n; ++b) {
      dram::RefreshGrantContext ctx;
      ctx.now = tick;
      ctx.demand.now = tick;
      if (qi[b] < queues[b].size()) {
        ctx.demand.has_next = true;
        ctx.demand.next_arrival = queues[b][qi[b]].arrival;
        ctx.demand.next_row = queues[b][qi[b]].row;
      }
      ctx.bank = &banks[b];
      ctx.engine = &engine;
      ctx.addr = dram::DecomposeBank(topo, b);
      for (const dram::RefreshOp& op :
           dram::GrantRefreshes(*policies[b], ctx)) {
        banks[b].ExecuteRefresh(op, tick);
      }
    }
  }
  service_until(horizon + 1);
  run.end = horizon;
  for (const dram::Bank& bank : banks) {
    run.per_bank.push_back(bank.stats());
    run.end = std::max(run.end, bank.stats().last_completion);
  }
  return run;
}

void ExpectSameStats(const dram::BankStats& a, const dram::BankStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.reads, b.reads) << where;
  EXPECT_EQ(a.writes, b.writes) << where;
  EXPECT_EQ(a.row_hits, b.row_hits) << where;
  EXPECT_EQ(a.row_misses, b.row_misses) << where;
  EXPECT_EQ(a.activations, b.activations) << where;
  EXPECT_EQ(a.full_refreshes, b.full_refreshes) << where;
  EXPECT_EQ(a.partial_refreshes, b.partial_refreshes) << where;
  EXPECT_EQ(a.refresh_busy_cycles, b.refresh_busy_cycles) << where;
  EXPECT_EQ(a.access_busy_cycles, b.access_busy_cycles) << where;
  EXPECT_EQ(a.total_request_latency, b.total_request_latency) << where;
  EXPECT_EQ(a.latency_hist, b.latency_hist) << where;
  EXPECT_EQ(a.last_completion, b.last_completion) << where;
}

bool SameCommand(const dram::Command& a, const dram::Command& b) {
  return a.at == b.at && a.kind == b.kind && a.addr == b.addr &&
         a.subarray == b.subarray && a.row == b.row && a.trfc == b.trfc &&
         a.granularity == b.granularity;
}

struct FlatCase {
  dram::SchedulerKind scheduler;
  std::size_t subarrays;
  dram::RowBufferPolicy page_policy;
};

TEST(HotPath, FlatLoopMatchesReferencePendingVector) {
  using dram::RowBufferPolicy;
  using dram::SchedulerKind;
  const FlatCase cases[] = {
      {SchedulerKind::kFcfs, 1, RowBufferPolicy::kOpenPage},
      {SchedulerKind::kFcfs, 1, RowBufferPolicy::kClosedPage},
      {SchedulerKind::kFcfs, 4, RowBufferPolicy::kOpenPage},
      {SchedulerKind::kFcfs, 4, RowBufferPolicy::kClosedPage},
      {SchedulerKind::kFrFcfs, 1, RowBufferPolicy::kOpenPage},
      {SchedulerKind::kFrFcfs, 1, RowBufferPolicy::kClosedPage},
      {SchedulerKind::kFrFcfs, 4, RowBufferPolicy::kOpenPage},
      {SchedulerKind::kFrFcfs, 4, RowBufferPolicy::kClosedPage},
  };
  std::uint64_t seed = 41;
  for (const FlatCase& fc : cases) {
    core::VrlConfig config;
    config.tech.rows = 256;
    // Two banks share the random stream, so pending sets grow deep enough
    // for picks from the middle of a slice.
    config.banks = 2;
    config.scheduler = fc.scheduler;
    config.subarrays = fc.subarrays;
    config.page_policy = fc.page_policy;
    const core::VrlSystem system(config);
    ASSERT_FALSE(config.TimingTableFor().IsHierarchical());
    const Cycles horizon = config.timing.t_refw / 16;
    const auto requests =
        RandomRequests(config.banks, config.tech.rows, horizon, ++seed);
    // Summed over the policies: VRL-Skip may skip every refresh of a
    // window this busy.
    std::size_t refreshes = 0;
    for (const core::PolicyKind kind : kAllKinds) {
      const std::string where =
          dram::SchedulerName(fc.scheduler) + "/sa" +
          std::to_string(fc.subarrays) +
          (fc.page_policy == RowBufferPolicy::kOpenPage ? "/open/"
                                                        : "/closed/") +
          core::PolicyName(kind);
      const dram::PolicyFactory factory = system.MakePolicyFactory(kind);
      dram::MemoryController controller(config.banks, config.tech.rows,
                                        config.timing, factory, fc.scheduler,
                                        fc.page_policy, fc.subarrays);
      ASSERT_FALSE(controller.hierarchical()) << where;
      telemetry::Recorder recorder;
      controller.AttachTelemetry(&recorder);
      dram::CommandLog log;
      controller.EnableAudit(log);
      const dram::SimulationStats stats = controller.Run(requests, horizon);

      const ReferenceRun ref = ReferenceFlat(
          config.timing, config.banks, config.tech.rows, factory,
          fc.scheduler, fc.page_policy, fc.subarrays, requests, horizon);
      EXPECT_EQ(stats.simulated_cycles, ref.end) << where;
      ASSERT_EQ(stats.per_bank.size(), ref.per_bank.size()) << where;
      for (std::size_t b = 0; b < ref.per_bank.size(); ++b) {
        ExpectSameStats(stats.per_bank[b], ref.per_bank[b],
                        where + " bank " + std::to_string(b));
      }
      ASSERT_EQ(log.size(), ref.log.size()) << where;
      for (std::size_t i = 0; i < log.size(); ++i) {
        ASSERT_TRUE(SameCommand(log.commands()[i], ref.log.commands()[i]))
            << where << " command " << i;
      }
      EXPECT_EQ(recorder.counter("scheduler.reordered_picks").value(),
                ref.reordered_picks)
          << where;
      EXPECT_GT(stats.TotalReads() + stats.TotalWrites(), 0u) << where;
      refreshes += stats.TotalFullRefreshes() + stats.TotalPartialRefreshes();
      // The demand must queue deep enough for FR-FCFS to pick from the
      // middle of a pending set, or the in-place removal goes untested.
      EXPECT_GE(ref.max_pending, 3u) << where;
      if (fc.scheduler == SchedulerKind::kFrFcfs &&
          fc.page_policy == RowBufferPolicy::kOpenPage) {
        EXPECT_GT(ref.reordered_picks, 0u) << where;
      }
    }
    EXPECT_GT(refreshes, 0u);
  }
}

struct HierCase {
  dram::TimingPreset preset;
  dram::SchedulerKind scheduler;
  std::size_t subarrays;
};

TEST(HotPath, HierarchicalLoopMatchesReferenceBankScan) {
  const HierCase cases[] = {
      {dram::TimingPreset::kDdr4_2400, dram::SchedulerKind::kFcfs, 1},
      {dram::TimingPreset::kDdr4_2400, dram::SchedulerKind::kFrFcfs, 4},
      {dram::TimingPreset::kLpddr4_3200, dram::SchedulerKind::kFrFcfs, 1},
      {dram::TimingPreset::kLpddr4_3200, dram::SchedulerKind::kFcfs, 4},
  };
  std::uint64_t seed = 11;
  for (const HierCase& hc : cases) {
    const core::VrlSystem system(
        PresetConfig(hc.preset, hc.scheduler, hc.subarrays));
    const core::VrlConfig& config = system.config();
    const dram::TimingTable table = config.TimingTableFor();
    ASSERT_TRUE(table.IsHierarchical());
    // A sixteenth of a window: every row of some banks comes due, and the
    // demand is dense enough to queue behind refreshes and hierarchy
    // stalls.
    const Cycles horizon = config.timing.t_refw / 16;
    const auto requests = RandomRequests(
        table.topology.TotalBanks(), config.tech.rows, horizon, ++seed);
    for (const core::PolicyKind kind : kAllKinds) {
      const std::string where = dram::PresetName(hc.preset) + "/" +
                                dram::SchedulerName(hc.scheduler) + "/sa" +
                                std::to_string(hc.subarrays) + "/" +
                                core::PolicyName(kind);
      const dram::PolicyFactory factory = system.MakePolicyFactory(kind);
      dram::MemoryController controller(table, config.tech.rows, factory,
                                        hc.scheduler,
                                        dram::RowBufferPolicy::kOpenPage,
                                        hc.subarrays);
      dram::CommandLog log;
      controller.EnableAudit(log);
      const dram::SimulationStats stats = controller.Run(requests, horizon);

      const ReferenceRun ref =
          ReferenceHierarchical(table, config.tech.rows, factory,
                                hc.scheduler, hc.subarrays, requests, horizon);
      EXPECT_EQ(stats.simulated_cycles, ref.end) << where;
      ASSERT_EQ(stats.per_bank.size(), ref.per_bank.size()) << where;
      for (std::size_t b = 0; b < ref.per_bank.size(); ++b) {
        ExpectSameStats(stats.per_bank[b], ref.per_bank[b],
                        where + " bank " + std::to_string(b));
      }
      ASSERT_EQ(log.size(), ref.log.size()) << where;
      for (std::size_t i = 0; i < log.size(); ++i) {
        ASSERT_TRUE(SameCommand(log.commands()[i], ref.log.commands()[i]))
            << where << " command " << i;
      }
      EXPECT_GT(stats.TotalReads() + stats.TotalWrites(), 0u) << where;
      EXPECT_GT(stats.TotalFullRefreshes(), 0u) << where;
    }
  }
}

/// One side of the propose/grant comparison: a policy, its own recorder and
/// bank, and everything the grants produced.
struct GrantSide {
  std::unique_ptr<dram::RefreshPolicy> policy;
  telemetry::Recorder recorder;
  dram::Bank bank;
  dram::RefreshGrantStats stats;
  std::vector<dram::RefreshOp> ops;
  std::vector<Cycles> op_ticks;

  GrantSide(std::unique_ptr<dram::RefreshPolicy> p, const core::VrlConfig& c)
      : policy(std::move(p)),
        bank(c.tech.rows, c.timing, dram::RowBufferPolicy::kOpenPage, 4) {
    policy->set_telemetry(&recorder);
  }

  void Execute(const std::vector<dram::RefreshOp>& granted, Cycles tick) {
    for (const dram::RefreshOp& op : granted) {
      bank.ExecuteRefresh(op, tick);
      ops.push_back(op);
      op_ticks.push_back(tick);
    }
  }
};

/// Drives `reference` with the allocating GrantRefreshes on every tick and
/// `reused` the way the controller does: one buffer set for the whole run
/// and no policy call on quiet ticks.  Demand and row accesses are the
/// same random stream on both sides.  Returns the number of skipped ticks.
std::size_t DriveBothWays(GrantSide& reference, GrantSide& reused,
                          Cycles t_refi, Cycles horizon, std::uint64_t seed,
                          fault::AdaptiveVrlPolicy* ref_adaptive = nullptr,
                          fault::AdaptiveVrlPolicy* reused_adaptive = nullptr) {
  std::mt19937_64 rng(seed);
  dram::RefreshGrantBuffers buffers;
  std::size_t skipped = 0;
  const std::size_t rows = reference.policy->rows();
  for (Cycles tick = 0; tick <= horizon; tick += t_refi) {
    dram::RefreshGrantContext ctx;
    ctx.now = tick;
    ctx.demand.now = tick;
    if (rng() % 2 == 0) {
      ctx.demand.has_next = true;
      ctx.demand.next_arrival = tick + rng() % 128;
      ctx.demand.next_row = static_cast<std::size_t>(rng() % rows);
    }

    ctx.bank = &reference.bank;
    reference.Execute(
        dram::GrantRefreshes(*reference.policy, ctx, &reference.stats), tick);

    ctx.bank = &reused.bank;
    if (tick < reused.policy->NextProposalAt()) {
      reused.policy->SkipQuietTick(tick);
      ++skipped;
    } else {
      dram::GrantRefreshes(*reused.policy, ctx, buffers, &reused.stats);
      reused.Execute(buffers.ops, tick);
    }

    // Row activations between ticks: VRL-Access counter resets and the
    // VRL-Skip restore clock, which reads the last tick seen.
    if (rng() % 3 == 0) {
      const auto row = static_cast<std::size_t>(rng() % rows);
      reference.policy->OnRowAccess(row);
      reused.policy->OnRowAccess(row);
    }
    if (ref_adaptive != nullptr && tick == 40 * t_refi) {
      ref_adaptive->OnSensingFailure(3, tick);
      reused_adaptive->OnSensingFailure(3, tick);
    }
  }
  return skipped;
}

void ExpectSameSides(GrantSide& a, GrantSide& b, const std::string& where) {
  ASSERT_EQ(a.ops.size(), b.ops.size()) << where;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const dram::RefreshOp& x = a.ops[i];
    const dram::RefreshOp& y = b.ops[i];
    ASSERT_TRUE(x.row == y.row && x.trfc == y.trfc &&
                x.is_full == y.is_full && x.granularity == y.granularity &&
                a.op_ticks[i] == b.op_ticks[i])
        << where << " op " << i;
  }
  EXPECT_EQ(a.stats.proposals, b.stats.proposals) << where;
  EXPECT_EQ(a.stats.nonurgent_proposals, b.stats.nonurgent_proposals)
      << where;
  EXPECT_EQ(a.stats.granted, b.stats.granted) << where;
  EXPECT_EQ(a.stats.deferred, b.stats.deferred) << where;
  EXPECT_EQ(a.stats.urgent_grants, b.stats.urgent_grants) << where;
  a.policy->FlushTelemetry();
  b.policy->FlushTelemetry();
  const auto snap_a = a.recorder.Snapshot().WithoutTimers();
  EXPECT_FALSE(snap_a.metrics.empty()) << where;
  EXPECT_EQ(snap_a, b.recorder.Snapshot().WithoutTimers()) << where;
}

TEST(HotPath, ReusedBufferQuietTickGrantsMatchPerTickVectorGrants) {
  const core::VrlSystem system(core::VrlConfig{[] {
    core::VrlConfig config;
    config.tech.rows = 256;
    return config;
  }()});
  const core::VrlConfig& config = system.config();
  const Cycles t_refi = config.timing.t_refi;
  const Cycles horizon = system.HorizonForWindows(2);
  std::uint64_t seed = 100;
  for (const core::PolicyKind kind : kAllKinds) {
    const dram::PolicyFactory factory = system.MakePolicyFactory(kind);
    GrantSide reference(factory(), config);
    GrantSide reused(factory(), config);
    const std::size_t skipped =
        DriveBothWays(reference, reused, t_refi, horizon, ++seed);
    ExpectSameSides(reference, reused, core::PolicyName(kind));
    // The deadline-driven policies do have quiet ticks to skip, and DARP
    // and SARP see demand collisions to defer around.
    EXPECT_GT(skipped, 0u) << core::PolicyName(kind);
    if (kind == core::PolicyKind::kDarp || kind == core::PolicyKind::kSarp) {
      EXPECT_GT(reference.stats.deferred, 0u) << core::PolicyName(kind);
    }
  }

  // The adaptive wrapper cannot tell when it will next propose: it reports
  // 0, is asked on every tick, and still matches the vector form.
  const auto plan = dram::MakeRefreshPlan(
      system.binning(), config.tech.clock_period_s, system.row_mprsf());
  const auto make_adaptive = [&] {
    return std::make_unique<fault::AdaptiveVrlPolicy>(
        system.MakePolicyFactory(core::PolicyKind::kVrlAccess)(), plan,
        system.TauFullCycles(), system.TauPartialCycles(),
        config.timing.t_refw, t_refi);
  };
  auto ref_policy = make_adaptive();
  auto reused_policy = make_adaptive();
  fault::AdaptiveVrlPolicy* ref_adaptive = ref_policy.get();
  fault::AdaptiveVrlPolicy* reused_adaptive = reused_policy.get();
  EXPECT_EQ(reused_adaptive->NextProposalAt(), 0u);
  GrantSide reference(std::move(ref_policy), config);
  GrantSide reused(std::move(reused_policy), config);
  EXPECT_EQ(DriveBothWays(reference, reused, t_refi, horizon, 7, ref_adaptive,
                          reused_adaptive),
            0u);
  ExpectSameSides(reference, reused, "Adaptive(VRL-Access)");
  EXPECT_GT(ref_adaptive->stats().forced_full_refreshes, 0u);
}

TEST(HotPath, QuietTicksStillEnforceMonotonicNow) {
  dram::JedecPolicy policy(16, 1600, 10);
  EXPECT_EQ(policy.NextProposalAt(), 0u);  // Not seeded yet: always ask.
  std::vector<dram::RefreshProposal> out;
  policy.Propose(0, dram::DemandView{}, out);
  ASSERT_EQ(out.size(), 1u);  // Row 0 is due at 0.
  EXPECT_EQ(policy.NextProposalAt(), 100u);
  policy.SkipQuietTick(50);
  EXPECT_THROW(policy.SkipQuietTick(49), ConfigError);
  EXPECT_THROW(policy.Propose(49, dram::DemandView{}, out), ConfigError);
}

TEST(HotPath, AdoptedInitialScheduleMatchesABuiltOne) {
  dram::RowRefreshPlan plan;
  plan.period_cycles = {400, 800, 400, 1200, 800, 400};
  dram::RowRefreshPlan other_plan = plan;
  other_plan.period_cycles.back() = 1600;

  dram::RaidrPolicy built(plan, 10);
  dram::RaidrPolicy donor(plan, 10);
  dram::RaidrPolicy adopter(plan, 10);
  adopter.AdoptInitialSchedule(donor);
  // A donor with other periods is not copied from.
  dram::RaidrPolicy other(other_plan, 10);
  dram::RaidrPolicy refused(plan, 10);
  refused.AdoptInitialSchedule(other);
  // Nor is a donor that has already run.
  dram::RaidrPolicy late(plan, 10);
  late.AdoptInitialSchedule(adopter);  // adopter is still pristine: copies
  dram::RaidrPolicy ran(plan, 10);
  (void)ran.CollectDue(0);
  dram::RaidrPolicy later(plan, 10);
  later.AdoptInitialSchedule(ran);  // builds its own

  const std::vector<dram::RaidrPolicy*> sides = {&donor, &adopter, &refused,
                                                 &late, &later};
  for (Cycles now = 0; now <= 4000; now += 50) {
    const auto expected = built.CollectDue(now);
    for (dram::RaidrPolicy* side : sides) {
      const auto ops = side->CollectDue(now);
      ASSERT_EQ(ops.size(), expected.size()) << now;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(ops[i].row, expected[i].row) << now;
      }
    }
  }
}

}  // namespace
