#pragma once

#include <cstdint>
#include <vector>

#include "core/experiments.hpp"
#include "dram/auditor.hpp"
#include "dram/controller.hpp"
#include "result.hpp"

/// \file checks.hpp
/// Output checks of the four workloads.  Each check fails the operations it
/// guards (see PassChecks), so a violated expectation shows up in the
/// run's `failed` count and turns `correct` false.

namespace perfbench {

/// Fig. 4 claims the fig4-flat workload holds the suite to.  Averages are
/// arithmetic means of the per-entry ratios to RAIDR (core::Average).  The
/// paper reports VRL 0.77 and VRL-Access 0.66 of RAIDR's refresh overhead;
/// this reproduction measures 0.757 / 0.699 and VRL refresh power 0.878 of
/// RAIDR's at 4 windows.
struct Fig4Bounds {
  double vrl_lo = 0.70, vrl_hi = 0.82;
  double vrl_access_lo = 0.60, vrl_access_hi = 0.76;
  double vrl_power_lo = 0.82, vrl_power_hi = 0.94;
};

/// Operations: three per suite entry (RAIDR, VRL, VRL-Access), in suite
/// order.  An entry whose overheads are not strictly RAIDR > VRL >
/// VRL-Access fails its three operations; an average outside `bounds`
/// fails every operation.
void CheckFig4(const std::vector<vrl::core::WorkloadResult>& results,
               const Fig4Bounds& bounds, PassChecks& checks);

/// A clean audit of the whole log: zero violations and every logged
/// command checked.  Fails operation `op`.
void CheckAudit(const vrl::dram::AuditReport& report, std::size_t log_size,
                std::size_t op, PassChecks& checks);

/// Bounded-backlog limits of the saturated workload: queues form (mean
/// latency well above the ~30-cycle unloaded service time) but drain.
struct BacklogBounds {
  double max_mean_latency_cycles = 2000.0;
  vrl::Cycles max_drain_cycles = 20000;  ///< Past the horizon.
};

/// Every request serviced and the backlog bounded.  Fails operation `op`.
void CheckSaturated(const vrl::dram::SimulationStats& stats,
                    std::size_t requests, vrl::Cycles horizon,
                    const BacklogBounds& bounds, std::size_t op,
                    PassChecks& checks);

/// Operations: the JEDEC, plain and adaptive legs, in that order.  The
/// adaptive leg fails on any unrecovered failure, or when its refresh
/// cycles are not below the JEDEC baseline's.
void CheckResilience(const vrl::fault::CampaignReport& jedec,
                     const vrl::fault::CampaignReport& adaptive,
                     PassChecks& checks);

/// Fails every operation when a repeated pass in one process did not
/// reproduce the first pass's simulated statistics exactly.
void CheckRepeat(const std::vector<std::uint64_t>& first,
                 const std::vector<std::uint64_t>& again, PassChecks& checks);

}  // namespace perfbench
