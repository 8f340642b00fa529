#include "checks.hpp"

#include <cstdio>
#include <string>

namespace perfbench {
namespace {

std::string Fixed(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

bool Within(double v, double lo, double hi) { return v >= lo && v <= hi; }

}  // namespace

void CheckFig4(const std::vector<vrl::core::WorkloadResult>& results,
               const Fig4Bounds& bounds, PassChecks& checks) {
  checks.ExpectAll(checks.ops() == 3 * results.size() && !results.empty(),
                   "fig4: expected three operations per suite entry");
  for (std::size_t i = 0; i < results.size() && 3 * i + 2 < checks.ops();
       ++i) {
    const auto& r = results[i];
    const bool ordered = r.raidr_overhead > r.vrl_overhead &&
                         r.vrl_overhead > r.vrl_access_overhead;
    for (std::size_t k = 0; k < 3; ++k) {
      checks.Expect(ordered, 3 * i + k,
                    "fig4: " + r.workload +
                        " overheads not ordered RAIDR > VRL > VRL-Access");
    }
  }
  if (results.empty()) {
    return;
  }
  const vrl::core::SuiteAverages avg = vrl::core::Average(results);
  checks.ExpectAll(Within(avg.vrl, bounds.vrl_lo, bounds.vrl_hi),
                   "fig4: VRL/RAIDR overhead " + Fixed(avg.vrl) +
                       " outside [" + Fixed(bounds.vrl_lo) + ", " +
                       Fixed(bounds.vrl_hi) + "]");
  checks.ExpectAll(
      Within(avg.vrl_access, bounds.vrl_access_lo, bounds.vrl_access_hi),
      "fig4: VRL-Access/RAIDR overhead " + Fixed(avg.vrl_access) +
          " outside [" + Fixed(bounds.vrl_access_lo) + ", " +
          Fixed(bounds.vrl_access_hi) + "]");
  checks.ExpectAll(
      Within(avg.vrl_power, bounds.vrl_power_lo, bounds.vrl_power_hi),
      "fig4: VRL/RAIDR refresh power " + Fixed(avg.vrl_power) +
          " outside [" + Fixed(bounds.vrl_power_lo) + ", " +
          Fixed(bounds.vrl_power_hi) + "]");
}

void CheckAudit(const vrl::dram::AuditReport& report, std::size_t log_size,
                std::size_t op, PassChecks& checks) {
  checks.Expect(report.violations.empty(), op,
                "ddr4: auditor reported " +
                    std::to_string(report.violations.size()) +
                    " timing violations");
  checks.Expect(report.commands_checked == log_size, op,
                "ddr4: auditor checked " +
                    std::to_string(report.commands_checked) + " of " +
                    std::to_string(log_size) + " logged commands");
}

void CheckSaturated(const vrl::dram::SimulationStats& stats,
                    std::size_t requests, vrl::Cycles horizon,
                    const BacklogBounds& bounds, std::size_t op,
                    PassChecks& checks) {
  const std::size_t serviced = stats.TotalReads() + stats.TotalWrites();
  checks.Expect(serviced == requests, op,
                "saturated: serviced " + std::to_string(serviced) + " of " +
                    std::to_string(requests) + " requests");
  checks.Expect(
      stats.AverageRequestLatency() <= bounds.max_mean_latency_cycles, op,
      "saturated: mean latency " + Fixed(stats.AverageRequestLatency()) +
          " cycles exceeds " + Fixed(bounds.max_mean_latency_cycles));
  checks.Expect(stats.simulated_cycles <= horizon + bounds.max_drain_cycles,
                op,
                "saturated: backlog drained " +
                    std::to_string(stats.simulated_cycles - horizon) +
                    " cycles past the horizon");
}

void CheckResilience(const vrl::fault::CampaignReport& jedec,
                     const vrl::fault::CampaignReport& adaptive,
                     PassChecks& checks) {
  constexpr std::size_t kAdaptiveLeg = 2;
  checks.Expect(adaptive.unrecovered_failures == 0, kAdaptiveLeg,
                "fault: adaptive leg lost data (" +
                    std::to_string(adaptive.unrecovered_failures) +
                    " unrecovered failures)");
  checks.Expect(adaptive.refresh_busy_cycles < jedec.refresh_busy_cycles,
                kAdaptiveLeg,
                "fault: adaptive refresh cycles " +
                    std::to_string(adaptive.refresh_busy_cycles) +
                    " not below JEDEC's " +
                    std::to_string(jedec.refresh_busy_cycles));
}

void CheckRepeat(const std::vector<std::uint64_t>& first,
                 const std::vector<std::uint64_t>& again,
                 PassChecks& checks) {
  checks.ExpectAll(first == again,
                   "repeat: simulated statistics differ from the first pass");
}

}  // namespace perfbench
