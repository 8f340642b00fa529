#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dram/refresh_policy.hpp"
#include "dram/request.hpp"
#include "dram/topology.hpp"

/// \file scheduler.hpp
/// Request scheduling disciplines for the memory controller.
///
///  * FCFS    — strict arrival order (simple, predictable).
///  * FR-FCFS — first-ready, first-come-first-served (Rixner et al., ISCA
///    2000): among the requests that have arrived, prefer ones hitting the
///    currently open row (they are "ready" — no precharge/activate needed),
///    oldest first within each class.  This is the standard high-throughput
///    open-page discipline and raises the row-buffer hit rate, which also
///    matters to VRL-Access (each activation resets a partial-refresh
///    counter; hits do not re-activate).
///
/// The refresh side of scheduling lives here too: GrantRefreshes is phase
/// two of the propose/grant refresh contract (refresh_policy.hpp,
/// docs/POLICIES.md) — it arbitrates a policy's proposals against the
/// demand queue and the hierarchy's constraint engine.

namespace vrl::dram {

enum class SchedulerKind { kFcfs, kFrFcfs };

/// Human-readable scheduler name.
std::string SchedulerName(SchedulerKind kind);

/// Round-trip inverse of SchedulerName.  Case-insensitive; '-' and '_' are
/// interchangeable and ignorable ("fr-fcfs", "FR_FCFS" and "frfcfs" all
/// parse).  \throws vrl::ConfigError on an unknown name.
SchedulerKind SchedulerFromName(std::string_view name);

/// Picks the next request to service from one bank's `pending` slice
/// (non-empty, ordered by arrival) and returns its index in the slice: the
/// oldest under FCFS; under FR-FCFS the oldest whose row is open in one of
/// the bank's row buffers (banks with several subarrays have one each),
/// else the oldest.  The controller's run loops call this on their
/// per-bank queues; a std::vector<Request> converts to the span.
std::size_t SelectNextRequest(SchedulerKind kind,
                              std::span<const Request> pending,
                              const Bank& bank);

/// The same pick given the bank's open row instead of the bank.
std::size_t SelectNextRequest(SchedulerKind kind,
                              std::span<const Request> pending,
                              std::optional<std::size_t> open_row);

/// Grant accounting across one run, exported by the controller as
/// `dram.refresh.*` telemetry when a scheduler-coupled policy was active
/// (i.e. at least one non-urgent proposal was seen — legacy policies leave
/// the export untouched, keeping golden snapshots byte-identical).
struct RefreshGrantStats {
  std::uint64_t proposals = 0;
  std::uint64_t nonurgent_proposals = 0;
  std::uint64_t granted = 0;
  std::uint64_t deferred = 0;
  std::uint64_t urgent_grants = 0;  ///< Grants forced by a deadline.
};

/// Everything the grant decision may consult.  `bank`, `engine` and `addr`
/// are optional: without a bank there is no collision probe and non-urgent
/// proposals are granted (the shim behaviour of campaign/integrity
/// replays); without an engine the REFpb activation-window probe is
/// skipped.
struct RefreshGrantContext {
  Cycles now = 0;
  DemandView demand;
  const Bank* bank = nullptr;
  const ConstraintEngine* engine = nullptr;
  BankAddress addr;
};

/// Reusable scratch of GrantRefreshes.  The controller keeps one per run,
/// so the per-tick propose/grant path allocates nothing once it is warm.
struct RefreshGrantBuffers {
  std::vector<RefreshProposal> proposals;  ///< Scratch: this tick's offers.
  std::vector<RefreshOp> ops;  ///< Output: granted ops, in proposal order.
};

/// Phase two of the propose/grant refresh contract: asks `policy` for its
/// proposals at `ctx.now` and grants or defers each one.
///
/// Grant rules, per proposal:
///  - urgent (deadline reached) — always granted; the retention schedule
///    outranks demand.
///  - non-urgent, demand imminent — deferred when the next demand request
///    would arrive before the refresh completes *and* would collide with
///    it: any demand collides with a bank-level refresh (kPerBank /
///    kAllBank), only same-subarray demand collides with a kSubarray
///    refresh (SARP's parallelism).
///  - non-urgent REFpb, activation window closed — deferred when the
///    constraint engine's PeekActivate cannot issue it at `ctx.now`
///    (tRRD/tFAW pressure from demand ACTs).
///  - otherwise granted.
///
/// Granted proposals reach `policy.OnGrant` (telemetry + re-arm) and their
/// ops replace the contents of `buffers.ops`, in proposal order; deferred
/// ones reach `policy.OnDefer` and stay outstanding inside the policy.
void GrantRefreshes(RefreshPolicy& policy, const RefreshGrantContext& ctx,
                    RefreshGrantBuffers& buffers,
                    RefreshGrantStats* stats = nullptr);

/// Allocating form of the above for per-call users (fault campaign,
/// integrity replay, tests): returns the granted ops.
std::vector<RefreshOp> GrantRefreshes(RefreshPolicy& policy,
                                      const RefreshGrantContext& ctx,
                                      RefreshGrantStats* stats = nullptr);

}  // namespace vrl::dram
