#include "core/vrl_system.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dram/policy_registry.hpp"

namespace vrl::core {

namespace {

constexpr PolicyKind kAllPolicyKinds[] = {
    PolicyKind::kJedec,  PolicyKind::kRaidr, PolicyKind::kVrl,
    PolicyKind::kVrlAccess, PolicyKind::kVrlSkip, PolicyKind::kDarp,
    PolicyKind::kSarp,
};

}  // namespace

std::string PolicyName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kJedec:
      return "JEDEC";
    case PolicyKind::kRaidr:
      return "RAIDR";
    case PolicyKind::kVrl:
      return "VRL";
    case PolicyKind::kVrlAccess:
      return "VRL-Access";
    case PolicyKind::kVrlSkip:
      return "VRL-Skip";
    case PolicyKind::kDarp:
      return "DARP";
    case PolicyKind::kSarp:
      return "SARP";
  }
  return "?";
}

PolicyKind PolicyFromName(std::string_view name) {
  // The registry canonicalizes and throws with the full valid-name list.
  const dram::PolicyInfo& info = dram::PolicyRegistry::Global().Get(name);
  for (const PolicyKind kind : kAllPolicyKinds) {
    if (PolicyName(kind) == info.name) {
      return kind;
    }
  }
  throw ConfigError("PolicyFromName: policy '" + info.name +
                    "' is registered but has no PolicyKind (use "
                    "dram::PolicyRegistry directly)");
}

void VrlConfig::ApplyPreset(dram::TimingPreset p) {
  preset = p;
  banks = dram::MakeTimingTable(p, banks).topology.TotalBanks();
}

dram::TimingTable VrlConfig::TimingTableFor() const {
  dram::TimingTable table = dram::MakeTimingTable(preset, banks);
  table.core = timing;
  return table;
}

void VrlConfig::Validate() const {
  tech.Validate();
  timing.Validate();
  if (banks == 0) {
    throw ConfigError("VrlConfig: need at least one bank");
  }
  if (preset != dram::TimingPreset::kSingleBankEquivalent &&
      banks != dram::MakeTimingTable(preset).topology.TotalBanks()) {
    throw ConfigError(
        "VrlConfig: banks does not match the preset's topology (use "
        "ApplyPreset to keep them in sync)");
  }
  if (nbits == 0 || nbits > 8) {
    throw ConfigError("VrlConfig: nbits must be in [1, 8]");
  }
  if (retention_guardband < 1.0) {
    throw ConfigError("VrlConfig: retention guardband must be >= 1");
  }
}

VrlSystem::VrlSystem(const VrlConfig& config) : config_(config) {
  config_.Validate();
  // Profile the bank (the paper assumes profiling data is available; see
  // retention/profile.hpp).
  Rng rng(config_.seed);
  const retention::RetentionDistribution dist(config_.retention);
  InitializeFromProfile(retention::RetentionProfile::Generate(
      dist, config_.tech.rows, config_.tech.columns, rng));
}

VrlSystem::VrlSystem(const VrlConfig& config,
                     retention::RetentionProfile profile)
    : config_(config) {
  config_.Validate();
  if (profile.rows() != config_.tech.rows) {
    throw ConfigError(
        "VrlSystem: external profile row count does not match the bank");
  }
  InitializeFromProfile(std::move(profile));
}

void VrlSystem::InitializeFromProfile(retention::RetentionProfile profile) {
  model_ = std::make_unique<model::RefreshModel>(config_.tech, config_.spec);
  tau_full_ = model_->FullRefreshTimings();
  tau_partial_ = model_->PartialRefreshTimings();
  profile_ =
      std::make_unique<retention::RetentionProfile>(std::move(profile));

  // Spare sampling continues the profiling RNG stream deterministically.
  Rng rng(config_.seed ^ 0x51A7E5ULL);
  const retention::RetentionDistribution dist(config_.retention);

  const auto periods = retention::StandardBinPeriods();

  // Spare-row remapping: rows the guardband cannot protect (derated
  // retention below the base period) are moved to the strongest spares.
  if (config_.spare_rows > 0) {
    std::vector<double> spares(config_.spare_rows);
    for (auto& spare : spares) {
      spare = dist.SampleRowRetention(rng, config_.tech.columns);
    }
    std::sort(spares.begin(), spares.end());  // ascending; strongest last

    // Weakest data rows first.
    std::vector<std::size_t> order(profile_->rows());
    for (std::size_t r = 0; r < order.size(); ++r) {
      order[r] = r;
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return profile_->RowRetention(a) < profile_->RowRetention(b);
    });

    std::vector<double> remapped = profile_->row_retention();
    for (const std::size_t row : order) {
      const double derated =
          remapped[row] / config_.retention_guardband;
      if (derated >= periods.front() || spares.empty()) {
        continue;
      }
      const double spare = spares.back();
      // A spare only helps if it clears the guardband itself and improves
      // on the row it replaces; once the strongest remaining spare fails
      // that, all remaining spares do.
      if (spare <= remapped[row] ||
          spare / config_.retention_guardband < periods.front()) {
        break;
      }
      spares.pop_back();
      remapped[row] = spare;
      ++remapped_rows_;
    }
    profile_ = std::make_unique<retention::RetentionProfile>(
        std::move(remapped));
  }

  // Planning view of the profile: derated by the retention guardband,
  // clamped at the base refresh period (see VrlConfig::retention_guardband).
  std::vector<double> planned(profile_->rows());
  for (std::size_t r = 0; r < planned.size(); ++r) {
    const double derated =
        profile_->RowRetention(r) / config_.retention_guardband;
    if (derated < periods.front()) {
      ++clamped_rows_;
    }
    planned[r] = std::max(derated, periods.front());
  }
  const retention::RetentionProfile planning_profile(std::move(planned));

  binning_ = retention::BinRows(planning_profile, periods);

  // MPRSF per row via the analytical model, capped by the counter width.
  const retention::MprsfCalculator calc(*model_, tau_partial_.tau_post_s);
  row_mprsf_ =
      calc.ComputeRowMprsf(planning_profile, binning_, config_.MprsfCap());
}

trace::AddressGeometry VrlSystem::Geometry() const {
  trace::AddressGeometry g;
  g.banks = config_.banks;
  g.rows = config_.tech.rows;
  g.columns = config_.tech.columns;
  return g;
}

dram::PolicyFactory VrlSystem::MakePolicyFactory(PolicyKind kind) const {
  // Every kind builds through the registry; the context only carries the
  // plans the policy actually consumes (computed identically to the
  // pre-registry factories, keeping the emitted op streams byte-identical).
  dram::PolicyBuildContext ctx;
  ctx.rows = config_.tech.rows;
  ctx.base_window = config_.timing.t_refw;
  ctx.t_refi = config_.timing.t_refi;
  ctx.trfc_full = TauFullCycles();
  ctx.trfc_partial = TauPartialCycles();
  const double clock = config_.tech.clock_period_s;
  switch (kind) {
    case PolicyKind::kRaidr:
      ctx.binned_plan = dram::MakeRefreshPlan(binning_, clock);
      break;
    case PolicyKind::kVrl:
    case PolicyKind::kVrlAccess:
    case PolicyKind::kVrlSkip:
      ctx.vrl_plan = dram::MakeRefreshPlan(binning_, clock, row_mprsf_);
      break;
    default:
      break;
  }
  const std::string name = PolicyName(kind);
  return [ctx, name]() {
    return dram::PolicyRegistry::Global().Build(name, ctx);
  };
}

dram::SimulationStats VrlSystem::Simulate(
    PolicyKind kind, const std::vector<dram::Request>& requests,
    Cycles horizon, telemetry::Recorder* recorder,
    dram::CommandLog* audit) const {
  dram::MemoryController controller(config_.TimingTableFor(),
                                    config_.tech.rows, MakePolicyFactory(kind),
                                    config_.scheduler, config_.page_policy,
                                    config_.subarrays);
  if (recorder == nullptr) {
    recorder = telemetry_.get();
  }
  if (recorder != nullptr) {
    controller.AttachTelemetry(recorder);
  }
  if (audit != nullptr) {
    controller.EnableAudit(*audit);
  }
  return controller.Run(requests, horizon);
}

telemetry::Recorder* VrlSystem::EnableTelemetry(
    telemetry::RecorderOptions options) {
  telemetry_ = std::make_unique<telemetry::Recorder>(options);
  return telemetry_.get();
}

Cycles VrlSystem::HorizonForWindows(std::size_t windows) const {
  return config_.timing.t_refw * static_cast<Cycles>(windows);
}

fault::CampaignReport VrlSystem::RunFaultCampaign(
    PolicyKind kind, fault::FaultSchedule& faults,
    const FaultCampaignOptions& options) const {
  fault::CampaignSetup setup;
  setup.clock_period_s = config_.tech.clock_period_s;
  setup.t_refi = config_.timing.t_refi;
  setup.base_window = config_.timing.t_refw;
  setup.windows = options.windows;
  setup.tau_post_full_s = tau_full_.tau_post_s;
  setup.tau_post_partial_s = tau_partial_.tau_post_s;
  setup.max_logged_events = options.max_logged_events;
  setup.telemetry =
      options.telemetry != nullptr ? options.telemetry : telemetry_.get();
  setup.on_window = options.on_window;
  setup.heartbeat = options.heartbeat;

  auto policy = MakePolicyFactory(kind)();
  if (!options.adaptive) {
    return fault::RunCampaign(*model_, *profile_, *policy, faults, setup);
  }

  // Base plan the demotion ladder starts from.  For JEDEC every row's base
  // setting is the base window (its binned period would *lengthen* the
  // schedule); the retention-aware policies start from their binned plan.
  dram::RowRefreshPlan plan;
  switch (kind) {
    case PolicyKind::kJedec:
    case PolicyKind::kDarp:
    case PolicyKind::kSarp:
      // Base-window schedules: every row's base setting is t_refw (DARP and
      // SARP reschedule *when* a refresh lands, not how often).
      plan.period_cycles.assign(config_.tech.rows, config_.timing.t_refw);
      break;
    case PolicyKind::kRaidr:
      plan = dram::MakeRefreshPlan(binning_, config_.tech.clock_period_s);
      break;
    case PolicyKind::kVrl:
    case PolicyKind::kVrlAccess:
    case PolicyKind::kVrlSkip:
      plan = dram::MakeRefreshPlan(binning_, config_.tech.clock_period_s,
                                   row_mprsf_);
      break;
  }
  fault::AdaptiveVrlPolicy adaptive(
      std::move(policy), std::move(plan), TauFullCycles(),
      TauPartialCycles(), config_.timing.t_refw, config_.timing.t_refi,
      options.adaptive_params);
  return fault::RunCampaign(*model_, *profile_, adaptive, faults, setup);
}

}  // namespace vrl::core
