// Property-based timing conformance: randomized request streams pushed
// through every timing preset must replay violation-free under the passive
// TimingAuditor, byte-for-byte deterministically — including across
// ParallelMap thread counts (1/2/8), the determinism contract CI relies on
// when it diffs audit artifacts.  The single-bank-equivalent preset must
// additionally reproduce the flat controller's statistics exactly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dram/auditor.hpp"
#include "dram/controller.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/timing_table.hpp"
#include "retention/profile.hpp"

namespace vrl::dram {
namespace {

TimingParams FastTiming() {
  TimingParams t;
  t.t_refi = 1000;
  t.t_refw = 64000;
  return t;
}

retention::BinningResult UniformBinning(std::size_t rows, double retention) {
  const retention::RetentionProfile profile(
      std::vector<double>(rows, retention));
  return retention::BinRows(profile, retention::StandardBinPeriods());
}

PolicyFactory JedecFactory(std::size_t rows, Cycles window) {
  return [=]() { return std::make_unique<JedecPolicy>(rows, window, 26); };
}

/// A VRL factory so the audited streams carry *variable* refresh latencies —
/// the paper's point, and the interesting case for refresh-occupancy checks.
PolicyFactory VrlFactory(std::size_t rows) {
  const auto plan = MakeRefreshPlan(UniformBinning(rows, 1.0), 2.5e-9,
                                    std::vector<std::size_t>(rows, 3));
  return [=]() { return std::make_unique<VrlPolicy>(plan, 26, 15); };
}

std::vector<Request> RandomStream(std::size_t n, std::size_t banks,
                                  std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> requests;
  requests.reserve(n);
  Cycles arrival = 0;
  for (std::size_t i = 0; i < n; ++i) {
    arrival += static_cast<Cycles>(rng.UniformInt(40));
    Request r;
    r.arrival = arrival;
    r.bank = static_cast<std::uint16_t>(rng.UniformInt(banks));
    r.row = static_cast<std::uint32_t>(rng.UniformInt(rows));
    rng.UniformInt(64);  // the former column draw: keeps the stream seeded
    r.type = rng.UniformInt(2) == 0 ? RequestType::kRead : RequestType::kWrite;
    requests.push_back(r);
  }
  return requests;
}

/// One audited run: build the preset's table on fast core timings, simulate
/// a random stream, replay the command log, return the audit text.
std::string RunAudited(TimingPreset preset, std::uint64_t seed,
                       bool vrl_policy = false, AuditReport* out = nullptr) {
  TimingTable table = MakeTimingTable(preset);
  table.core = FastTiming();
  const std::size_t rows = 16;
  MemoryController controller(
      table, rows,
      vrl_policy ? VrlFactory(rows) : JedecFactory(rows, table.core.t_refw),
      SchedulerKind::kFrFcfs);
  CommandLog log;
  controller.EnableAudit(log);
  const auto requests =
      RandomStream(300, table.topology.TotalBanks(), rows, seed);
  controller.Run(requests, 2 * table.core.t_refw);
  const TimingAuditor auditor(table);
  AuditReport report = auditor.Audit(log);
  if (out != nullptr) {
    *out = report;
  }
  return report.ToText(PresetName(preset));
}

// ---------------------------------------------------------------------------
// Zero violations on every preset, for every policy flavor
// ---------------------------------------------------------------------------

class PresetConformance : public ::testing::TestWithParam<TimingPreset> {};

TEST_P(PresetConformance, RandomStreamsAuditClean) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    AuditReport report;
    RunAudited(GetParam(), seed, /*vrl_policy=*/false, &report);
    EXPECT_TRUE(report.clean())
        << PresetName(GetParam()) << " seed=" << seed << "\n"
        << report.ToText(PresetName(GetParam()));
    EXPECT_GT(report.commands_checked, 300u);
  }
}

TEST_P(PresetConformance, VariableLatencyRefreshAuditsClean) {
  AuditReport report;
  RunAudited(GetParam(), 17, /*vrl_policy=*/true, &report);
  EXPECT_TRUE(report.clean()) << report.ToText(PresetName(GetParam()));
  EXPECT_GT(report.commands_checked, 0u);
}

TEST_P(PresetConformance, AuditTextIsDeterministic) {
  EXPECT_EQ(RunAudited(GetParam(), 5), RunAudited(GetParam(), 5));
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetConformance,
                         ::testing::ValuesIn(kAllTimingPresets),
                         [](const auto& info) {
                           return PresetName(info.param);
                         });

// ---------------------------------------------------------------------------
// Thread-count invariance: the audit artifact CI diffs must not depend on
// how many workers produced it
// ---------------------------------------------------------------------------

TEST(ThreadInvariance, AuditLogsByteIdenticalAcross1And2And8Threads) {
  const TimingPreset presets[] = {TimingPreset::kDdr3_1600,
                                  TimingPreset::kDdr4_2400,
                                  TimingPreset::kLpddr4_3200};
  const std::size_t jobs = 6;
  const auto sweep = [&](std::size_t threads) {
    const auto texts = ParallelMap(
        "conformance_sweep", jobs,
        [&](std::size_t i) {
          return RunAudited(presets[i % 3], 100 + i, i % 2 == 1);
        },
        threads);
    std::string joined;
    for (const auto& text : texts) {
      joined += text;
    }
    return joined;
  };
  const std::string serial = sweep(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(sweep(2), serial);
  EXPECT_EQ(sweep(8), serial);
}

// ---------------------------------------------------------------------------
// Single-bank-equivalent ≡ flat model, statistic for statistic
// ---------------------------------------------------------------------------

TEST(SingleBankEquivalent, ReproducesFlatControllerStatsExactly) {
  const std::size_t banks = 8;
  const std::size_t rows = 16;
  const TimingParams timing = FastTiming();
  for (const std::uint64_t seed : {11ULL, 12ULL}) {
    const auto requests = RandomStream(400, banks, rows, seed);
    MemoryController flat(banks, rows, timing,
                          JedecFactory(rows, timing.t_refw),
                          SchedulerKind::kFrFcfs);
    TimingTable table =
        MakeTimingTable(TimingPreset::kSingleBankEquivalent, banks);
    table.core = timing;
    MemoryController sbe(table, rows, JedecFactory(rows, timing.t_refw),
                         SchedulerKind::kFrFcfs);
    EXPECT_FALSE(sbe.hierarchical());
    EXPECT_EQ(sbe.constraint_engine(), nullptr);

    const Cycles horizon = 2 * timing.t_refw;
    const auto a = flat.Run(requests, horizon);
    const auto b = sbe.Run(requests, horizon);
    ASSERT_EQ(a.per_bank.size(), b.per_bank.size());
    EXPECT_EQ(a.simulated_cycles, b.simulated_cycles);
    for (std::size_t i = 0; i < a.per_bank.size(); ++i) {
      EXPECT_EQ(a.per_bank[i].reads, b.per_bank[i].reads) << "bank " << i;
      EXPECT_EQ(a.per_bank[i].writes, b.per_bank[i].writes) << "bank " << i;
      EXPECT_EQ(a.per_bank[i].row_hits, b.per_bank[i].row_hits)
          << "bank " << i;
      EXPECT_EQ(a.per_bank[i].row_misses, b.per_bank[i].row_misses)
          << "bank " << i;
      EXPECT_EQ(a.per_bank[i].activations, b.per_bank[i].activations)
          << "bank " << i;
      EXPECT_EQ(a.per_bank[i].full_refreshes, b.per_bank[i].full_refreshes)
          << "bank " << i;
      EXPECT_EQ(a.per_bank[i].refresh_busy_cycles,
                b.per_bank[i].refresh_busy_cycles)
          << "bank " << i;
      EXPECT_EQ(a.per_bank[i].total_request_latency,
                b.per_bank[i].total_request_latency)
          << "bank " << i;
      EXPECT_EQ(a.per_bank[i].last_completion, b.per_bank[i].last_completion)
          << "bank " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzzed timing tables: arbitrary (valid) constraint sets stay conformant
// ---------------------------------------------------------------------------

TEST(FuzzedTables, RandomConstraintSetsAuditClean) {
  Rng rng(0xF00D);
  for (int iteration = 0; iteration < 8; ++iteration) {
    TimingTable table;
    table.core = FastTiming();
    table.topology = {1 + rng.UniformInt(2), 1 + rng.UniformInt(2),
                      1 + rng.UniformInt(2), 1 + rng.UniformInt(3)};
    table.t_rrd_s = static_cast<Cycles>(rng.UniformInt(5));
    table.t_rrd_l = table.t_rrd_s + static_cast<Cycles>(rng.UniformInt(3));
    table.t_ccd_s = static_cast<Cycles>(rng.UniformInt(4));
    table.t_ccd_l = table.t_ccd_s + static_cast<Cycles>(rng.UniformInt(3));
    table.t_faw = rng.UniformInt(2) == 0
                      ? 0
                      : table.t_rrd_l + static_cast<Cycles>(rng.UniformInt(16));
    table.t_rtrs = static_cast<Cycles>(rng.UniformInt(4));
    table.per_channel_bus = rng.UniformInt(2) == 0;
    ASSERT_NO_THROW(table.Validate());

    const std::size_t rows = 8;
    MemoryController controller(table, rows,
                                JedecFactory(rows, table.core.t_refw),
                                SchedulerKind::kFcfs);
    CommandLog log;
    controller.EnableAudit(log);
    const auto requests = RandomStream(
        200, table.topology.TotalBanks(), rows, 0x5EED + iteration);
    controller.Run(requests, table.core.t_refw);
    const TimingAuditor auditor(table);
    const AuditReport report = auditor.Audit(log);
    EXPECT_TRUE(report.clean())
        << "iteration " << iteration << "\n"
        << report.ToText("fuzz");
  }
}

// ---------------------------------------------------------------------------
// Hierarchy engagement: the constraints actually bind under contention
// ---------------------------------------------------------------------------

TEST(Hierarchy, ConstraintsBindUnderSameRankContention) {
  TimingTable table = MakeTimingTable(TimingPreset::kDdr3_1600);
  table.core = FastTiming();
  const std::size_t rows = 16;
  MemoryController controller(table, rows,
                              JedecFactory(rows, table.core.t_refw),
                              SchedulerKind::kFcfs);
  EXPECT_TRUE(controller.hierarchical());
  ASSERT_NE(controller.constraint_engine(), nullptr);

  // Row-conflict storm confined to rank 0: every request a miss, all eight
  // banks activating together — tRRD/tFAW and the shared bus must bind.
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 400; ++i) {
    Request r;
    r.arrival = static_cast<Cycles>(i);
    r.bank = static_cast<std::uint16_t>(i % table.topology.BanksPerRank());
    r.row = static_cast<std::uint32_t>(i % rows);
    requests.push_back(r);
  }
  controller.Run(requests, table.core.t_refw);
  const ConstraintStats& stats = controller.constraint_engine()->stats();
  EXPECT_GT(stats.TotalStalls(), 0u);
  EXPECT_GT(stats.trrd_stalls + stats.tfaw_stalls, 0u);
  EXPECT_GT(stats.bus_stalls + stats.trtrs_stalls, 0u);

  const HierarchyActivity& activity =
      controller.constraint_engine()->activity();
  ASSERT_EQ(activity.rank_activations.size(), 2u);
  EXPECT_GT(activity.rank_activations[0], 0u);
  EXPECT_EQ(activity.rank_activations[1], 0u);  // rank 1 untouched
}

TEST(Hierarchy, EnableAuditIsIdempotentAndLogsRefreshes) {
  TimingTable table = MakeTimingTable(TimingPreset::kLpddr4_3200);
  table.core = FastTiming();
  const std::size_t rows = 8;
  MemoryController controller(table, rows,
                              JedecFactory(rows, table.core.t_refw));
  CommandLog log;
  controller.EnableAudit(log);
  controller.EnableAudit(log);
  EXPECT_EQ(controller.audit_log(), &log);
  controller.Run({}, 2 * table.core.t_refw);
  std::size_t refreshes = 0;
  for (const Command& c : log.commands()) {
    if (c.kind == CommandKind::kRefresh) {
      ++refreshes;
      EXPECT_GT(c.trfc, 0u);
    }
  }
  EXPECT_GT(refreshes, 0u);
}

TEST(Hierarchy, EnableAuditAppendsStraightIntoTheCallersLog) {
  TimingTable table = MakeTimingTable(TimingPreset::kLpddr4_3200);
  table.core = FastTiming();
  const std::size_t rows = 8;
  const Cycles horizon = 2 * table.core.t_refw;

  MemoryController fresh(table, rows, JedecFactory(rows, table.core.t_refw));
  CommandLog fresh_log;
  fresh.EnableAudit(fresh_log);
  fresh.Run({}, horizon);

  // A caller's log keeps what it already holds; the run appends after it.
  CommandLog sink;
  sink.Append(Command{});
  MemoryController writer(table, rows, JedecFactory(rows, table.core.t_refw));
  writer.EnableAudit(sink);
  writer.Run({}, horizon);

  ASSERT_EQ(sink.size(), fresh_log.size() + 1);
  for (std::size_t i = 0; i < fresh_log.size(); ++i) {
    const Command& a = fresh_log.commands()[i];
    const Command& b = sink.commands()[i + 1];
    EXPECT_TRUE(a.at == b.at && a.kind == b.kind && a.addr == b.addr &&
                a.row == b.row && a.trfc == b.trfc)
        << "command " << i;
  }
}

}  // namespace
}  // namespace vrl::dram
