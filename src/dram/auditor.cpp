#include "dram/auditor.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <fstream>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"

namespace vrl::dram {

std::string CommandName(CommandKind kind) {
  switch (kind) {
    case CommandKind::kActivate:
      return "ACT";
    case CommandKind::kRead:
      return "RD";
    case CommandKind::kWrite:
      return "WR";
    case CommandKind::kPrecharge:
      return "PRE";
    case CommandKind::kRefresh:
      return "REF";
  }
  return "?";
}

std::string AuditReport::ToText(const std::string& label) const {
  std::ostringstream os;
  os << "# vrl timing audit v1\n";
  os << "# preset=" << label << " commands=" << commands_checked
     << " violations=" << violations.size() << "\n";
  for (const TimingViolation& v : violations) {
    os << "violation at=" << v.at << " rule=" << v.rule << " ch="
       << v.addr.channel << " rk=" << v.addr.rank << " bg="
       << v.addr.bank_group << " bk=" << v.addr.bank << " " << v.detail
       << "\n";
  }
  os << "# end\n";
  return os.str();
}

void WriteAuditReport(const AuditReport& report, const std::string& label,
                      const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw ConfigError("WriteAuditReport: cannot open '" + path + "'");
  }
  out << report.ToText(label);
  if (!out) {
    throw ConfigError("WriteAuditReport: write to '" + path + "' failed");
  }
}

TimingAuditor::TimingAuditor(const TimingTable& table) : table_(table) {
  table_.Validate();
}

namespace {

/// Deterministic "need >= X (had Y, rule Z)" detail line.
std::string Need(Cycles need, Cycles reference, const std::string& what) {
  std::ostringstream os;
  os << "need >= " << need << " (" << what << " " << reference << ")";
  return os.str();
}

struct SubarrayState {
  bool act_seen = false;
  Cycles last_act = 0;
  bool pre_seen = false;
  Cycles last_pre = 0;
  bool wr_seen = false;
  Cycles last_wr_burst_end = 0;
  bool ref_seen = false;
  Cycles ref_start = 0;
  Cycles ref_end = 0;
};

/// Latest ACT / column command of one bank group within a rank.
struct GroupState {
  bool act_seen = false;
  Cycles last_act = 0;
  bool col_seen = false;
  Cycles last_col = 0;
};

struct RankAuditState {
  std::vector<GroupState> groups;  ///< One per bank group of the rank.
  std::deque<Cycles> faw_window;   ///< ACTs within the trailing tFAW window.
};

struct BusState {
  bool any = false;
  Cycles last_end = 0;
  std::size_t last_rank = 0;
};

/// Latest bank-level refresh window (REFpb / all-bank REF).
struct BankRefState {
  bool seen = false;
  Cycles start = 0;
  Cycles end = 0;
};

}  // namespace

AuditReport TimingAuditor::Audit(const CommandLog& log) const {
  AuditReport report;
  report.commands_checked = log.size();
  const std::vector<Command>& commands = log.commands();

  // Replay in cycle order, log order breaking same-cycle ties (a bank's own
  // issue sequence): (cycle, index) pairs are unique, so a plain sort gives
  // exactly the stable order.  Each distinct Command::subarray value gets a
  // dense id in order of first appearance, so a huge raw index costs one
  // entry, not its value.
  std::vector<std::pair<Cycles, std::size_t>> order(commands.size());
  std::unordered_map<std::size_t, std::size_t> subarray_ids;
  std::vector<std::size_t> sub_id(commands.size());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    order[i] = {commands[i].at, i};
    sub_id[i] = subarray_ids
                    .try_emplace(commands[i].subarray, subarray_ids.size())
                    .first->second;
  }
  std::sort(order.begin(), order.end());

  // Dense state sized from the topology (FlattenBank rejects addresses
  // outside it); per-(bank, subarray) state is sized by the distinct
  // subarrays the log actually names.
  const TimingParams& core = table_.core;
  const Topology& topo = table_.topology;
  const std::size_t subs_per_bank = subarray_ids.size();
  std::vector<SubarrayState> subarrays(topo.TotalBanks() * subs_per_bank);
  std::vector<RankAuditState> ranks(topo.TotalRanks());
  for (RankAuditState& rank : ranks) {
    rank.groups.resize(topo.bank_groups_per_rank);
  }
  std::vector<BusState> buses(table_.per_channel_bus ? topo.channels
                                                     : topo.TotalBanks());
  std::vector<BankRefState> bank_refresh(topo.TotalBanks());

  const auto flag = [&](const Command& c, const char* rule,
                        std::string detail) {
    report.violations.push_back({c.at, rule, c.addr, std::move(detail)});
  };

  // ACT-side rank windows (tRRD_S/tRRD_L + tFAW): checked and recorded for
  // real ACTIVATEs and for REFpb commands alike.
  const auto act_windows = [&](const Command& c, RankAuditState& rank) {
    for (std::size_t group = 0; group < rank.groups.size(); ++group) {
      const GroupState& g = rank.groups[group];
      if (!g.act_seen) {
        continue;
      }
      const bool same = group == c.addr.bank_group;
      const Cycles gap = same ? table_.t_rrd_l : table_.t_rrd_s;
      if (gap != 0 && c.at < g.last_act + gap) {
        flag(c, same ? "tRRD_L" : "tRRD_S",
             Need(g.last_act + gap, g.last_act, "last ACT"));
      }
    }
    if (table_.t_faw != 0) {
      while (!rank.faw_window.empty() &&
             rank.faw_window.front() + table_.t_faw <= c.at) {
        rank.faw_window.pop_front();
      }
      if (rank.faw_window.size() >= 4) {
        flag(c, "tFAW",
             Need(rank.faw_window.front() + table_.t_faw,
                  rank.faw_window.front(),
                  "5th ACT in window since"));
      }
      rank.faw_window.push_back(c.at);
    }
    GroupState& own = rank.groups[c.addr.bank_group];
    own.last_act = own.act_seen ? std::max(own.last_act, c.at) : c.at;
    own.act_seen = true;
  };

  for (const auto& [at, i] : order) {
    const Command& c = commands[i];
    const std::size_t flat = FlattenBank(topo, c.addr);
    RankAuditState& rank =
        ranks[c.addr.channel * topo.ranks_per_channel + c.addr.rank];
    SubarrayState* const bank_subs = &subarrays[flat * subs_per_bank];
    SubarrayState& sub = bank_subs[sub_id[i]];

    // Refresh occupancy: nothing may touch the subarray while a refresh op
    // holds it.
    if (sub.ref_seen && c.at >= sub.ref_start && c.at < sub.ref_end) {
      flag(c, "refresh-occupancy",
           Need(sub.ref_end, sub.ref_start, "refresh busy since"));
    }
    // Bank-level refresh occupancy: a REFpb / all-bank REF blocks every
    // subarray of the bank.
    BankRefState& bref = bank_refresh[flat];
    if (bref.seen && c.at >= bref.start && c.at < bref.end) {
      flag(c, "refresh-occupancy",
           Need(bref.end, bref.start, "bank refresh busy since"));
    }

    switch (c.kind) {
      case CommandKind::kActivate: {
        if (sub.pre_seen && c.at < sub.last_pre + core.t_rp) {
          flag(c, "tRP", Need(sub.last_pre + core.t_rp, sub.last_pre,
                              "last PRE"));
        }
        act_windows(c, rank);
        sub.act_seen = true;
        sub.last_act = c.at;
        break;
      }
      case CommandKind::kRead:
      case CommandKind::kWrite: {
        if (sub.act_seen && c.at < sub.last_act + core.t_rcd) {
          flag(c, "tRCD", Need(sub.last_act + core.t_rcd, sub.last_act,
                               "last ACT"));
        }
        for (std::size_t group = 0; group < rank.groups.size(); ++group) {
          const GroupState& g = rank.groups[group];
          if (!g.col_seen) {
            continue;
          }
          const bool same = group == c.addr.bank_group;
          const Cycles gap = same ? table_.t_ccd_l : table_.t_ccd_s;
          if (gap != 0 && c.at < g.last_col + gap) {
            flag(c, same ? "tCCD_L" : "tCCD_S",
                 Need(g.last_col + gap, g.last_col, "last column command"));
          }
        }
        GroupState& own = rank.groups[c.addr.bank_group];
        own.last_col = own.col_seen ? std::max(own.last_col, c.at) : c.at;
        own.col_seen = true;

        // Data burst occupancy: per channel when the bus is shared, per
        // bank in the flat model.
        const Cycles burst_start = c.at + core.t_cas;
        const Cycles burst_end = burst_start + core.t_bus;
        BusState& bus = buses[table_.per_channel_bus ? c.addr.channel : flat];
        if (bus.any) {
          if (burst_start < bus.last_end) {
            flag(c, "bus-overlap",
                 Need(bus.last_end, bus.last_end, "previous burst ends"));
          } else if (table_.per_channel_bus && table_.t_rtrs != 0 &&
                     bus.last_rank != c.addr.rank &&
                     burst_start < bus.last_end + table_.t_rtrs) {
            flag(c, "tRTRS",
                 Need(bus.last_end + table_.t_rtrs, bus.last_end,
                      "rank switch after burst ending"));
          }
        }
        if (!bus.any || burst_end > bus.last_end) {
          bus.last_end = burst_end;
          bus.last_rank = c.addr.rank;
          bus.any = true;
        }

        if (c.kind == CommandKind::kWrite) {
          sub.wr_seen = true;
          sub.last_wr_burst_end = std::max(sub.last_wr_burst_end, burst_end);
        }
        break;
      }
      case CommandKind::kPrecharge: {
        if (sub.act_seen && c.at < sub.last_act + core.t_ras) {
          flag(c, "tRAS", Need(sub.last_act + core.t_ras, sub.last_act,
                               "last ACT"));
        }
        if (sub.wr_seen && c.at < sub.last_wr_burst_end + core.t_wr) {
          flag(c, "tWR",
               Need(sub.last_wr_burst_end + core.t_wr, sub.last_wr_burst_end,
                    "write burst end"));
        }
        sub.pre_seen = true;
        sub.last_pre = c.at;
        break;
      }
      case CommandKind::kRefresh: {
        if (c.trfc == 0) {
          flag(c, "refresh-zero-trfc", "refresh op with zero tRFC");
          break;
        }
        if (c.granularity == RefreshGranularity::kSubarray) {
          sub.ref_seen = true;
          sub.ref_start = c.at;
          sub.ref_end = c.at + c.trfc;
          break;
        }
        // Bank-level refresh: may not start while any *other* subarray's
        // refresh is in flight (its own subarray was checked above).
        for (std::size_t s = 0; s < subs_per_bank; ++s) {
          const SubarrayState& other = bank_subs[s];
          if (s != sub_id[i] && other.ref_seen && c.at >= other.ref_start &&
              c.at < other.ref_end) {
            flag(c, "refresh-occupancy",
                 Need(other.ref_end, other.ref_start, "refresh busy since"));
          }
        }
        if (c.granularity == RefreshGranularity::kPerBank) {
          // REFpb is scheduled like an ACTIVATE within the rank.
          act_windows(c, rank);
        }
        bref.seen = true;
        bref.start = c.at;
        bref.end = c.at + c.trfc;
        break;
      }
    }
  }

  std::stable_sort(
      report.violations.begin(), report.violations.end(),
      [](const TimingViolation& a, const TimingViolation& b) {
        return std::tie(a.at, a.rule, a.addr.channel, a.addr.rank,
                        a.addr.bank_group, a.addr.bank, a.detail) <
               std::tie(b.at, b.rule, b.addr.channel, b.addr.rank,
                        b.addr.bank_group, b.addr.bank, b.detail);
      });
  return report;
}

}  // namespace vrl::dram
